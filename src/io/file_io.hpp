// File-backed byte sink plus whole-file loading.
//
// FileSink is the path to stable storage: append-only, explicit flush
// (fflush + fsync on durable_flush). Checkpoint *construction* benchmarks
// use VectorSink/CountingSink so that disk speed does not pollute the
// traversal measurements, exactly as the paper defers the copy task.
//
// Crash-consistency hooks: every physical write consults an optional
// io::FaultPolicy (fault.hpp), transient failures (injected EINTR/ENOSPC
// and real EINTR short writes) are retried with bounded exponential
// backoff, and truncate_to() lets StableStorage roll a failed append back
// to the previous frame boundary.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "io/byte_sink.hpp"
#include "io/fault.hpp"
#include "obs/metrics.hpp"

namespace ickpt::obs {
struct CaptureProfile;
class FlightRecorder;
}

namespace ickpt::io {

class FileSink final : public ByteSink {
 public:
  enum class Mode { kTruncate, kAppend };

  explicit FileSink(const std::string& path, Mode mode = Mode::kTruncate);
  ~FileSink() override;

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(const std::uint8_t* data, std::size_t n) override;
  void flush() override;

  /// Write `ranges` in order. With no fault policy installed this is one
  /// gather write (writev) after a flush, whatever the ranges' sizes: the
  /// kernel sees one large write, and on Linux page-cache reads of a file
  /// written in small pieces run up to twice as slow (a 16 MiB file
  /// written 80 KiB at a time read back in 2.5 ms, 1 MiB at a time in
  /// 1.3). With a policy, one write() per range, each consulting it. The
  /// file receives the same bytes either way.
  void write_ranges(std::span<const std::span<const std::uint8_t>> ranges);

  /// flush() + fsync: the frame is on stable storage when this returns.
  void durable_flush();

  /// Fault injection hook (not owned; nullptr disables). Tests only.
  void set_fault_policy(FaultPolicy* policy) noexcept { fault_ = policy; }
  void set_retry_policy(const RetryPolicy& retry) noexcept { retry_ = retry; }

  /// Stage-attribution accumulator (not owned; nullptr disables): each
  /// durable_flush adds its fsync wall time to kFsync, letting the capture
  /// profiler split append cost into write vs. device sync. One pointer
  /// test per flush when unset.
  void set_profile(obs::CaptureProfile* profile) noexcept { prof_ = profile; }

  /// Flight recorder (not owned; nullptr disables): every injected fault
  /// decision is recorded as a kFault event carrying the byte offset,
  /// request size, and fault kind.
  void set_flightrec(obs::FlightRecorder* rec) noexcept { flightrec_ = rec; }

  /// Re-resolve metric handles against the currently installed registry.
  /// Handles bind at construction; a sink that outlives the registry it was
  /// built under (or was built before install) holds stale/null handles
  /// until this is called. See docs/OBSERVABILITY.md, "Handle lifetime".
  void rebind_metrics() noexcept;

  /// Bytes in the file including buffered-but-unflushed ones; the file
  /// offset the next write() starts at.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  /// Shrink the file to `size` bytes (rollback of a partially written
  /// frame). Flushes first; throws IoError on failure.
  void truncate_to(std::uint64_t size);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  /// Write exactly `n` bytes, retrying real EINTR short writes.
  void write_raw(const std::uint8_t* data, std::size_t n);
  void backoff(unsigned attempt) const;

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  FaultPolicy* fault_ = nullptr;
  RetryPolicy retry_;
  obs::CaptureProfile* prof_ = nullptr;
  obs::FlightRecorder* flightrec_ = nullptr;
  // Null handles (one pointer test per op) unless a registry is installed
  // when the sink is constructed; see docs/OBSERVABILITY.md.
  obs::Counter obs_bytes_;
  obs::Counter obs_fsyncs_;
};

/// Read an entire file into memory. Throws IoError if unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Write a buffer to a file (truncating). Throws IoError on failure.
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// True if `path` exists and is openable for reading.
[[nodiscard]] bool file_exists(const std::string& path);

/// Size in bytes of the file at `path`, read from its metadata without
/// opening it; 0 when it does not exist or cannot be examined.
[[nodiscard]] std::uint64_t file_size(const std::string& path);

/// fsync the directory containing `path`, persisting a rename/create/unlink
/// of that entry. No-op on platforms without directory fsync.
void fsync_parent_dir(const std::string& path);

/// rename(from, to) + fsync of to's directory: the atomic publish step of
/// write-to-temp + rename. Throws IoError on failure.
void rename_durable(const std::string& from, const std::string& to);

/// Shrink the file at `path` to `size` bytes and persist the new length.
void truncate_file(const std::string& path, std::uint64_t size);

}  // namespace ickpt::io
