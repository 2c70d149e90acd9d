// AsyncLog: non-blocking stable-storage appends.
//
// The paper notes that with a mechanism like copy-on-write "the application
// need not be blocked, at the expense of deferring the copy task to the
// system". The language-level analog: checkpoint construction snapshots the
// state into an in-memory buffer (fast, still blocking — it must be
// consistent), and the *disk append* is deferred to a background thread.
// Appends happen strictly in submission order, so the on-disk log is
// identical to what synchronous operation would produce. A queued payload
// is the take's ChunkSink itself: its chunks go back to their pool once the
// worker has appended it, or when a poisoned log drops it.
//
// Error contract: a failed background append poisons the log. The error —
// tagged with the sequence number of the frame that failed — is rethrown
// from drain() and from every subsequent submit(), and stays sticky: once
// an append has been lost, silently continuing would punch a hole in the
// frame/epoch correspondence (later checkpoints would land under earlier
// sequence numbers), so the queued payloads are discarded and the caller
// must recover/reopen the log. An error that was never observed is
// reported on stderr from the destructor — it is never silently dropped.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "io/byte_sink.hpp"
#include "io/stable_storage.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace ickpt::core {

class AsyncLog {
 public:
  explicit AsyncLog(io::StableStorage& storage);

  AsyncLog(const AsyncLog&) = delete;
  AsyncLog& operator=(const AsyncLog&) = delete;

  /// Drains outstanding appends, then stops the worker. A pending append
  /// error that no drain()/submit() ever observed is printed to stderr.
  /// The pools the queued payloads draw from must outlive the log.
  ~AsyncLog();

  /// Enqueue one checkpoint payload for appending, taking its chunks.
  /// Returns immediately. Throws the deferred append error if the log is
  /// poisoned, leaving `payload` as it was.
  void submit(io::ChunkSink&& payload);

  /// Block until every submitted payload is durably appended; rethrows the
  /// deferred append error (with the failed frame's seq in the message).
  void drain();

  [[nodiscard]] std::size_t pending() const;

  /// True once a background append has failed; the log accepts no further
  /// payloads and every drain()/submit() rethrows the error.
  [[nodiscard]] bool poisoned() const;

  /// Queued payloads discarded when the log was poisoned (0 while healthy);
  /// their chunks went back to their pool. The in-flight payload whose
  /// append failed is not counted. The healing manager adds 1 for it when
  /// accounting lost epochs.
  [[nodiscard]] std::size_t dropped() const;

  /// Toggle per-append stage attribution on the worker thread. While on,
  /// each background append accrues kWrite/kFsync (fsync split measured via
  /// the storage's FileSink profile hook) into an internal accumulator;
  /// collect it with take_profile() after drain(). While profiling, the
  /// worker temporarily points the storage's profile hook at a stack-local
  /// accumulator per append — the caller must not install its own storage
  /// profile concurrently.
  void set_profiling(bool on);

  /// Return and reset the accumulated background-append profile. Call after
  /// drain() for a consistent cut (otherwise an in-flight append's cost
  /// lands in the next take).
  [[nodiscard]] obs::CaptureProfile take_profile();

  /// Re-resolve metric handles against the currently installed registry
  /// (handles bind at construction). See docs/OBSERVABILITY.md.
  void rebind_metrics();

 private:
  void worker();
  void rethrow_locked(std::unique_lock<std::mutex>& lock);

  io::StableStorage& storage_;
  /// Null no-op handles when no obs::Registry is installed (one pointer
  /// test per use). Captured at construction.
  obs::Gauge obs_depth_;
  obs::Counter obs_appends_;
  obs::Histogram obs_append_seconds_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<io::ChunkSink> queue_;
  bool profiling_ = false;
  obs::CaptureProfile worker_profile_;
  std::exception_ptr error_;
  bool error_observed_ = false;
  std::size_t dropped_ = 0;
  bool in_flight_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace ickpt::core
