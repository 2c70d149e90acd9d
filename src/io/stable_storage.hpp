// Framed, CRC-protected checkpoint log on disk.
//
// Each checkpoint (full or incremental) is appended as one frame:
//
//   [u32 magic][u64 seq][u32 payload_len][u32 payload_crc][payload bytes]
//
// all integers big-endian. A plain scan stops at the first frame that is
// short, has a bad magic/CRC, or a non-increasing sequence number;
// everything before it is the longest valid prefix and is safe to recover
// from. A *salvage* scan (ScanOptions::salvage) additionally skips over the
// corrupt region and resynchronizes on the next valid [magic][seq] boundary,
// so a mid-log bad frame strands one checkpoint window instead of the whole
// suffix; frames found after a skip carry `resync = true` so recovery can
// tell which windows are contiguous.
//
// Crash consistency of the writer: a failed append is rolled back to the
// previous frame boundary (the log stays clean for later appends), except
// when the failure is a CrashFault — then the torn bytes stay, exactly as a
// real crash would leave them. Opening a log whose tail is torn truncates
// the tail to the longest valid prefix first (saving the removed bytes to
// `<path>.bak`), so post-crash appends never land behind unreadable bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/byte_sink.hpp"
#include "io/fault.hpp"

namespace ickpt::obs {
struct CaptureProfile;
class FlightRecorder;
}

namespace ickpt::io {

struct Frame {
  std::uint64_t seq = 0;
  /// The payload, or with FrameIterator::next_header only its first bytes.
  std::vector<std::uint8_t> payload;
  /// Length of the whole payload.
  std::size_t payload_bytes = 0;
  /// Byte offset of the frame header within the log.
  std::uint64_t offset = 0;
  /// True when this frame was reached by salvage resynchronization (i.e. a
  /// corrupt region lies between it and the preceding frame).
  bool resync = false;
};

struct ScanOptions {
  /// Skip corrupt regions and resynchronize on the next valid frame instead
  /// of stopping at the first bad byte.
  bool salvage = false;
};

struct ScanResult {
  std::vector<Frame> frames;
  /// True when every byte of the file decoded as valid frames.
  bool clean = true;
  /// Human-readable reason for the *first* damage met (empty when clean).
  std::string stop_reason;
  /// Byte offset where the first damage begins (== valid_prefix_bytes; the
  /// file size when clean).
  std::uint64_t stop_offset = 0;
  /// Length of the longest valid prefix: every byte before this decoded as
  /// valid frames (repair() truncates only the tail after the *last*
  /// salvageable frame, which can lie beyond this).
  std::uint64_t valid_prefix_bytes = 0;
  /// Salvage only: corrupt regions skipped and the bytes inside them.
  std::size_t regions_skipped = 0;
  std::uint64_t bytes_skipped = 0;
};

/// Streaming frame reader. Memory is a fixed 128 KiB window plus, for
/// next(), one payload buffer sized to the largest frame read (the caller's
/// Frame::payload, reused), whatever the log or frame size. A payload
/// is never sized past the bytes left in the input, so a corrupt length
/// costs no memory. Drive with next() until it returns false, then read the
/// end-of-scan state (clean()/stop_reason()/...). scan()/scan_bytes() are
/// thin wrappers that collect every frame into a ScanResult.
class FrameIterator {
 public:
  /// Stream from a file. A missing file reads as an empty, clean log.
  /// `start` opens the log at that byte offset instead of byte 0; it must
  /// be a frame boundary an earlier pass recorded (IndexedFrame::offset).
  /// Bytes before it are neither read nor checked, and every frame from it
  /// on passes the same magic, CRC and sequence tests.
  explicit FrameIterator(const std::string& path, ScanOptions opts = {},
                         std::uint64_t start = 0);
  /// Read from an in-memory image (not copied; must outlive the iterator).
  FrameIterator(const std::uint8_t* data, std::size_t size,
                ScanOptions opts = {});
  ~FrameIterator();

  FrameIterator(const FrameIterator&) = delete;
  FrameIterator& operator=(const FrameIterator&) = delete;

  /// Produce the next frame into `out` (reusing its payload buffer).
  /// Returns false at end of log; `out.payload` is unspecified then.
  bool next(Frame& out);
  /// next() that keeps only the payload's first `prefix` bytes (all of a
  /// shorter payload) in `out.payload`. The whole payload still passes the
  /// CRC check, streamed through the window, so memory stays the window.
  bool next_header(Frame& out, std::size_t prefix = 0);

  // End-of-scan state; meaningful once next() has returned false.
  [[nodiscard]] bool clean() const;
  [[nodiscard]] const std::string& stop_reason() const;
  [[nodiscard]] std::uint64_t stop_offset() const;
  [[nodiscard]] std::uint64_t valid_prefix_bytes() const;
  [[nodiscard]] std::size_t regions_skipped() const;
  [[nodiscard]] std::uint64_t bytes_skipped() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Feed one finished whole-log pass of `it`, which produced `frames`
/// frames, into the ickpt_scan* counters — the end-of-scan state stops
/// being write-only the moment observability is on. Every reader that
/// walks a whole log (StableStorage's own passes, io::index_frames) calls
/// this once per pass, inside its "storage.scan" span.
void publish_scan(const FrameIterator& it, std::size_t frames);

struct StorageOptions {
  /// fsync each appended frame before append() returns.
  bool durable = false;
  /// Fault injection hook threaded into the underlying FileSink (tests).
  FaultPolicy* fault = nullptr;
  /// Transient-failure retry policy for the underlying FileSink.
  RetryPolicy retry{};
};

/// Progress points inside rotate() (and, for kAfterRebase, in the manager's
/// rebase step that follows it). The crash-matrix tests install a hook that
/// throws CrashFault at each stage to prove a crash mid-rotation loses at
/// most the in-flight epoch.
enum class RotateStage : std::uint8_t {
  kBeforeQuarantine,  ///< sink still open, log still at its live path
  kAfterQuarantine,   ///< log renamed to the quarantine path; no live log yet
  kAfterReopen,       ///< fresh empty generation open at the live path
  kAfterRebase,       ///< manager-level: rebase full checkpoint appended
};
using RotateHook = std::function<void(RotateStage)>;

struct RotateResult {
  /// Where the damaged generation was preserved (`<path>.quarantine.<n>`).
  std::string quarantine_path;
  /// The quarantine slot used (the <n> in the file name).
  unsigned generation = 0;
  /// Size of the quarantined log at rotation time.
  std::uint64_t bytes_quarantined = 0;
};

struct RepairResult {
  /// False when nothing was changed: the log was already clean, or its
  /// damage is mid-log only (no unreadable tail to remove).
  bool repaired = false;
  std::size_t frames_kept = 0;
  std::uint64_t bytes_removed = 0;
  /// Where the removed bytes were saved ("" when nothing was removed).
  std::string bak_path;
  /// The scan's stop_reason for the damage that was truncated.
  std::string reason;
};

class StableStorage {
 public:
  /// Opens (creating if absent) the log at `path` for appending. If the
  /// log's tail is unreadable it is first truncated back to the last
  /// salvageable frame (removed bytes saved to `<path>.bak`; mid-log
  /// damage is preserved); sequence numbering resumes above every frame a
  /// salvage scan can see, so even stranded frames can never collide with
  /// new ones.
  explicit StableStorage(std::string path, StorageOptions opts);
  explicit StableStorage(std::string path, bool durable = false);

  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;
  ~StableStorage();

  /// Append one checkpoint payload, given as ordered byte ranges (a
  /// ChunkSink's chunks, or one vector); returns its sequence number. The
  /// frame is the one a contiguous payload of the same bytes makes: the
  /// CRC runs over the ranges in order, and the header is written first,
  /// then each range. On a write failure the partial frame is rolled back
  /// (truncated away) and the error rethrown; the log remains valid. A
  /// CrashFault is never rolled back.
  std::uint64_t append(ByteRanges payload);

  /// Delete all frames (restart the log). Sequence numbering continues.
  void reset();

  /// Quarantine the current log as `<path>.quarantine.<n>` (first free n,
  /// its `.bak` riding along as `<quarantine>.bak`) and reopen a fresh,
  /// empty generation at the live path. Sequence numbering continues across
  /// generations. `hook`, when set, is called at each RotateStage — the
  /// crash-matrix tests throw CrashFault from it. If the quarantine rename
  /// fails with IoError the live log is reopened and the error rethrown;
  /// a CrashFault propagates with whatever state the "crash" left.
  RotateResult rotate(const RotateHook& hook = {});

  /// Flip per-frame fsync on or off at runtime. The degraded rungs of the
  /// manager's health ladder force this on so healed epochs are durable.
  void set_durable(bool durable) noexcept { opts_.durable = durable; }
  [[nodiscard]] bool durable() const noexcept { return opts_.durable; }

  /// Stage-attribution accumulator, forwarded to the underlying FileSink
  /// (fsync time accrues to kFsync). Persists across rotate()/reset() —
  /// the pointer is re-applied to every reopened sink. nullptr disables.
  void set_profile(obs::CaptureProfile* profile) noexcept;

  /// Flight recorder, forwarded to the underlying FileSink (injected fault
  /// decisions become kFault events). Persists across rotate()/reset().
  void set_flightrec(obs::FlightRecorder* rec) noexcept;

  /// Re-resolve metric handles (this object's and the live sink's) against
  /// the currently installed registry. See FileSink::rebind_metrics().
  void rebind_metrics() noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Payload bytes of the largest frame the open probe read on the live
  /// log (0 for an empty one). A log's largest frame is normally its
  /// newest full checkpoint, so CheckpointManager sizes a reopened log's
  /// first full take from it.
  [[nodiscard]] std::size_t largest_payload_at_open() const noexcept {
    return largest_payload_at_open_;
  }

  /// Raise the next sequence number (forward-only; a smaller value is
  /// ignored — sequence numbers never move backwards). The policy
  /// compaction uses this to write each retained epoch's frame with
  /// seq == epoch, so epoch numbering resumes correctly from next_seq()
  /// after the rewrite.
  void set_next_seq(std::uint64_t seq) noexcept {
    next_seq_ = std::max(next_seq_, seq);
  }

  /// The quarantine file name for slot `n`.
  static std::string quarantine_path(const std::string& path, unsigned n);

  /// Quarantined predecessors of the log at `path`, newest first (highest
  /// slot number first). Probes consecutive slots from 1; empty when the
  /// log has never rotated.
  static std::vector<std::string> generation_chain(const std::string& path);

  /// Scan a log file into frames, tolerating a torn tail (and, with
  /// opts.salvage, mid-log corruption). Streams through a FrameIterator:
  /// one buffer of the largest frame and a fixed window, plus the collected
  /// frames.
  static ScanResult scan(const std::string& path, ScanOptions opts = {});

  /// Scan an in-memory image of a log (used by fault-injection tests).
  static ScanResult scan_bytes(const std::vector<std::uint8_t>& bytes,
                               ScanOptions opts = {});

  /// Truncate a damaged log's unreadable tail — every byte after the last
  /// frame a salvage scan can read — saving the removed bytes to
  /// `<path>.bak` (overwriting a previous .bak). Mid-log corrupt regions
  /// with settled frames beyond them are left in place (salvage-aware
  /// readers step over them; truncating there would destroy settled
  /// state). The truncation is durable before repair() returns. A clean
  /// log, or one whose damage is mid-log only, is left untouched.
  static RepairResult repair(const std::string& path);

 private:
  void open_for_append();

  std::string path_;
  StorageOptions opts_;
  std::uint64_t next_seq_ = 0;
  std::size_t largest_payload_at_open_ = 0;
  obs::CaptureProfile* prof_ = nullptr;
  obs::FlightRecorder* flightrec_ = nullptr;
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace ickpt::io
