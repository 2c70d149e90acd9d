// Log operations: every read of a closed checkpoint log. CheckpointManager
// (core/manager.hpp) writes the log; its static recover, recover_to_epoch,
// history and compact, defined here, read it, and so does inspect_log.
//
// Recovery streams the log: one salvage pass builds a payload-free index
// (io::FrameIndex: seq, offset, mode, epoch, segment boundaries), then each
// replay attempt opens the log at its window's full checkpoint and decodes
// one frame at a time, so peak memory is O(largest frame), not O(log size).
// A mid-log corrupt frame costs at most one window: the scan resyncs past
// it, and recovery replays the newest window with no corrupt region inside.
// A live log with no usable window falls back across the quarantined
// generations, newest first. Compaction reads only the live log: it indexes
// it once and recovers every kept state against that index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/recovery.hpp"
#include "io/fault.hpp"

namespace ickpt::core {

/// Thrown when a requested target epoch is not on the log (or anywhere on
/// its generation chain): either the retention policy dropped it or it was
/// never taken. Carries the nearest epochs that *are* present so callers
/// (and the CLI) can offer them — a wrong-state success is never an option.
class EpochNotRetainedError : public CorruptionError {
 public:
  EpochNotRetainedError(const std::string& path, Epoch target,
                        std::optional<Epoch> below,
                        std::optional<Epoch> above);

  [[nodiscard]] Epoch target() const noexcept { return target_; }
  /// Largest retained epoch < target, if any.
  [[nodiscard]] std::optional<Epoch> below() const noexcept { return below_; }
  /// Smallest retained epoch > target, if any.
  [[nodiscard]] std::optional<Epoch> above() const noexcept { return above_; }

 private:
  Epoch target_;
  std::optional<Epoch> below_;
  std::optional<Epoch> above_;
};

struct RecoverResult {
  RecoveredState state;
  /// The file the state actually came from: the live log, or a quarantined
  /// generation when the live one had no usable window.
  std::string recovered_path;
  /// Files consulted before one yielded a usable window (1 = live log).
  std::size_t generations_tried = 1;
  std::size_t checkpoints_applied = 0;
  /// False when the log carried damage (torn tail or mid-log corruption).
  bool log_clean = true;
  /// Structured description of the damage and what salvage did (empty when
  /// the log is clean).
  std::string log_note;
  /// Valid frames the scan produced (including ones outside the applied
  /// window).
  std::size_t frames_total = 0;
  /// Valid frames that could not be applied: stranded behind a corrupt
  /// region without a usable full checkpoint, superseded trims, etc.
  std::size_t frames_dropped = 0;
  /// Corrupt regions salvage skipped, and the bytes inside them.
  std::size_t corrupt_regions = 0;
  std::uint64_t bytes_skipped = 0;
  /// Byte offset where the first damage begins (valid when !log_clean).
  std::uint64_t damage_offset = 0;
  /// Times the log was opened for streaming: one indexing pass plus one per
  /// replay attempt, which starts at its window's full checkpoint (a clean
  /// log recovers in exactly 2). Recovery memory is O(largest frame)
  /// regardless of log size — frame payloads are never materialized
  /// together.
  std::size_t stream_passes = 0;
};

/// What a compaction keeps. kSquashAll is the original garbage collection:
/// one full checkpoint of the newest state, history gone. kBinomial rewrites
/// the log to the RetentionPolicy schedule — every retained epoch
/// materialized as a full frame (seq == epoch), O(log n) frames total — and
/// declares the result in a `<log>.retain` manifest for fsck to audit.
enum class CompactPolicy : std::uint8_t { kSquashAll, kBinomial };

struct CompactOptions {
  CompactPolicy policy = CompactPolicy::kSquashAll;
  /// Fault injection for the replacement log's writes (tests).
  io::FaultPolicy* fault = nullptr;
};

struct CompactResult {
  /// Objects in the newest surviving full checkpoint.
  std::size_t objects = 0;
  /// Size of the log file before the rewrite (0 when it did not exist).
  std::size_t bytes_before = 0;
  /// kBinomial: size of the rewritten log file. kSquashAll: size of the
  /// one full payload it holds, without the 20-byte frame header.
  std::size_t bytes_after = 0;
  /// Epochs the rewritten log carries, ascending ({newest} for kSquashAll).
  std::vector<Epoch> retained;
  /// kBinomial: scheduled epochs that could not be recovered (damaged
  /// windows) and were therefore dropped from the rewrite.
  std::size_t epochs_dropped = 0;
};

/// One epoch visible on a log's generation chain (CheckpointManager::
/// history): where its newest frame lives and how it was written.
struct HistoryEntry {
  Epoch epoch = 0;
  Mode mode = Mode::kFull;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  /// The file holding the frame (live log or a quarantined generation).
  std::string file;
  bool live = true;
  /// A corrupt region precedes this frame (its window may be damaged).
  bool resync = false;
};

/// One frame of inspect_log's report.
struct FrameInfo {
  std::uint64_t seq = 0;
  Epoch epoch = 0;
  Mode mode = Mode::kFull;
  std::size_t bytes = 0;
  std::size_t records = 0;
  /// Class name -> record count (names from the registry).
  std::vector<std::pair<std::string, std::size_t>> records_by_type;
};

struct LogReport {
  std::vector<FrameInfo> frames;
  bool clean = true;
  std::string note;
  std::size_t total_bytes = 0;

  /// Human-readable multi-line rendering.
  [[nodiscard]] std::string to_string() const;
};

/// Decode every valid frame of the log at `path` into per-frame summaries
/// (mode, epoch, bytes, record counts by class) without recovering live
/// objects — "why is my log this big", "which classes dominate my
/// incrementals". Streams the log one frame at a time; frames must decode
/// against `registry` (TypeError propagates for unregistered classes).
LogReport inspect_log(const std::string& path, const TypeRegistry& registry);

}  // namespace ickpt::core
