// CheckpointManager: the paper's checkpointing protocol attached to real
// stable storage.
//
// Policy: the first checkpoint and every `full_interval`-th one are full;
// the rest are incremental. recover() locates the most recent *usable* full
// checkpoint and replays it plus every incremental after it, streaming the
// log: one pass builds a payload-free index (io::FrameIndex: seq, offset,
// mode, epoch, segment boundaries), then each replay attempt seeks to the
// chosen window's full checkpoint at the offset the index recorded and
// decodes the window's frames one at a time — the bytes before the window
// are never read again, and peak memory is O(largest frame), not O(log
// size). With salvage enabled (the default) a mid-log corrupt frame no
// longer truncates the whole suffix: the scan resynchronizes past the
// damage, and recovery picks the newest checkpoint window that is
// contiguous (no corrupt region between its full checkpoint and its last
// incremental) — so damage costs at most one window, never checkpoints
// that a later full supersedes. A binomial compact() builds the index once
// and runs every retained epoch's recovery against it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/async_log.hpp"
#include "core/checkpoint.hpp"
#include "core/health.hpp"
#include "core/recovery.hpp"
#include "io/byte_sink.hpp"
#include "io/stable_storage.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace ickpt::core {

struct ManagerOptions {
  /// Take a full checkpoint every N checkpoints (1 = always full).
  unsigned full_interval = 16;
  /// fsync each frame.
  bool durable = false;
  /// Forwarded to the generic driver.
  bool cycle_guard = false;
  /// Defer disk appends to a background thread (the paper's copy-on-write
  /// analog: construction still blocks, the copy to stable storage does
  /// not). Call flush() to make every taken checkpoint durable; take()
  /// reports the seq the frame *will* receive. A failed background append
  /// poisons the log: flush() and the next take() rethrow it with the
  /// failed seq in the message.
  bool async_io = false;
  /// Fault injection hook threaded into stable storage (tests).
  io::FaultPolicy* fault_policy = nullptr;
  /// Transient write-failure retry policy for stable storage.
  io::RetryPolicy retry{};
  /// Worker threads for checkpoint capture. 1 (default) keeps today's
  /// serial paper-faithful driver; N>1 shards the root set across N
  /// workers (core::ParallelCheckpoint) and merges the segments behind one
  /// stream header — the payload format and recovery are unchanged, and
  /// with cycle_guard off the merged stream is byte-identical to the
  /// serial one (tests/parallel_equiv_test.cpp).
  unsigned capture_threads = 1;
  /// Self-healing ladder (core/health.hpp). Off by default: every failure
  /// keeps today's fail-stop semantics. With heal.enabled the manager
  /// degrades to synchronous durable writes on AsyncLog poisoning, rotates
  /// the log to a quarantine file on persistent append failure, and re-arms
  /// the configured pipeline after heal.reheal_after clean epochs.
  HealPolicy heal{};
  /// Attribute every take()'s wall time to capture stages (root walk, dirty
  /// test, serialize, claim, merge, write, fsync) plus contention counters;
  /// read the result with last_capture_profile(). Off by default: the hot
  /// paths then pay exactly one pointer test per object/flush (the null
  /// profile rule, docs/OBSERVABILITY.md). Profiled captures additionally
  /// feed the ickpt_capture_stage_seconds{stage=...} histograms.
  bool profile = false;
};

struct TakeResult {
  Epoch epoch = 0;
  Mode mode = Mode::kFull;
  std::uint64_t seq = 0;
  std::size_t bytes = 0;
  CheckpointStats stats;
};

struct RecoverOptions {
  /// Resynchronize past mid-log corruption instead of truncating the log at
  /// the first bad byte.
  bool salvage = true;
  /// When the live log yields no usable window, fall back across the
  /// quarantined generations (`<path>.quarantine.<n>`, newest first) that
  /// rotation left behind, instead of failing immediately.
  bool walk_generations = true;
  /// Time-travel target: recover the state as of exactly this epoch instead
  /// of the newest one — the newest full checkpoint <= target anchors the
  /// window and the deltas replay up to (and including) the target's frame.
  /// A target not present on the log (chain) fails with
  /// EpochNotRetainedError naming the nearest retained neighbors; recovery
  /// never silently returns a different epoch's state.
  std::optional<Epoch> target_epoch;
};

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

class CheckpointManager {
 public:
  CheckpointManager(std::string path, ManagerOptions opts = {});

  /// Checkpoint `roots`, choosing full/incremental per policy.
  TakeResult take(std::span<Checkpointable* const> roots);
  TakeResult take(Checkpointable& root);

  /// Force the mode regardless of policy (still advances the epoch).
  TakeResult take_with_mode(std::span<Checkpointable* const> roots, Mode mode);

  [[nodiscard]] Epoch next_epoch() const noexcept { return epoch_; }

  /// Current rung of the degradation ladder (kHealthy unless heal.enabled
  /// and something went wrong).
  [[nodiscard]] Health health() const noexcept { return health_; }

  /// Full point-in-time ladder state (rotations, reheals, lost epochs, the
  /// settled-epoch watermark, ...).
  [[nodiscard]] HealthStatus health_status() const;

  /// Stage attribution of the most recent take() (all-zero unless
  /// ManagerOptions::profile). In async mode the background write/fsync
  /// slices land here at the next flush(), not at take() return.
  [[nodiscard]] const obs::CaptureProfile& last_capture_profile()
      const noexcept {
    return last_profile_;
  }

  /// The always-on epoch flight recorder: one structured event per epoch
  /// boundary, health transition, fault, retry, rotation, rebase, poison,
  /// and reheal, keeping the newest 256 (FlightRecorder's default
  /// capacity). Dumped automatically to flightrec_path() when the ladder
  /// reaches kFailed; dump it on demand with dump_flight_recorder().
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const noexcept {
    return flightrec_;
  }

  /// `<log>.flightrec` — where the recorder serializes on terminal failure.
  [[nodiscard]] std::string flightrec_path() const {
    return obs::FlightRecorder::default_path(storage_.path());
  }

  /// Serialize the flight recorder next to the log (flightrec_path()).
  void dump_flight_recorder() const;

  /// Re-resolve every cached metric handle (the manager's, stable
  /// storage's, the live sink's, and the async worker's) against the
  /// currently installed registry. Call while no take()/flush() is in
  /// flight. See docs/OBSERVABILITY.md, "Handle lifetime".
  void rebind_metrics();

  /// Drain any asynchronous appends; afterwards every taken checkpoint is
  /// on stable storage. No-op in synchronous mode. Rethrows a deferred
  /// background append failure (never swallowed).
  void flush();

  /// Recover the latest consistent state from a log file. When the live
  /// log has no usable window and opts.walk_generations is set, falls back
  /// across the quarantined generations rotation left behind (newest
  /// first). Throws CorruptionError when no file on the chain yields a
  /// usable full checkpoint — never returns a partial graph.
  static RecoverResult recover(const std::string& path,
                               const TypeRegistry& registry,
                               RecoverOptions opts = {});

  /// Time-travel: recover the state as of exactly epoch `target`.
  /// Equivalent to recover() with opts.target_epoch set — the newest full
  /// checkpoint <= target anchors the window, deltas replay up to the
  /// target's frame, and the generation chain is walked when the live log
  /// does not hold the target. Throws EpochNotRetainedError (naming the
  /// nearest retained neighbors) when no file on the chain carries the
  /// target, CorruptionError when it is present but its window is damaged.
  static RecoverResult recover_to_epoch(const std::string& path,
                                        const TypeRegistry& registry,
                                        Epoch target, RecoverOptions opts = {});

  /// Every epoch visible on the chain of `path` (live log first, then
  /// quarantined generations), ascending by epoch; within an epoch the live
  /// log's frame is listed first. This is the candidate list for
  /// recover_to_epoch — entries from damaged windows (resync) may still
  /// fail to recover.
  static std::vector<HistoryEntry> history(const std::string& path);

  /// Rewrite `path` per CompactOptions::policy: kSquashAll (the default)
  /// keeps one full checkpoint of the newest state (checkpoint-log garbage
  /// collection, removing any `<path>.retain` manifest); kBinomial keeps the
  /// RetentionPolicy schedule — each retained epoch recovered and rewritten
  /// as a full frame with seq == epoch — and publishes the `<path>.retain`
  /// manifest. kBinomial indexes the log once and recovers every retained
  /// epoch against that index, each opening the log at its own window, so
  /// it reads the log once plus each window; memory stays O(largest frame)
  /// plus one recovered state. Crash-atomic either way: the replacement is
  /// built in `<path>.compact`, fsynced, and renamed over the log (with a
  /// directory fsync) — a crash at any point loses at most the compaction,
  /// never the original log. Must not be called while a manager has the
  /// log open.
  static CompactResult compact(const std::string& path,
                               const TypeRegistry& registry,
                               CompactOptions opts = {});

 private:
  /// Handles into the installed obs::Registry, captured at construction
  /// (null no-op handles when none is installed — the whole struct then
  /// costs one pointer test per use). recover()/compact() are static and
  /// look their handles up per call instead.
  struct Metrics {
    Metrics();
    obs::Counter checkpoints_full;
    obs::Counter checkpoints_incremental;
    obs::Counter objects_visited;
    obs::Counter objects_recorded;
    obs::Counter objects_skipped;
    obs::Counter bytes_full;
    obs::Counter bytes_incremental;
    obs::Histogram build_seconds;
    obs::Gauge epoch;
    obs::Gauge health;
    obs::Counter degraded_epochs;
    obs::Counter reheals;
    obs::Counter lost_epochs;
  };

  /// Run one capture of `roots` into `sink` (clearing it first), serial or
  /// parallel per capture_threads. Factored out because healing re-captures
  /// (rebase fulls) for the same epoch after epoch_ has already advanced.
  /// `prof` (nullable) receives stage attribution for the walk.
  CheckpointStats capture(Epoch epoch, std::span<Checkpointable* const> roots,
                          Mode mode, io::VectorSink& sink,
                          obs::CaptureProfile* prof = nullptr);

  /// Synchronous append with the healing ladder behind it: in-place
  /// retries, then rotation + rebase, then kFailed. With heal.enabled off
  /// the first IoError rethrows untouched. `mode`/`stats` are updated when
  /// a rebase forces a full re-capture. Returns the frame's seq.
  std::uint64_t append_healed(std::span<Checkpointable* const> roots,
                              Epoch epoch, Mode& mode, io::VectorSink& sink,
                              CheckpointStats& stats);
  std::uint64_t heal_append_failure(std::span<Checkpointable* const> roots,
                                    Epoch epoch, Mode& mode,
                                    io::VectorSink& sink,
                                    CheckpointStats& stats,
                                    const std::string& first_error);

  /// AsyncLog poisoning absorbed: disarm async, force synchronous durable
  /// writes, account the lost epochs, enter kDegraded.
  void heal_poison(const std::string& what);

  void set_health(Health next);
  void note_settled(Epoch epoch);
  /// Degraded-rung bookkeeping at the end of every successful take().
  void on_epoch_complete();
  /// Return to the configured pipeline after reheal_after clean epochs.
  void reheal();

  ManagerOptions opts_;
  /// Declared before storage_/async_: the sink (and through it the async
  /// worker thread) records fault events into the recorder, so it must be
  /// destroyed only after the worker has joined and the sink is gone.
  /// Mutable so the const on-demand dump can record itself on the
  /// timeline; record() is lock-free and logically non-mutating (pure
  /// observability, like bumping a metric).
  mutable obs::FlightRecorder flightrec_;
  io::StableStorage storage_;
  std::unique_ptr<AsyncLog> async_;
  Epoch epoch_ = 0;
  Metrics metrics_;
  obs::CaptureProfile last_profile_;

  // Degradation-ladder state (all quiescent while heal.enabled is off).
  Health health_ = Health::kHealthy;
  bool needs_rebase_ = false;      ///< next take must be a full checkpoint
  bool healed_this_take_ = false;  ///< current take needed the ladder
  unsigned rotations_ = 0;
  unsigned reheals_ = 0;
  std::uint64_t degraded_epochs_ = 0;
  std::uint64_t lost_epochs_ = 0;
  unsigned clean_epochs_ = 0;
  bool any_settled_ = false;
  Epoch last_settled_ = 0;
  bool any_submitted_ = false;  ///< async: a submit succeeded since open
  Epoch last_submitted_ = 0;
  std::string last_error_;
};

}  // namespace ickpt::core
