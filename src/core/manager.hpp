// CheckpointManager: the paper's checkpointing protocol attached to real
// stable storage.
//
// Policy: the first checkpoint and every `full_interval`-th one are full;
// the rest are incremental. The manager is the log's writer — capture,
// framing, append and the degradation ladder. Reading a closed log
// (recover, recover_to_epoch, history, compact) is core/log_ops.hpp's job;
// those static entry points are declared here and defined there.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/async_log.hpp"
#include "core/checkpoint.hpp"
#include "core/health.hpp"
#include "core/log_ops.hpp"
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
  /// capture_threads sentinel: each take sizes its own capture.
  static constexpr unsigned kAutoThreads = 0;

  /// Worker threads for checkpoint capture. kAutoThreads (the default)
  /// sizes each take on its own. An incremental take runs on
  /// core::capture_threads_for(objects the previous capture visited)
  /// threads, since its cost is its walk. A full take runs on
  /// core::full_capture_threads_for(bytes of the newest full payload the
  /// manager knows), since it records every object: its own last full or,
  /// right after open, the log's largest frame. So the first take on an
  /// empty log is serial, and a reopened log's first full take shards. At
  /// most 4 threads (and usable_cpus()) on large heaps.
  /// The gain needs a wide heap, whose objects spread over many roots or
  /// over many children of the roots, because those are all sharded
  /// capture can split: a heap hanging off one root's only child (a linked
  /// list taken with take(*head)) stays serial, and one whose roots have
  /// few, lopsided children starts threads that save nothing. 1 pins the
  /// serial paper-faithful driver; N>1 pins N workers. Sharded capture
  /// (core::ParallelCheckpoint) splices the items' chunks behind one stream
  /// header — the payload format and recovery are unchanged, and with
  /// cycle_guard off the stream is byte-identical to the serial one
  /// (tests/parallel_equiv_test.cpp). Anything above 1 relies on the
  /// concurrency contract in core/checkpointable.hpp.
  unsigned capture_threads = kAutoThreads;
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

  /// The pool every take's payload chunks come from. It maps nothing before
  /// the first take, holds no more chunks between takes than the last take
  /// used, and unmaps everything when the manager is destroyed.
  [[nodiscard]] const io::ChunkPool& chunk_pool() const noexcept {
    return pool_;
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

  /// Recover the latest consistent state from a log file, salvaging past
  /// mid-log corruption. When the live log has no usable window, falls back
  /// across the quarantined generations rotation left behind (newest
  /// first). Throws CorruptionError when no file on the chain yields a
  /// usable full checkpoint — never returns a partial graph.
  static RecoverResult recover(const std::string& path,
                               const TypeRegistry& registry);

  /// Time-travel: recover the state as of exactly epoch `target` — the
  /// newest full checkpoint <= target anchors the window, deltas replay up
  /// to the target's frame, and the generation chain is walked when the
  /// live log does not hold the target. Throws EpochNotRetainedError
  /// (naming the nearest retained neighbors) when no file on the chain
  /// carries the target, CorruptionError when it is present but its window
  /// is damaged; never returns a different epoch's state.
  static RecoverResult recover_to_epoch(const std::string& path,
                                        const TypeRegistry& registry,
                                        Epoch target);

  /// Every epoch visible on the chain of `path` (live log first, then
  /// quarantined generations), ascending by epoch; within an epoch the live
  /// log's frame is listed first. This is the candidate list for
  /// recover_to_epoch — entries from damaged windows (resync) may still
  /// fail to recover.
  static std::vector<HistoryEntry> history(const std::string& path);

  /// Rewrite `path` per CompactOptions::policy: kSquashAll (the default)
  /// keeps one full checkpoint of the newest usable state (checkpoint-log
  /// garbage collection, removing any `<path>.retain` manifest); kBinomial
  /// keeps the RetentionPolicy schedule's epochs that are on the log and
  /// publishes the `<path>.retain` manifest. Each kept state is recovered
  /// and rewritten as a full frame with seq == epoch. Both policies read
  /// only the live log — never a quarantined generation: it is indexed
  /// once, and every kept state's recovery opens it at its own window, so
  /// memory stays O(largest frame) plus one recovered state. Crash-atomic
  /// either way: the replacement is built in `<path>.compact`, fsynced, and
  /// renamed over the log (with a directory fsync) — a crash at any point
  /// loses at most the compaction, never the original log. Must not be
  /// called while a manager has the log open.
  static CompactResult compact(const std::string& path,
                               const TypeRegistry& registry,
                               CompactOptions opts = {});

 private:
  /// Handles into the installed obs::Registry, captured at construction
  /// (null no-op handles when none is installed — the whole struct then
  /// costs one pointer test per use). The static log operations look their
  /// handles up per call instead.
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
  /// `prof` (nullable) receives stage attribution for the walk. Records the
  /// objects visited in last_visited_ and a full payload's size in
  /// last_full_bytes_, and keeps the pool at this capture's chunk count.
  CheckpointStats capture(Epoch epoch, std::span<Checkpointable* const> roots,
                          Mode mode, io::ChunkSink& sink,
                          obs::CaptureProfile* prof = nullptr);

  /// Synchronous append with the healing ladder behind it: in-place
  /// retries, then rotation + rebase, then kFailed. With heal.enabled off
  /// the first IoError rethrows untouched. `mode`/`stats` are updated when
  /// a rebase forces a full re-capture. Returns the frame's seq.
  std::uint64_t append_healed(std::span<Checkpointable* const> roots,
                              Epoch epoch, Mode& mode, io::ChunkSink& sink,
                              CheckpointStats& stats);
  std::uint64_t heal_append_failure(std::span<Checkpointable* const> roots,
                                    Epoch epoch, Mode& mode,
                                    io::ChunkSink& sink,
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
  /// Declared before async_: payloads queued there hold its chunks, and
  /// the async worker returns them.
  io::ChunkPool pool_;
  std::unique_ptr<AsyncLog> async_;
  Epoch epoch_ = 0;
  /// Objects the previous capture visited; sizes the next incremental one
  /// under kAutoThreads. 0 before the first, which therefore runs serially.
  std::uint64_t last_visited_ = 0;
  /// Bytes of the newest full payload the manager knows: its own last full,
  /// or the log's largest frame at open. Sizes the next full capture under
  /// kAutoThreads; 0 on an empty log, whose first full therefore runs
  /// serially.
  std::uint64_t last_full_bytes_ = 0;
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
