#include "core/manager.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "core/parallel_checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "io/data_writer.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

CheckpointManager::Metrics::Metrics()
    : checkpoints_full(
          obs::counter("ickpt_checkpoints_total", {{"mode", "full"}})),
      checkpoints_incremental(
          obs::counter("ickpt_checkpoints_total", {{"mode", "incremental"}})),
      objects_visited(obs::counter("ickpt_checkpoint_objects_total",
                                   {{"result", "visited"}})),
      objects_recorded(obs::counter("ickpt_checkpoint_objects_total",
                                    {{"result", "recorded"}})),
      objects_skipped(obs::counter("ickpt_checkpoint_objects_total",
                                   {{"result", "skipped"}})),
      bytes_full(
          obs::counter("ickpt_checkpoint_bytes_total", {{"mode", "full"}})),
      bytes_incremental(obs::counter("ickpt_checkpoint_bytes_total",
                                     {{"mode", "incremental"}})),
      build_seconds(obs::histogram("ickpt_checkpoint_build_seconds")),
      epoch(obs::gauge("ickpt_epoch")),
      health(obs::gauge("ickpt_health")),
      degraded_epochs(obs::counter("ickpt_degraded_epochs_total")),
      reheals(obs::counter("ickpt_reheals_total")),
      lost_epochs(obs::counter("ickpt_heal_lost_epochs_total")) {}

namespace {

io::StorageOptions storage_options(const ManagerOptions& opts) {
  return io::StorageOptions{.durable = opts.durable,
                            .fault = opts.fault_policy,
                            .retry = opts.retry};
}

/// Highest stream-header epoch visible anywhere on the generation chain,
/// plus one. Epochs can run ahead of sequence numbers once async poisoning
/// has dropped frames, so a restarting healing manager must resume above
/// the epochs recorded in headers, not just above next_seq().
Epoch chain_next_epoch(const std::string& path) {
  Epoch next = 0;
  // Returns whether the file holds a parseable epoch.
  auto peek_all = [&next](const std::string& p) {
    bool found = false;
    for (const io::IndexedFrame& f :
         io::index_frames(p, {.salvage = true}, stream_header_probe()).frames)
      if (f.header_ok) {
        next = std::max(next, f.epoch + 1);
        found = true;
      }
    return found;
  };
  peek_all(path);
  peek_all(path + ".bak");
  // Newest generation first; older ones hold older epochs. An empty
  // generation (a crash or a failed rebase right after a rotation) says
  // nothing, so the walk goes on past it, as StableStorage's sequence
  // resume does.
  for (const std::string& gen : io::StableStorage::generation_chain(path)) {
    const bool in_log = peek_all(gen);
    const bool in_bak = peek_all(gen + ".bak");
    if (in_log || in_bak) break;
  }
  return next;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string path, ManagerOptions opts)
    : opts_(std::move(opts)),
      storage_(std::move(path), storage_options(opts_)) {
  if (opts_.full_interval == 0)
    throw Error("ManagerOptions.full_interval must be >= 1");
  if (opts_.heal.enabled && opts_.heal.rotate_attempts == 0)
    throw Error(
        "ManagerOptions.heal.rotate_attempts must be >= 1 when healing is "
        "enabled");
  // Resume epoch numbering after a restart: frames and epochs are appended
  // 1:1, so the next epoch is the next storage sequence number.
  epoch_ = storage_.next_seq();
  last_full_bytes_ = storage_.largest_payload_at_open();
  if (opts_.heal.enabled) {
    epoch_ = std::max(epoch_, chain_next_epoch(storage_.path()));
    // Restarting on an existing log: the in-memory modified bits that drove
    // its last incrementals are gone (and the caller's state may come from
    // a salvaged window older than the log's tail), so the first checkpoint
    // of this manager must restart the chain with a full.
    if (epoch_ > 0) needs_rebase_ = true;
  }
  metrics_.health.set(static_cast<std::int64_t>(health_));
  // Fault decisions inside the sink become kFault events; the wiring
  // survives rotation (StableStorage re-applies it to reopened sinks).
  storage_.set_flightrec(&flightrec_);
  if (opts_.async_io) {
    async_ = std::make_unique<AsyncLog>(storage_);
    async_->set_profiling(opts_.profile);
  }
}

void CheckpointManager::dump_flight_recorder() const {
  const std::string path = flightrec_path();
  flightrec_.record(obs::FlightEventType::kDump,
                    epoch_ > 0 ? epoch_ - 1 : 0, 0, 0, path);
  flightrec_.dump_to_file(path);
}

void CheckpointManager::rebind_metrics() {
  metrics_ = Metrics();
  metrics_.health.set(static_cast<std::int64_t>(health_));
  metrics_.epoch.set(epoch_ > 0 ? static_cast<std::int64_t>(epoch_ - 1) : 0);
  storage_.rebind_metrics();
  if (async_ != nullptr) async_->rebind_metrics();
}

void CheckpointManager::flush() {
  if (async_ == nullptr) return;
  try {
    async_->drain();
    // The background appends' write/fsync slices, measured on the worker
    // thread; merged here so last_capture_profile() covers the whole
    // pipeline once the epochs it describes are durable.
    if (opts_.profile) last_profile_.add(async_->take_profile());
    if (any_submitted_) note_settled(last_submitted_);
  } catch (const IoError& e) {
    if (!opts_.heal.enabled) throw;
    heal_poison(e.what());
    // No roots in hand to rebase with; the next take() restarts the chain.
    needs_rebase_ = true;
  }
}

HealthStatus CheckpointManager::health_status() const {
  HealthStatus status;
  status.health = health_;
  status.async_armed = async_ != nullptr;
  status.rotations = rotations_;
  status.reheals = reheals_;
  status.degraded_epochs = degraded_epochs_;
  status.lost_epochs = lost_epochs_;
  status.clean_epochs = clean_epochs_;
  status.any_settled = any_settled_;
  status.last_settled_epoch = last_settled_;
  status.last_error = last_error_;
  return status;
}

void CheckpointManager::set_health(Health next) {
  if (next == health_) return;
  obs::instant("manager.health", "checkpoint",
               std::string(to_string(health_)) + " -> " + to_string(next));
  flightrec_.record(obs::FlightEventType::kHealthTransition,
                    epoch_ > 0 ? epoch_ - 1 : 0,
                    static_cast<std::uint64_t>(health_),
                    static_cast<std::uint64_t>(next),
                    std::string(to_string(health_)) + " -> " +
                        to_string(next));
  health_ = next;
  metrics_.health.set(static_cast<std::int64_t>(next));
}

void CheckpointManager::note_settled(Epoch epoch) {
  any_settled_ = true;
  if (epoch >= last_settled_) last_settled_ = epoch;
}

void CheckpointManager::heal_poison(const std::string& what) {
  healed_this_take_ = true;
  last_error_ = what;
  const std::uint64_t lost =
      1 + (async_ != nullptr ? async_->dropped() : 0);
  lost_epochs_ += lost;
  metrics_.lost_epochs.inc(lost);
  async_.reset();  // the poison was observed by the submit/drain that threw
  storage_.set_durable(true);
  clean_epochs_ = 0;
  flightrec_.record(obs::FlightEventType::kPoison, epoch_ > 0 ? epoch_ - 1 : 0,
                    lost, 0, what);
  flightrec_.record(obs::FlightEventType::kFallback,
                    epoch_ > 0 ? epoch_ - 1 : 0, 0, 0,
                    "async disarmed -> synchronous durable appends");
  set_health(Health::kDegraded);
  obs::instant("manager.degrade", "checkpoint",
               "async log poisoned (" + std::to_string(lost) +
                   " epoch(s) lost): " + what);
}

void CheckpointManager::on_epoch_complete() {
  if (!opts_.heal.enabled || health_ == Health::kHealthy) return;
  ++degraded_epochs_;
  metrics_.degraded_epochs.inc();
  if (healed_this_take_) {
    clean_epochs_ = 0;
    return;
  }
  if (++clean_epochs_ >= opts_.heal.reheal_after) reheal();
}

void CheckpointManager::reheal() {
  obs::Span span("manager.reheal", "checkpoint");
  storage_.set_durable(opts_.durable);
  if (opts_.async_io && async_ == nullptr)
    async_ = std::make_unique<AsyncLog>(storage_);
  if (async_ != nullptr) async_->set_profiling(opts_.profile);
  ++reheals_;
  metrics_.reheals.inc();
  const unsigned clean = clean_epochs_;
  clean_epochs_ = 0;
  flightrec_.record(obs::FlightEventType::kReheal,
                    epoch_ > 0 ? epoch_ - 1 : 0, clean);
  set_health(Health::kHealthy);
  if (span.active())
    span.note("pipeline re-armed after " + std::to_string(clean) +
              " clean epoch(s)");
}

TakeResult CheckpointManager::take(std::span<Checkpointable* const> roots) {
  Mode mode = (epoch_ % opts_.full_interval == 0) ? Mode::kFull
                                                  : Mode::kIncremental;
  return take_with_mode(roots, mode);
}

TakeResult CheckpointManager::take(Checkpointable& root) {
  Checkpointable* roots[] = {&root};
  return take(std::span<Checkpointable* const>(roots));
}

CheckpointStats CheckpointManager::capture(
    Epoch epoch, std::span<Checkpointable* const> roots, Mode mode,
    io::ChunkSink& sink, obs::CaptureProfile* prof) {
  sink.clear();
  // One thread hands the capture to the serial walker unchanged. A full
  // capture's cost is its bytes, an incremental one's its walk.
  ParallelOptions popts;
  popts.mode = mode;
  popts.cycle_guard = opts_.cycle_guard;
  popts.threads = opts_.capture_threads;
  if (popts.threads == ManagerOptions::kAutoThreads)
    popts.threads = mode == Mode::kFull
                        ? full_capture_threads_for(last_full_bytes_)
                        : capture_threads_for(last_visited_);
  popts.profile = prof;
  const CheckpointStats stats =
      ParallelCheckpoint::run(sink, epoch, roots, popts).totals;
  last_visited_ = stats.objects_visited;
  if (mode == Mode::kFull) last_full_bytes_ = sink.size();
  // Between takes the pool keeps no more chunks than this capture used, so
  // the next take of the same kind finds its chunks warm.
  pool_.keep(sink.chunks());
  return stats;
}

namespace {

/// Feed one profiled capture into the per-stage latency histograms. Cold:
/// once per profiled take, per-call lookups by design (a profiled session
/// may install its registry late).
void publish_stage_histograms(const obs::CaptureProfile& p) {
  using P = obs::CaptureProfile;
  for (int s = 0; s < P::kStageCount; ++s) {
    if (p.stage_ns[s] == 0) continue;
    obs::histogram("ickpt_capture_stage_seconds",
                   {{"stage", P::stage_name(static_cast<P::Stage>(s))}})
        .observe(static_cast<double>(p.stage_ns[s]) / 1e9);
  }
}

}  // namespace

TakeResult CheckpointManager::take_with_mode(
    std::span<Checkpointable* const> roots, Mode mode) {
  if (health_ == Health::kFailed)
    throw Error("checkpoint pipeline is in the failed state (" + last_error_ +
                "); recover from the generation chain and construct a new "
                "manager");
  if (needs_rebase_) mode = Mode::kFull;
  healed_this_take_ = false;
  obs::Span span("checkpoint.take", "checkpoint");
  io::ChunkSink sink(pool_);
  // The clock costs nothing unless a histogram cell is actually installed.
  const bool timed = metrics_.build_seconds.live();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const Epoch epoch = epoch_++;
  obs::CaptureProfile* prof = nullptr;
  if (opts_.profile) {
    // One profile per take: the walk writes it during capture(), the sink
    // adds the fsync slice during the synchronous append (async appends
    // accrue on the worker and merge in at flush()).
    last_profile_.reset();
    prof = &last_profile_;
  }
  flightrec_.record(obs::FlightEventType::kEpochBegin, epoch, roots.size(), 0,
                    nullptr, static_cast<std::uint8_t>(mode));
  CheckpointStats stats = capture(epoch, roots, mode, sink, prof);
  if (timed)
    metrics_.build_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  TakeResult result;
  result.epoch = epoch;
  result.bytes = sink.size();
  // Synchronous append with kWrite/kFsync attribution: the sink accrues the
  // fsync slice into `prof` while the hook is installed, and the remainder
  // of the append wall is the write stage. A healed append attributes the
  // whole episode (retries, rotation, rebase re-capture) to kWrite — heal
  // episodes are rare and the time is genuinely spent getting bytes down.
  auto append_sync = [&]() {
    if (prof == nullptr) {
      result.seq = append_healed(roots, result.epoch, mode, sink, stats);
      return;
    }
    using P = obs::CaptureProfile;
    storage_.set_profile(prof);
    const std::uint64_t fsync0 = prof->stage_ns[P::kFsync];
    const std::uint64_t a0 = obs::trace_now_ns();
    try {
      result.seq = append_healed(roots, result.epoch, mode, sink, stats);
    } catch (...) {
      storage_.set_profile(nullptr);
      throw;
    }
    storage_.set_profile(nullptr);
    const std::uint64_t elapsed = obs::trace_now_ns() - a0;
    const std::uint64_t fsync_ns = prof->stage_ns[P::kFsync] - fsync0;
    prof->stage_ns[P::kWrite] +=
        elapsed > fsync_ns ? elapsed - fsync_ns : 0;
    prof->busy_ns += elapsed;
  };
  if (async_ != nullptr) {
    // Appends are FIFO and 1:1 with epochs, so the frame will carry the
    // epoch as its sequence number.
    result.seq = result.epoch;
    bool poisoned = false;
    try {
      async_->submit(std::move(sink));
      any_submitted_ = true;
      last_submitted_ = result.epoch;
    } catch (const IoError& e) {
      if (!opts_.heal.enabled) throw;
      heal_poison(e.what());
      poisoned = true;
    }
    if (poisoned) {
      // The poison punched a hole in the incremental chain (frames were
      // lost); this epoch must restart it with a synchronous full.
      mode = Mode::kFull;
      stats = capture(epoch, roots, mode, sink, prof);
      result.bytes = sink.size();
      append_sync();
    }
  } else {
    append_sync();
  }
  (mode == Mode::kFull ? metrics_.checkpoints_full
                       : metrics_.checkpoints_incremental)
      .inc();
  (mode == Mode::kFull ? metrics_.bytes_full : metrics_.bytes_incremental)
      .inc(result.bytes);
  metrics_.objects_visited.inc(stats.objects_visited);
  metrics_.objects_recorded.inc(stats.objects_recorded);
  metrics_.objects_skipped.inc(stats.objects_visited -
                               stats.objects_recorded);
  metrics_.epoch.set(static_cast<std::int64_t>(result.epoch));
  result.mode = mode;
  result.stats = stats;
  needs_rebase_ = false;
  if (prof != nullptr) {
    publish_stage_histograms(*prof);
    using P = obs::CaptureProfile;
    flightrec_.record(
        obs::FlightEventType::kEpochEnd, result.epoch, result.bytes,
        stats.objects_recorded,
        "busy " + std::to_string(prof->busy_ns / 1000) + "us, walk " +
            std::to_string(prof->stage_ns[P::kRootWalk] / 1000) +
            "us, write " +
            std::to_string((prof->stage_ns[P::kWrite] +
                            prof->stage_ns[P::kFsync]) /
                           1000) +
            "us",
        static_cast<std::uint8_t>(mode));
  } else {
    flightrec_.record(obs::FlightEventType::kEpochEnd, result.epoch,
                      result.bytes, stats.objects_recorded, nullptr,
                      static_cast<std::uint8_t>(mode));
  }
  on_epoch_complete();
  if (span.active())
    span.note(std::string(mode == Mode::kFull ? "full" : "incremental") +
              " epoch " + std::to_string(result.epoch) + ", " +
              std::to_string(result.bytes) + " byte(s), " +
              std::to_string(stats.objects_recorded) + "/" +
              std::to_string(stats.objects_visited) + " recorded" +
              (healed_this_take_ ? ", healed" : ""));
  return result;
}

std::uint64_t CheckpointManager::append_healed(
    std::span<Checkpointable* const> roots, Epoch epoch, Mode& mode,
    io::ChunkSink& sink, CheckpointStats& stats) {
  try {
    const std::uint64_t seq = storage_.append(sink.ranges());
    note_settled(epoch);
    return seq;
  } catch (const io::CrashFault&) {
    throw;  // simulated process death: never healed, never rolled back
  } catch (const IoError& e) {
    if (!opts_.heal.enabled) throw;
    return heal_append_failure(roots, epoch, mode, sink, stats, e.what());
  }
}

std::uint64_t CheckpointManager::heal_append_failure(
    std::span<Checkpointable* const> roots, Epoch epoch, Mode& mode,
    io::ChunkSink& sink, CheckpointStats& stats,
    const std::string& first_error) {
  healed_this_take_ = true;
  last_error_ = first_error;
  clean_epochs_ = 0;
  set_health(Health::kDegraded);
  // Degraded writes are synchronous *and* durable: while the device is
  // suspect, an epoch is only reported taken once it is fsynced.
  storage_.set_durable(true);
  obs::instant("manager.degrade", "checkpoint",
               "append failed: " + first_error);
  // In-place retries first: the failed append rolled itself back, so the
  // log is still valid and the failure may have been a burst.
  for (unsigned i = 0; i < opts_.heal.append_retries; ++i) {
    flightrec_.record(obs::FlightEventType::kRetry, epoch, i + 1, 0,
                      last_error_);
    try {
      const std::uint64_t seq = storage_.append(sink.ranges());
      note_settled(epoch);
      return seq;
    } catch (const io::CrashFault&) {
      throw;
    } catch (const IoError& e) {
      last_error_ = e.what();
    }
  }
  // Rotation ladder: quarantine the generation the device keeps refusing
  // and rebase a fresh one with a full checkpoint, so no incremental chain
  // ever spans generations.
  set_health(Health::kRebasing);
  for (unsigned attempt = 0; attempt < opts_.heal.rotate_attempts;
       ++attempt) {
    obs::Span span("manager.rotate", "checkpoint");
    try {
      io::RotateResult rotated = storage_.rotate(opts_.heal.rotate_hook);
      ++rotations_;
      flightrec_.record(obs::FlightEventType::kRotation, epoch,
                        rotated.generation, rotated.bytes_quarantined,
                        rotated.quarantine_path);
      if (mode != Mode::kFull) {
        mode = Mode::kFull;
        stats = capture(epoch, roots, mode, sink);
      }
      const std::uint64_t seq = storage_.append(sink.ranges());
      if (opts_.heal.rotate_hook)
        opts_.heal.rotate_hook(io::RotateStage::kAfterRebase);
      note_settled(epoch);
      needs_rebase_ = false;
      flightrec_.record(obs::FlightEventType::kRebase, epoch, seq, 0,
                        rotated.quarantine_path);
      set_health(Health::kDegraded);
      obs::instant("manager.rebase", "checkpoint",
                   "epoch " + std::to_string(epoch) +
                       " rebased a fresh generation after quarantining " +
                       rotated.quarantine_path);
      if (span.active())
        span.note("quarantined " + rotated.quarantine_path +
                  ", rebase seq " + std::to_string(seq));
      return seq;
    } catch (const io::CrashFault&) {
      throw;
    } catch (const IoError& e) {
      last_error_ = e.what();
    }
  }
  set_health(Health::kFailed);
  // Terminal rung: serialize the event timeline next to the log before
  // throwing — the counters die with the process, the flight recording does
  // not. A dump failure must never mask the append failure being reported.
  try {
    const std::string dump_path = flightrec_path();
    flightrec_.record(obs::FlightEventType::kDump, epoch, 0, 0, dump_path);
    flightrec_.dump_to_file(dump_path);
  } catch (const Error&) {
  }
  throw IoError("checkpoint pipeline failed: append retries and " +
                std::to_string(opts_.heal.rotate_attempts) +
                " rotation attempt(s) exhausted (last error: " + last_error_ +
                ")");
}

}  // namespace ickpt::core
