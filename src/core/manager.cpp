#include "core/manager.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "core/parallel_checkpoint.hpp"
#include "core/recovery_note.hpp"
#include "core/retention.hpp"
#include "io/byte_sink.hpp"
#include "io/file_io.hpp"
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
  auto peek_all = [&next](const std::string& p) {
    for (const io::IndexedFrame& f :
         io::index_frames(p, {.salvage = true}, stream_header_probe()).frames)
      if (f.header_ok) next = std::max(next, f.epoch + 1);
  };
  peek_all(path);
  peek_all(path + ".bak");
  for (const std::string& gen : io::StableStorage::generation_chain(path)) {
    peek_all(gen);
    peek_all(gen + ".bak");
    break;  // newest first; older generations hold older epochs
  }
  return next;
}

std::string not_retained_message(const std::string& path, Epoch target,
                                 std::optional<Epoch> below,
                                 std::optional<Epoch> above) {
  std::string msg = "epoch " + std::to_string(target) +
                    " is not retained on '" + path + "'";
  if (below.has_value() && above.has_value()) {
    msg += "; nearest retained epochs: " + std::to_string(*below) +
           " (below) and " + std::to_string(*above) + " (above)";
  } else if (below.has_value()) {
    msg += "; nearest retained epoch: " + std::to_string(*below) +
           " (below), none above";
  } else if (above.has_value()) {
    msg += "; nearest retained epoch: " + std::to_string(*above) +
           " (above), none below";
  } else {
    msg += "; the log holds no parseable epochs at all";
  }
  return msg + " — run `ickptctl history` for the full retained set";
}

}  // namespace

EpochNotRetainedError::EpochNotRetainedError(const std::string& path,
                                             Epoch target,
                                             std::optional<Epoch> below,
                                             std::optional<Epoch> above)
    : CorruptionError(not_retained_message(path, target, below, above)),
      target_(target),
      below_(below),
      above_(above) {}

CheckpointManager::CheckpointManager(std::string path, ManagerOptions opts)
    : opts_(std::move(opts)),
      storage_(std::move(path), storage_options(opts_)) {
  if (opts_.full_interval == 0)
    throw Error("ManagerOptions.full_interval must be >= 1");
  if (opts_.capture_threads == 0)
    throw Error("ManagerOptions.capture_threads must be >= 1");
  if (opts_.heal.enabled && opts_.heal.rotate_attempts == 0)
    throw Error(
        "ManagerOptions.heal.rotate_attempts must be >= 1 when healing is "
        "enabled");
  // Resume epoch numbering after a restart: frames and epochs are appended
  // 1:1, so the next epoch is the next storage sequence number.
  epoch_ = storage_.next_seq();
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
    io::VectorSink& sink, obs::CaptureProfile* prof) {
  sink.clear();
  io::DataWriter writer(sink);
  // One thread hands the capture to the serial walker unchanged.
  ParallelOptions popts;
  popts.mode = mode;
  popts.cycle_guard = opts_.cycle_guard;
  popts.threads = opts_.capture_threads;
  popts.profile = prof;
  const CheckpointStats stats =
      ParallelCheckpoint::run(writer, epoch, roots, popts).totals;
  writer.flush();
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
  io::VectorSink sink;
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
      async_->submit(sink.take());
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
    io::VectorSink& sink, CheckpointStats& stats) {
  try {
    const std::uint64_t seq = storage_.append(sink.bytes());
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
    io::VectorSink& sink, CheckpointStats& stats,
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
      const std::uint64_t seq = storage_.append(sink.bytes());
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
      const std::uint64_t seq = storage_.append(sink.bytes());
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

namespace {

/// Index the log without materializing payloads (io::index_frames), under
/// the recovery's scan span and counters. Holding a few dozen bytes per
/// frame instead of payloads is what bounds recovery memory by the largest
/// frame rather than the log size.
io::FrameIndex index_log(const std::string& path,
                         const io::ScanOptions& sopts) {
  obs::Span span("storage.scan", "io");
  io::FrameIndex index = io::index_frames(path, sopts, stream_header_probe());
  // recover() used to obtain its frames through StableStorage::scan, which
  // feeds the scan counters; keep feeding them now that it streams the log
  // itself (ickptctl stats --self-test checks these stay live). Cold path:
  // per-call lookups are fine.
  obs::counter("ickpt_scans_total",
               {{"result", index.clean ? "clean" : "damaged"}})
      .inc();
  obs::counter("ickpt_scan_frames_total").inc(index.frames.size());
  if (index.regions_skipped > 0)
    obs::counter("ickpt_scan_corrupt_regions_total")
        .inc(index.regions_skipped);
  if (index.bytes_skipped > 0)
    obs::counter("ickpt_scan_bytes_skipped_total").inc(index.bytes_skipped);
  return index;
}

/// A frame that can anchor a window: its stream header parsed as full.
bool is_full(const io::IndexedFrame& f) {
  return f.header_ok && static_cast<Mode>(f.mode) == Mode::kFull;
}

/// Replay frames [begin, end) of the indexed log at `path` into a fresh
/// Recovery. Each attempt opens the log at the window's full checkpoint —
/// the offset the index recorded; a window never crosses a salvage resync,
/// so that is a valid frame boundary — and decodes one payload at a time.
/// Every frame still passes the iterator's magic and CRC tests and must be
/// the frame the index recorded at that position. On a decode failure
/// *after* the full checkpoint, trims the window at the failing frame and
/// replays — the surviving prefix is still consistent (recovery applies
/// frames in order, so frames before the bad one are unaffected by it).
/// Returns false when the full checkpoint itself is undecodable. Trims are
/// collected into `note`; `records` receives the record count of the
/// finally-applied window; `passes` counts the log opens.
bool apply_window(const std::string& path, const io::FrameIndex& index,
                  std::size_t begin, std::size_t end_limit,
                  const TypeRegistry& registry, RecoveredState& out,
                  std::size_t& applied, RecoveryNote& note,
                  std::size_t& records, std::size_t& passes) {
  std::size_t end = end_limit;
  while (end > begin) {
    Recovery recovery(registry);
    std::size_t at = begin;
    std::string what;
    bool failed = false;
    ApplyStats window_stats;
    {
      io::FrameIterator it(path, {}, index.frames[begin].offset);
      ++passes;
      io::Frame frame;
      for (; at < end; ++at) {
        const io::IndexedFrame& want = index.frames[at];
        if (!it.next(frame) || frame.offset != want.offset ||
            frame.seq != want.seq)
          throw CorruptionError("log '" + path +
                                "' changed while recovering from it: frame "
                                "seq " +
                                std::to_string(want.seq) + " at byte " +
                                std::to_string(want.offset) +
                                " no longer reads back");
        try {
          io::DataReader reader(frame.payload);
          ApplyStats frame_stats;
          recovery.apply(reader, &frame_stats);
          window_stats.records += frame_stats.records;
        } catch (const Error& e) {
          failed = true;
          what = e.what();
          break;
        }
      }
    }
    if (!failed) {
      try {
        out = recovery.finish();
        applied = end - begin;
        records = window_stats.records;
        return true;
      } catch (const Error& e) {
        // A dangling link etc. — dropping the last frame may close the
        // window again.
        failed = true;
        what = e.what();
        at = end - 1;
      }
    }
    if (at == begin) return false;
    note.trims.push_back(
        RecoveryNote::Trim{index.frames[at].seq, what, end_limit - at});
    end = at;
  }
  return false;
}

/// Recover from one log file (no generation walking); the member recover()
/// wraps this with the fall-back across quarantined generations. `shared`,
/// when given, is the index of `path` built with opts.salvage: compaction
/// builds it once for all its recoveries. Otherwise this builds its own.
RecoverResult recover_one(const std::string& path,
                          const TypeRegistry& registry, RecoverOptions opts,
                          const io::FrameIndex* shared = nullptr) {
  obs::Span span("checkpoint.recover", "recovery");

  // Pass 1: index the log without materializing payloads.
  io::FrameIndex own;
  if (shared == nullptr) own = index_log(path, {.salvage = opts.salvage});
  const io::FrameIndex& index = shared != nullptr ? *shared : own;
  std::size_t passes = shared != nullptr ? 0 : 1;

  // Time-travel: locate the newest parseable frame carrying the target
  // epoch. Its absence is an EpochNotRetainedError naming the nearest
  // parseable neighbors — never a silent fall-forward to different state.
  std::optional<std::size_t> target_at;
  if (opts.target_epoch.has_value()) {
    const Epoch target = *opts.target_epoch;
    target_at = index.find_epoch(target);
    if (!target_at.has_value())
      throw EpochNotRetainedError(path, target, index.nearest_below(target),
                                  index.nearest_above(target));
  }
  if (index.frames.empty())
    throw CorruptionError("no recoverable checkpoint in '" + path + "'" +
                          (index.clean ? "" : " (" + index.stop_reason + ")"));

  RecoverResult result;
  result.recovered_path = path;
  result.log_clean = index.clean;
  result.frames_total = index.frames.size();
  result.corrupt_regions = index.regions_skipped;
  result.bytes_skipped = index.bytes_skipped;
  result.damage_offset = index.stop_offset;

  RecoveryNote note;
  if (!index.clean) {
    note.stop_reason = index.stop_reason;
    note.damage_offset = index.stop_offset;
    note.regions_skipped = index.regions_skipped;
    note.bytes_skipped = index.bytes_skipped;
    obs::instant("recover.salvage", "recovery",
                 index.stop_reason + " at byte " +
                     std::to_string(index.stop_offset) + ", " +
                     std::to_string(index.regions_skipped) +
                     " region(s) skipped");
  }

  // Contiguous runs of frames: a corrupt region (resync frame) starts a new
  // segment. Incrementals can only be applied onto a full checkpoint from
  // the *same* segment — across a gap, deltas may be missing.
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < index.frames.size(); ++i)
    if (index.frames[i].resync) starts.push_back(i);
  starts.push_back(index.frames.size());

  // Candidate ranges [segment begin, window end), newest first. Time travel
  // has one: the target's segment, ending right after the target's frame.
  // Otherwise the newest usable window wins: every segment from the back,
  // each ending at the segment's end.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (target_at.has_value()) {
    const auto seg = std::upper_bound(starts.begin(), starts.end(), *target_at);
    ranges.emplace_back(*std::prev(seg), *target_at + 1);
  } else {
    for (std::size_t s = starts.size() - 1; s-- > 0;)
      ranges.emplace_back(starts[s], starts[s + 1]);
  }

  // Inside a range, prefer the latest full checkpoint. Pass 2..n: each
  // candidate window opens the log at its full checkpoint (frame payloads
  // decoded one at a time).
  bool recovered = false;
  bool saw_empty_window = false;
  std::size_t records_applied = 0;
  for (const auto& [seg_begin, end_limit] : ranges) {
    for (std::size_t i = end_limit; i-- > seg_begin && !recovered;) {
      if (!is_full(index.frames[i])) continue;
      std::size_t applied = 0;
      obs::Span apply_span("recover.apply_window", "recovery");
      if (!apply_window(path, index, i, end_limit, registry, result.state,
                        applied, note, records_applied, passes))
        continue;
      // The window's frames may decode but hold no object records (e.g. a
      // bare stream header): never return an empty graph as recovered
      // state. And apply_window trims damaged tails; a trimmed window no
      // longer reaches a time-travel target, and time travel must never
      // report success with a different epoch's state.
      const bool empty =
          result.state.by_id.empty() && result.state.roots.empty();
      if (empty || (target_at.has_value() &&
                    result.state.epoch != *opts.target_epoch)) {
        saw_empty_window = saw_empty_window || empty;
        result.state = RecoveredState{};
        continue;
      }
      result.checkpoints_applied = applied;
      recovered = true;
    }
    if (recovered) break;
  }
  result.stream_passes = passes;
  if (!recovered) {
    if (target_at.has_value())
      throw CorruptionError(
          "epoch " + std::to_string(*opts.target_epoch) + " is on log '" +
          path +
          "' but no undamaged window reaches it (its full-checkpoint anchor "
          "or an intervening delta is unreadable)");
    if (saw_empty_window)
      throw CorruptionError(
          "log '" + path +
          "' contains only empty checkpoint frames (stream headers with no "
          "object records) — nothing to recover; restore the log or recover "
          "from an older generation");
    throw CorruptionError("log '" + path +
                          "' contains no usable full checkpoint" +
                          (index.clean ? "" : " (" + index.stop_reason + ")"));
  }

  result.frames_dropped = result.frames_total - result.checkpoints_applied;
  note.frames_outside_window = result.frames_dropped;
  result.log_note = note.render();

  obs::counter("ickpt_recoveries_total",
               {{"log", index.clean ? "clean" : "damaged"}})
      .inc();
  // Deltas replayed on top of the window's full-checkpoint anchor. For
  // time-travel recoveries this is the quantity RetentionPolicy bounds
  // (strictly below 2*granularity(age)); for newest-state recoveries it
  // tracks full_interval. Cold path, per-call lookup.
  if (result.checkpoints_applied > 0)
    obs::histogram("ickpt_recover_replay_depth")
        .observe(static_cast<double>(result.checkpoints_applied - 1));
  obs::counter("ickpt_recover_frames_total", {{"result", "applied"}})
      .inc(result.checkpoints_applied);
  obs::counter("ickpt_recover_frames_total", {{"result", "dropped"}})
      .inc(result.frames_dropped);
  obs::counter("ickpt_recover_records_total").inc(records_applied);
  if (result.corrupt_regions > 0) {
    obs::counter("ickpt_recover_salvage_regions_total")
        .inc(result.corrupt_regions);
    obs::counter("ickpt_recover_salvage_bytes_total")
        .inc(result.bytes_skipped);
  }
  if (span.active())
    span.note(std::to_string(result.checkpoints_applied) +
              " checkpoint(s) applied, " +
              std::to_string(result.state.by_id.size()) + " object(s); " +
              note.trace_note());
  return result;
}

}  // namespace

RecoverResult CheckpointManager::recover(const std::string& path,
                                         const TypeRegistry& registry,
                                         RecoverOptions opts) {
  // Neighbor knowledge accumulated across the chain while a target epoch is
  // being hunted: the best lower neighbor is the max over files, the best
  // upper the min — so the final EpochNotRetainedError names the tightest
  // bracket any file can offer.
  std::optional<Epoch> below;
  std::optional<Epoch> above;
  bool target_found_damaged = false;
  std::exception_ptr damaged_failure;
  auto note_failure = [&](const CorruptionError& e) {
    if (const auto* missing = dynamic_cast<const EpochNotRetainedError*>(&e)) {
      if (missing->below() && (!below || *missing->below() > *below))
        below = missing->below();
      if (missing->above() && (!above || *missing->above() < *above))
        above = missing->above();
    } else if (opts.target_epoch.has_value()) {
      // The file carried the target but its window is damaged: if nothing
      // recovers, report the damage, not "not retained".
      target_found_damaged = true;
      damaged_failure = std::current_exception();
    }
  };
  std::exception_ptr live_failure;
  std::string live_error;
  try {
    return recover_one(path, registry, opts);
  } catch (const CorruptionError& e) {
    if (!opts.walk_generations) throw;
    note_failure(e);
    live_failure = std::current_exception();
    live_error = e.what();
  }
  // The live log yielded nothing usable. Rotation preserves damaged
  // generations as `<path>.quarantine.<n>`; walk them newest first — the
  // newest one that still holds a usable full window wins.
  const std::vector<std::string> chain =
      io::StableStorage::generation_chain(path);
  std::size_t tried = 1;
  for (const std::string& gen : chain) {
    ++tried;
    try {
      RecoverResult result = recover_one(gen, registry, opts);
      result.recovered_path = gen;
      result.generations_tried = tried;
      result.log_clean = false;  // the chain as a whole carried damage
      result.log_note = "live log unusable (" + live_error +
                        "); recovered from quarantined generation '" + gen +
                        "'" +
                        (result.log_note.empty() ? ""
                                                 : "; " + result.log_note);
      obs::counter("ickpt_recover_generation_fallbacks_total").inc();
      obs::instant("recover.generation_fallback", "recovery", gen);
      return result;
    } catch (const CorruptionError& e) {
      // Fall through to the next (older) generation.
      note_failure(e);
    }
  }
  if (opts.target_epoch.has_value()) {
    // The whole chain was consulted. Damage outranks absence: a file that
    // held the target but could not replay it is the actionable failure.
    if (target_found_damaged) std::rethrow_exception(damaged_failure);
    throw EpochNotRetainedError(path, *opts.target_epoch, below, above);
  }
  if (chain.empty()) std::rethrow_exception(live_failure);
  throw CorruptionError(
      "no recoverable checkpoint on the generation chain of '" + path +
      "' (" + std::to_string(tried) + " file(s) tried; live log: " +
      live_error + ")");
}

RecoverResult CheckpointManager::recover_to_epoch(const std::string& path,
                                                  const TypeRegistry& registry,
                                                  Epoch target,
                                                  RecoverOptions opts) {
  opts.target_epoch = target;
  return recover(path, registry, opts);
}

std::vector<HistoryEntry> CheckpointManager::history(const std::string& path) {
  std::vector<HistoryEntry> out;
  auto list_file = [&out](const std::string& file, bool live) {
    const io::FrameIndex index =
        io::index_frames(file, {.salvage = true}, stream_header_probe());
    // Newest frame per epoch within a file wins (a rebase can rewrite an
    // epoch); walk backwards and keep first-seen.
    std::vector<Epoch> seen;
    for (std::size_t i = index.frames.size(); i-- > 0;) {
      const io::IndexedFrame& f = index.frames[i];
      if (!f.header_ok) continue;
      if (std::find(seen.begin(), seen.end(), f.epoch) != seen.end())
        continue;
      seen.push_back(f.epoch);
      HistoryEntry entry;
      entry.epoch = f.epoch;
      entry.mode = static_cast<Mode>(f.mode);
      entry.seq = f.seq;
      entry.bytes = f.payload_bytes;
      entry.file = file;
      entry.live = live;
      entry.resync = f.resync;
      out.push_back(entry);
    }
  };
  list_file(path, true);
  for (const std::string& gen : io::StableStorage::generation_chain(path))
    list_file(gen, false);
  std::stable_sort(out.begin(), out.end(),
                   [](const HistoryEntry& a, const HistoryEntry& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     return a.live && !b.live;
                   });
  return out;
}

namespace {

/// Serialize `state` as one full-checkpoint payload carrying its epoch.
std::vector<std::uint8_t> full_payload_of(RecoveredState& state) {
  std::vector<Checkpointable*> roots;
  roots.reserve(state.roots.size());
  for (ObjectId id : state.roots) {
    Checkpointable* obj = state.find(id);
    if (obj == nullptr)
      throw CorruptionError("compaction: root vanished during recovery");
    roots.push_back(obj);
  }
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    CheckpointOptions copts;
    copts.mode = Mode::kFull;
    Checkpoint::run(writer, state.epoch, roots, copts);
    writer.flush();
  }
  return sink.take();
}

}  // namespace

CompactResult CheckpointManager::compact(const std::string& path,
                                         const TypeRegistry& registry,
                                         CompactOptions opts) {
  obs::Span span("checkpoint.compact", "checkpoint");
  const bool binomial = opts.policy == CompactPolicy::kBinomial;
  obs::Histogram compact_seconds = obs::histogram("ickpt_compact_seconds");
  const bool timed = compact_seconds.live();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();

  CompactResult result;
  result.bytes_before = io::file_size(path);

  // The replacement log is built in a sibling file and atomically published
  // over the original: temp write + fsync + rename + directory fsync. A
  // crash anywhere before the rename loses only the compaction; the
  // original log is not touched until then (recovery reads it while the
  // replacement grows).
  const std::string tmp_path = path + ".compact";
  std::remove(tmp_path.c_str());  // stale leftover of a crashed compaction
  Epoch newest = 0;
  {
    io::StableStorage fresh(tmp_path,
                            io::StorageOptions{.durable = true,
                                               .fault = opts.fault});
    if (binomial) {
      // Which epochs does the schedule want, of the ones actually here?
      // Only the live log is rewritten — quarantined generations are
      // post-mortem artifacts, not subject to retention. This one index
      // also serves every retained epoch's recovery below, each of which
      // opens the log at its own window.
      RecoverOptions ropts;
      const io::FrameIndex index = index_log(path, {.salvage = ropts.salvage});
      const std::vector<Epoch> present = index.epochs();
      if (present.empty())
        throw CorruptionError("no parseable epochs on '" + path +
                              "' to retain");
      newest = present.back();
      std::vector<Epoch> targets;
      for (Epoch e : RetentionPolicy::schedule(newest)) {
        if (std::binary_search(present.begin(), present.end(), e))
          targets.push_back(e);
      }
      // Materialize each retained epoch as a full frame with seq == epoch:
      // every retained epoch then recovers in one frame, and epoch
      // numbering (epoch_ = next_seq()) resumes correctly past the rewrite.
      // O(log n) recoveries of the unchanged original log, oldest first.
      for (Epoch e : targets) {
        ropts.target_epoch = e;
        RecoveredState state;
        try {
          state = recover_one(path, registry, ropts, &index).state;
        } catch (const CorruptionError&) {
          // A scheduled epoch whose window is damaged cannot be carried
          // forward; drop it rather than fail the whole compaction.
          ++result.epochs_dropped;
          continue;
        }
        const std::vector<std::uint8_t> payload = full_payload_of(state);
        result.objects = state.by_id.size();  // newest survives the loop
        fresh.set_next_seq(e);
        fresh.append(payload);
        result.retained.push_back(e);
      }
      if (result.retained.empty())
        throw CorruptionError("policy compaction of '" + path +
                              "': no scheduled epoch is recoverable");
    } else {
      RecoverResult recovered = recover(path, registry);
      result.objects = recovered.state.by_id.size();
      newest = recovered.state.epoch;
      const std::vector<std::uint8_t> payload =
          full_payload_of(recovered.state);
      result.bytes_after = payload.size();
      fresh.set_next_seq(newest);
      fresh.append(payload);
      result.retained.push_back(newest);
    }
  }
  io::rename_durable(tmp_path, path);
  if (binomial) {
    result.bytes_after = io::file_size(path);
    // Declare what was kept. Published after the log so a crash between the
    // two leaves a *stale* manifest — safe by schedule monotonicity (a
    // newer schedule only drops epochs the stale one already declared), and
    // exactly what fsck's retention audit checks for.
    RetentionManifest manifest;
    manifest.newest = newest;
    manifest.epochs = result.retained;
    manifest.save(path);
    obs::gauge("ickpt_retained_epochs")
        .set(static_cast<std::int64_t>(result.retained.size()));
  } else {
    // A squashed log has no history; a leftover declaration would make
    // fsck audit the fresh single-frame log against a dead schedule.
    RetentionManifest::remove(path);
  }
  obs::counter("ickpt_compacts_total",
               {{"policy", binomial ? "binomial" : "squash"}})
      .inc();
  if (timed)
    compact_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  if (span.active())
    span.note(std::to_string(result.objects) + " object(s), " +
              std::to_string(result.bytes_before) + " -> " +
              std::to_string(result.bytes_after) + " byte(s), " +
              std::to_string(result.retained.size()) +
              " epoch(s) retained");
  return result;
}

}  // namespace ickpt::core
