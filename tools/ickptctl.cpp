// ickptctl — command-line operations on checkpoint logs.
//
//   ickptctl scan [--salvage] <log>
//                            frame-level integrity check (no type registry
//                            needed): frames, sizes, torn-tail status; with
//                            --salvage, resynchronizes past mid-log damage
//   ickptctl inspect <log>   decode records per frame (uses the built-in
//                            registry: the synth and analysis classes this
//                            repo ships; applications link their own
//                            registry and reuse core::inspect_log)
//   ickptctl verify <log>    full recovery dry-run: reports object count,
//                            roots, epoch, salvage notes — or the
//                            corruption error
//   ickptctl fsck [--repair] <log>
//                            offline chain validation without materializing
//                            objects: frame/CRC integrity, record payloads,
//                            epoch monotonicity, id referential closure,
//                            duplicate records, dangling children; --repair
//                            truncates a torn tail to the longest valid
//                            prefix (removed bytes saved to <log>.bak)
//   ickptctl compact [--retain] <log>
//                            rewrite the log (crash-atomic: temp + fsync +
//                            rename): by default to a single full checkpoint
//                            of the newest state; with --retain, to the
//                            binomial retention schedule — every retained
//                            epoch materialized as a full frame, declared in
//                            <log>.retain for fsck to audit
//   ickptctl history <log>   list every epoch recoverable from the log and
//                            its generation chain (the candidate set for
//                            recover --epoch), plus the declared retention
//                            schedule when a <log>.retain manifest exists
//   ickptctl recover --epoch <N> <log>
//                            time-travel dry-run: recover the state as of
//                            exactly epoch N (newest full <= N plus replayed
//                            deltas, walking the generation chain); a
//                            non-retained N fails naming the nearest
//                            retained neighbors
//   ickptctl health [--self-test] <log>
//                            generation-chain health: fsck every quarantined
//                            generation plus the live log, check the
//                            chain-level invariants (epoch partition, rebase
//                            fulls), and report whether the chain recovers;
//                            --self-test instead runs an in-process
//                            degrade/rotate/reheal scenario against the
//                            healing manager and exits 0/2

//   ickptctl stats [--json] [--self-test]
//                            run the built-in synthetic workload with the
//                            telemetry registry installed and print the
//                            resulting metrics (Prometheus text by default,
//                            --json for the JSON exposition); --self-test
//                            instead asserts the counters every layer must
//                            have fed and exits 0/2
//   ickptctl trace           same workload, but emit the collected spans as
//                            Chrome trace_event JSON (chrome://tracing,
//                            Perfetto)
//   ickptctl infer [--phase se|bt|et] [--self-test] [<pattern-file>]
//                            statically infer the modification pattern of an
//                            analysis phase from the bundled phase model's
//                            write sets (verify::infer_pattern), prove it
//                            with the pattern checker, compile it through
//                            the verifying gate, and report the accounting;
//                            with <pattern-file>, persist it via
//                            spec::pattern_io; --self-test asserts all three
//                            phases infer/verify/compile/round-trip cleanly
//                            and exits 0/2
//   ickptctl flightrec [--self-test] <log>
//                            print the epoch flight recorder dumped next to
//                            the log (<log>.flightrec — written automatically
//                            when a manager reaches terminal kFailed, or on
//                            demand via CheckpointManager::
//                            dump_flight_recorder); accepts the .flightrec
//                            file directly too; --self-test instead induces
//                            a rotation + rebase episode in-process, dumps
//                            the recorder, and checks the reloaded timeline
//                            reconstructs it (exits 0/2, no log file)
//   ickptctl extract [--self-test]
//                            run the whole write-set extraction proof
//                            offline: drive the real AnalysisEngine over the
//                            program_gen corpus with the WriteWitness
//                            installed, check witness ⊆ manifest, check the
//                            generated phase model against the manifests in
//                            both directions, then re-run the infer gate for
//                            every phase against that model; --self-test
//                            additionally fails on warnings (unexercised
//                            manifest entries)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/attributes.hpp"
#include "common/error.hpp"
#include "core/log_ops.hpp"
#include "core/manager.hpp"
#include "core/retention.hpp"
#include "io/byte_sink.hpp"
#include "io/data_reader.hpp"
#include "io/data_writer.hpp"
#include "io/file_io.hpp"
#include "io/frame_index.hpp"
#include "io/stable_storage.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spec/adaptive.hpp"
#include "spec/pattern_io.hpp"
#include "synth/shapes.hpp"
#include "synth/structures.hpp"
#include "synth/workload.hpp"
#include "verify/extract/extract.hpp"
#include "verify/extract/model_gen.hpp"
#include "verify/fsck.hpp"
#include "verify/infer.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

using namespace ickpt;

namespace {

core::TypeRegistry builtin_registry() {
  core::TypeRegistry registry;
  synth::register_types(registry);
  analysis::register_types(registry);
  return registry;
}

int cmd_scan(const char* path, bool salvage) {
  const io::FrameIndex scan =
      io::index_frames(path, {.salvage = salvage}, {});
  std::size_t total = 0;
  for (const io::IndexedFrame& frame : scan.frames) {
    std::printf("seq %llu @ byte %llu: %zu bytes%s\n",
                (unsigned long long)frame.seq,
                (unsigned long long)frame.offset, frame.payload_bytes,
                frame.resync ? " (resynchronized after corrupt region)" : "");
    total += frame.payload_bytes;
  }
  std::printf("%zu frame(s), %zu payload bytes, %s\n", scan.frames.size(),
              total,
              scan.clean
                  ? "clean"
                  : (scan.stop_reason + " at byte " +
                     std::to_string(scan.stop_offset))
                        .c_str());
  if (scan.regions_skipped > 0)
    std::printf("salvage: skipped %zu corrupt region(s), %llu byte(s)\n",
                scan.regions_skipped,
                (unsigned long long)scan.bytes_skipped);
  return scan.clean ? 0 : 2;
}

int cmd_inspect(const char* path) {
  auto registry = builtin_registry();
  auto report = core::inspect_log(path, registry);
  std::fputs(report.to_string().c_str(), stdout);
  return report.clean ? 0 : 2;
}

int cmd_verify(const char* path) {
  auto registry = builtin_registry();
  auto result = core::CheckpointManager::recover(path, registry);
  std::printf("recovered %zu object(s) from %zu checkpoint(s); %zu root(s); "
              "epoch %llu; log %s\n",
              result.state.by_id.size(), result.checkpoints_applied,
              result.state.roots.size(),
              (unsigned long long)result.state.epoch,
              result.log_clean ? "clean" : result.log_note.c_str());
  std::size_t dropped = result.state.prune_unreachable();
  if (dropped != 0)
    std::printf("note: %zu recovered object(s) unreachable from the roots "
                "(compact to drop them from the log)\n",
                dropped);
  return 0;
}

int cmd_fsck(const char* path, bool repair) {
  auto registry = builtin_registry();
  auto report = verify::fsck_log(path, registry);
  std::fputs(report.to_string().c_str(), stdout);
  if (!repair || report.clean()) return report.clean() ? 0 : 2;

  // Only frame-level tail/mid-log damage is repairable by truncation;
  // chain-level findings (dangling ids, type changes) are not.
  auto repaired = io::StableStorage::repair(path);
  if (repaired.repaired) {
    std::printf("repair: truncated %llu unreadable tail byte(s) (%s); "
                "%zu frame(s) kept; removed bytes saved to %s\n",
                (unsigned long long)repaired.bytes_removed,
                repaired.reason.c_str(), repaired.frames_kept,
                repaired.bak_path.c_str());
  } else {
    std::printf("repair: no unreadable tail to truncate (%s)\n",
                repaired.reason.empty() ? "log is clean"
                                        : repaired.reason.c_str());
  }
  report = verify::fsck_log(path, registry);
  std::fputs(report.to_string().c_str(), stdout);
  return report.clean() ? 0 : 2;
}

int cmd_compact(const char* path, bool retain) {
  auto registry = builtin_registry();
  core::CompactOptions copts;
  copts.policy = retain ? core::CompactPolicy::kBinomial
                        : core::CompactPolicy::kSquashAll;
  auto result = core::CheckpointManager::compact(path, registry, copts);
  std::printf("compacted %zu object(s): %zu -> %zu bytes\n", result.objects,
              result.bytes_before, result.bytes_after);
  if (retain) {
    std::printf("retained %zu epoch(s):", result.retained.size());
    for (Epoch e : result.retained)
      std::printf(" %llu", (unsigned long long)e);
    std::printf("\n");
    if (result.epochs_dropped > 0)
      std::printf("warning: %zu scheduled epoch(s) unrecoverable and "
                  "dropped\n",
                  result.epochs_dropped);
    std::printf("declared in %s\n",
                core::RetentionManifest::path_for(path).c_str());
  }
  return 0;
}

int cmd_history(const char* path) {
  const std::vector<core::HistoryEntry> entries =
      core::CheckpointManager::history(path);
  for (const core::HistoryEntry& e : entries) {
    std::printf("epoch %llu: %s, seq %llu, %zu byte(s), %s%s%s\n",
                (unsigned long long)e.epoch,
                e.mode == core::Mode::kFull ? "full" : "incremental",
                (unsigned long long)e.seq, e.bytes,
                e.live ? "live log" : e.file.c_str(),
                e.live ? "" : " (quarantined)",
                e.resync ? ", after corrupt region" : "");
  }
  std::printf("%zu epoch entr(ies) on the chain\n", entries.size());
  if (auto manifest = core::RetentionManifest::load(path)) {
    std::printf("declared retention schedule (newest %llu):",
                (unsigned long long)manifest->newest);
    for (Epoch e : manifest->epochs)
      std::printf(" %llu", (unsigned long long)e);
    std::printf("\n");
  }
  return entries.empty() ? 2 : 0;
}

int cmd_recover(const char* path, const char* epoch_flag) {
  if (epoch_flag == nullptr) {
    std::fprintf(stderr,
                 "ickptctl: recover needs --epoch <N> (use `verify` for the "
                 "newest state)\n");
    return 64;
  }
  char* end = nullptr;
  const unsigned long long target = std::strtoull(epoch_flag, &end, 10);
  if (end == epoch_flag || *end != '\0') {
    std::fprintf(stderr, "ickptctl: --epoch wants a number, got '%s'\n",
                 epoch_flag);
    return 64;
  }
  auto registry = builtin_registry();
  try {
    auto result = core::CheckpointManager::recover_to_epoch(
        path, registry, static_cast<Epoch>(target));
    std::printf("recovered epoch %llu from '%s': %zu object(s), %zu "
                "checkpoint(s) replayed (%zu delta(s) over the full), "
                "%zu root(s)%s%s\n",
                (unsigned long long)result.state.epoch,
                result.recovered_path.c_str(), result.state.by_id.size(),
                result.checkpoints_applied,
                result.checkpoints_applied > 0
                    ? result.checkpoints_applied - 1
                    : 0,
                result.state.roots.size(),
                result.log_clean ? "" : "; log ",
                result.log_clean ? "" : result.log_note.c_str());
    return 0;
  } catch (const core::EpochNotRetainedError& e) {
    std::fprintf(stderr, "ickptctl: %s\n", e.what());
    return 2;
  } catch (const CorruptionError& e) {
    std::fprintf(stderr, "ickptctl: %s\n", e.what());
    return 2;
  }
}

int cmd_health(const char* path) {
  auto registry = builtin_registry();
  verify::ChainReport chain = verify::fsck_chain(path, registry);
  std::fputs(chain.to_string().c_str(), stdout);
  try {
    auto recovered = core::CheckpointManager::recover(path, registry);
    std::printf("verdict: recoverable at epoch %llu from '%s' "
                "(%zu object(s), %zu file(s) tried)\n",
                (unsigned long long)recovered.state.epoch,
                recovered.recovered_path.c_str(),
                recovered.state.by_id.size(), recovered.generations_tried);
  } catch (const Error& e) {
    std::printf("verdict: NOT RECOVERABLE: %s\n", e.what());
    return 2;
  }
  return chain.clean() ? 0 : 2;
}

/// Remove a log and every artifact its generation chain may have left.
void remove_chain(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  std::remove((path + ".compact").c_str());
  for (unsigned n = 1; n <= 16; ++n) {
    const std::string q = io::StableStorage::quarantine_path(path, n);
    std::remove(q.c_str());
    std::remove((q + ".bak").c_str());
  }
}

core::ManagerOptions heal_opts(io::FaultPolicy* fault) {
  core::ManagerOptions mopts;
  mopts.full_interval = 3;
  mopts.fault_policy = fault;
  mopts.retry.max_attempts = 2;
  mopts.retry.initial_backoff = std::chrono::microseconds{0};
  mopts.heal.enabled = true;
  mopts.heal.reheal_after = 2;
  mopts.heal.append_retries = 1;
  mopts.heal.rotate_attempts = 3;
  return mopts;
}

/// In-process exercise of the degradation ladder: a persistent-ENOSPC
/// rotation + reheal in synchronous mode, then an async poisoning +
/// degrade-to-sync + reheal — each followed by a chain fsck and a chain
/// recovery. Exits 0 when every checkpoint survives, 2 otherwise.
int health_self_test() {
#ifdef __unix__
  const std::string pid = std::to_string(::getpid());
#else
  const std::string pid = "0";
#endif
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto make_workload = [](core::Heap& heap) {
    synth::SynthConfig config;
    config.num_structures = 16;
    config.percent_modified = 50;
    return synth::SynthWorkload(heap, config);
  };
  auto registry = builtin_registry();

  // Calibrate: where does the log stand after two clean epochs? Faults are
  // then scripted to land inside the third epoch's frame.
  const std::string path = "/tmp/ickptctl-health-" + pid + ".log";
  remove_chain(path);
  std::uint64_t size_after_two = 0;
  {
    core::Heap heap;
    synth::SynthWorkload workload = make_workload(heap);
    core::CheckpointManager manager(path, heal_opts(nullptr));
    for (int i = 0; i < 2; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    size_after_two = io::read_file(path).size();
  }

  // Scenario 1 (sync): persistent ENOSPC at epoch 2 -> in-place retries
  // exhausted -> rotation + quarantine + rebase full -> degraded; two clean
  // epochs -> rehealed; chain fscks clean and recovers the newest epoch.
  remove_chain(path);
  {
    core::Heap heap;
    synth::SynthWorkload workload = make_workload(heap);
    // 6 transient decisions: initial append (3 attempts) + one in-place
    // retry (3 attempts); the rebase append writes below the trigger.
    io::ScriptedFaultPolicy fault(io::FaultKind::kTransient,
                                  size_after_two + 10, ENOSPC, 6);
    core::CheckpointManager manager(path, heal_opts(&fault));
    for (int i = 0; i < 3; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    check(manager.health() == core::Health::kDegraded,
          "persistent ENOSPC leaves the manager degraded, not dead");
    auto status = manager.health_status();
    check(status.rotations == 1, "exactly one rotation performed");
    check(io::file_exists(io::StableStorage::quarantine_path(path, 1)),
          "damaged generation preserved in quarantine");
    for (int i = 0; i < 2; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    check(manager.health() == core::Health::kHealthy,
          "rehealed after two clean epochs");
    check(manager.health_status().reheals == 1, "one reheal recorded");
    for (int i = 0; i < 2; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
  }
  {
    verify::ChainReport chain = verify::fsck_chain(path, registry);
    check(chain.clean(), "generation chain fscks clean after rotation");
    check(chain.generations.size() == 2, "two generations on the chain");
    auto recovered = core::CheckpointManager::recover(path, registry);
    check(recovered.state.epoch == 6,
          "recovery reaches the newest epoch across the rotation");
    check(recovered.recovered_path == path,
          "recovery used the live (rebased) generation");
  }
  remove_chain(path);

  // Scenario 2 (async): a torn background append poisons the AsyncLog; the
  // manager degrades to synchronous durable writes instead of rethrowing
  // forever, rebases the chain, and re-arms async I/O after two clean
  // epochs.
  const std::string path2 = "/tmp/ickptctl-health-async-" + pid + ".log";
  remove_chain(path2);
  {
    core::Heap heap;
    synth::SynthWorkload workload = make_workload(heap);
    io::ScriptedFaultPolicy fault(io::FaultKind::kTornWrite,
                                  size_after_two + 30);
    core::ManagerOptions mopts = heal_opts(&fault);
    mopts.async_io = true;
    core::CheckpointManager manager(path2, mopts);
    bool degraded_seen = false;
    for (int i = 0; i < 7; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
      manager.flush();  // observe the poison deterministically
      degraded_seen =
          degraded_seen || manager.health() == core::Health::kDegraded;
    }
    check(degraded_seen, "async poisoning degraded to synchronous writes");
    check(manager.health() == core::Health::kHealthy,
          "rehealed back to async after two clean epochs");
    auto status = manager.health_status();
    check(status.async_armed, "async I/O re-armed by the reheal");
    check(status.lost_epochs == 1, "exactly the poisoned epoch was lost");
    check(status.rotations == 0, "poisoning healed without rotation");
  }
  {
    verify::ChainReport chain = verify::fsck_chain(path2, registry);
    check(chain.clean(), "log fscks clean after poison + rebase");
    auto recovered = core::CheckpointManager::recover(path2, registry);
    check(recovered.state.epoch == 6,
          "recovery reaches the newest epoch past the lost one");
  }
  remove_chain(path2);

  std::printf("health self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 2;
}

/// Load and print the flight-recorder image for a log (or the .flightrec
/// file itself). Exit 0 with events, 2 on an empty timeline.
int cmd_flightrec(const char* path) {
  std::string frpath = path;
  static constexpr const char kSuffix[] = ".flightrec";
  const std::size_t slen = sizeof(kSuffix) - 1;
  if (frpath.size() < slen ||
      frpath.compare(frpath.size() - slen, slen, kSuffix) != 0)
    frpath = obs::FlightRecorder::default_path(frpath);
  std::uint64_t total = 0;
  std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::load_file(frpath, &total);
  std::printf("%s: %zu event(s) retained of %llu recorded\n", frpath.c_str(),
              events.size(), (unsigned long long)total);
  std::fputs(obs::FlightRecorder::render_timeline(events, total).c_str(),
             stdout);
  return events.empty() ? 2 : 0;
}

/// End-to-end exercise of the recorder: induce the same persistent-ENOSPC
/// rotation + rebase episode the health self-test uses, dump the recorder
/// on demand, reload the file, and check the timeline reconstructs the
/// episode in order.
int flightrec_self_test() {
#ifdef __unix__
  const std::string pid = std::to_string(::getpid());
#else
  const std::string pid = "0";
#endif
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  const std::string path = "/tmp/ickptctl-flightrec-" + pid + ".log";
  remove_chain(path);
  std::remove(obs::FlightRecorder::default_path(path).c_str());

  // Calibrate the fault offset exactly as health_self_test does.
  synth::SynthConfig config;
  config.num_structures = 16;
  config.percent_modified = 50;
  std::uint64_t size_after_two = 0;
  {
    core::Heap heap;
    synth::SynthWorkload workload(heap, config);
    core::CheckpointManager manager(path, heal_opts(nullptr));
    for (int i = 0; i < 2; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    size_after_two = io::read_file(path).size();
  }
  remove_chain(path);
  {
    core::Heap heap;
    synth::SynthWorkload workload(heap, config);
    io::ScriptedFaultPolicy fault(io::FaultKind::kTransient,
                                  size_after_two + 10, ENOSPC, 6);
    core::CheckpointManager manager(path, heal_opts(&fault));
    for (int i = 0; i < 5; ++i) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    check(manager.health() == core::Health::kHealthy,
          "episode ran: degraded by ENOSPC, rehealed by clean epochs");
    manager.dump_flight_recorder();
  }

  std::uint64_t total = 0;
  std::vector<obs::FlightEvent> events;
  try {
    events = obs::FlightRecorder::load_file(
        obs::FlightRecorder::default_path(path), &total);
  } catch (const Error& e) {
    std::printf("FAIL dump did not load: %s\n", e.what());
    remove_chain(path);
    std::remove(obs::FlightRecorder::default_path(path).c_str());
    return 2;
  }
  auto count = [&events](obs::FlightEventType type) {
    std::size_t n = 0;
    for (const obs::FlightEvent& e : events)
      if (e.type == type) ++n;
    return n;
  };
  using T = obs::FlightEventType;
  check(total == events.size(), "nothing overwritten in a short episode");
  check(count(T::kEpochBegin) == 5 && count(T::kEpochEnd) == 5,
        "all five epochs bracketed by begin/end events");
  check(count(T::kFault) >= 1, "injected faults recorded");
  check(count(T::kRetry) >= 1, "in-place retry recorded");
  check(count(T::kRotation) == 1 && count(T::kRebase) == 1,
        "exactly one rotation and one rebase on the timeline");
  check(count(T::kReheal) == 1, "reheal recorded");
  check(count(T::kDump) == 1, "the on-demand dump recorded itself");
  // Order: the rotation precedes the rebase precedes the reheal.
  std::size_t i_rot = events.size(), i_reb = events.size(),
              i_heal = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == T::kRotation && i_rot == events.size()) i_rot = i;
    if (events[i].type == T::kRebase && i_reb == events.size()) i_reb = i;
    if (events[i].type == T::kReheal && i_heal == events.size()) i_heal = i;
  }
  check(i_rot < i_reb && i_reb < i_heal,
        "timeline orders rotation -> rebase -> reheal");
  std::fputs(obs::FlightRecorder::render_timeline(events, total).c_str(),
             stdout);

  remove_chain(path);
  std::remove(obs::FlightRecorder::default_path(path).c_str());
  std::printf("flightrec self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 2;
}

/// Exercise every instrumented layer in-process so stats/trace have real
/// numbers to show: checkpoint epochs through the async log onto a scratch
/// file, recovery and compaction of that file, and the spec pipeline
/// (observe -> infer -> specialize -> plan runs) over the same structures.
/// Must run with the obs registry/collector already installed — the manager
/// and executor capture their metric handles at construction.
void run_obs_workload() {
#ifdef __unix__
  const std::string pid = std::to_string(::getpid());
#else
  const std::string pid = "0";
#endif
  const std::string path = "/tmp/ickptctl-obs-" + pid + ".log";
  std::remove(path.c_str());

  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 64;
  config.percent_modified = 25;
  synth::SynthWorkload workload(heap, config);

  {
    core::ManagerOptions mopts;
    mopts.full_interval = 4;
    mopts.async_io = true;
    core::CheckpointManager manager(path, mopts);
    for (int epoch = 0; epoch < 8; ++epoch) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    manager.flush();
  }

  auto registry = builtin_registry();
  (void)core::CheckpointManager::recover(path, registry);
  (void)core::CheckpointManager::compact(path, registry);

  synth::SynthShapes shapes = synth::SynthShapes::make();
  spec::AdaptiveCheckpointer::Options aopts;
  aopts.observe_epochs = 2;
  spec::AdaptiveCheckpointer adaptive(*shapes.compound, aopts);
  for (Epoch epoch = 0; epoch < 4; ++epoch) {
    io::VectorSink sink;
    io::DataWriter writer(sink);
    adaptive.checkpoint(
        writer, epoch,
        {workload.root_bases(), workload.root_ptrs()});
    writer.flush();
    workload.mutate();
  }

  std::remove(path.c_str());
}

int cmd_stats(bool self_test, bool json) {
  obs::Registry registry;
  obs::Registry::install(&registry);
  run_obs_workload();
  obs::Snapshot snap = registry.snapshot();
  obs::Registry::install(nullptr);

  if (!self_test) {
    std::fputs(json ? snap.to_json().c_str() : snap.to_prometheus().c_str(),
               stdout);
    return 0;
  }

  // The counters every layer must have fed after one workload pass. A zero
  // here means an instrumentation hook went dead — the test suite runs this
  // as a smoke check.
  static constexpr const char* kRequired[] = {
      "ickpt_checkpoints_total",          // checkpoint layer
      "ickpt_checkpoint_objects_total",
      "ickpt_checkpoint_bytes_total",
      "ickpt_async_appends_total",        // async log layer
      "ickpt_storage_appends_total",      // storage layer
      "ickpt_storage_bytes_written_total",
      "ickpt_storage_fsyncs_total",
      "ickpt_scans_total",
      "ickpt_scan_frames_total",
      "ickpt_recoveries_total",           // recovery
      "ickpt_recover_frames_total",
      "ickpt_recover_records_total",
      "ickpt_compacts_total",
      "ickpt_infer_observations_total",   // spec pipeline
      "ickpt_adaptive_specializations_total",
      "ickpt_plan_runs_total",
      "ickpt_plan_tests_performed_total",
  };
  int failures = 0;
  for (const char* name : kRequired) {
    const std::uint64_t value = snap.counter_sum(name);
    std::printf("%-40s %llu %s\n", name, (unsigned long long)value,
                value > 0 ? "ok" : "ZERO");
    if (value == 0) ++failures;
  }
  std::printf("self-test: %zu metric(s) checked, %d dead\n",
              sizeof(kRequired) / sizeof(kRequired[0]), failures);
  return failures == 0 ? 0 : 2;
}

std::size_t plan_tests(const spec::Plan& plan) {
  std::size_t tests = 0;
  for (const spec::Op& op : plan.ops)
    if (op.code == spec::OpCode::kTestSkip) ++tests;
  return tests;
}

/// Infer, prove, compile, and (optionally) persist the static pattern for
/// one phase. Returns 0, or 2 on any failed stage.
int infer_one_phase(analysis::Phase phase, const char* phase_name,
                    const char* out_path, bool verbose) {
  verify::StaticPattern inferred = verify::infer_attributes_pattern(phase);

  // The constructor is sound by design; run the independent checker anyway
  // so the tool reports proof, not trust.
  verify::Report report =
      verify::check_attributes_pattern(phase, inferred.pattern);

  auto shapes = analysis::AnalysisShapes::make();
  spec::CompileOptions copts;
  copts.verify_pattern = true;
  spec::Plan plan =
      spec::PlanCompiler(copts).compile(*shapes.attributes, inferred.pattern);
  const std::size_t elided = plan.nodes_covered - plan_tests(plan);

  if (verbose) {
    std::printf(
        "phase %s: %zu bound position(s) (%zu written, %zu clean), "
        "%zu unbound, %zu subtree(s) skipped\n",
        phase_name, inferred.bound_positions, inferred.written_positions,
        inferred.clean_positions, inferred.unbound_positions,
        inferred.skipped_subtrees);
    std::printf("  checker: %zu error(s), %zu warning(s), %zu note(s)\n",
                report.errors(), report.warnings(), report.notes());
    std::printf("  plan: %zu op(s), %zu node(s) covered, %zu test(s), "
                "%zu test(s) elided per run\n",
                plan.ops.size(), plan.nodes_covered, plan_tests(plan),
                elided);
  }
  if (report.errors() > 0) {
    std::fputs(report.to_string().c_str(), stdout);
    return 2;
  }

  if (out_path != nullptr) {
    io::VectorSink sink;
    {
      io::DataWriter writer(sink);
      spec::save_pattern(writer, inferred.pattern, *shapes.attributes);
      writer.flush();
    }
    io::write_file(out_path, sink.bytes());
    if (verbose)
      std::printf("  wrote %zu byte(s) to %s\n", sink.size(), out_path);
  }

  // Round-trip through pattern_io: the persisted form must reproduce a
  // pattern that compiles to the identical plan.
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    spec::save_pattern(writer, inferred.pattern, *shapes.attributes);
    writer.flush();
  }
  io::DataReader reader(sink.bytes());
  spec::PatternNode loaded = spec::load_pattern(reader, *shapes.attributes);
  spec::Plan replan =
      spec::PlanCompiler(copts).compile(*shapes.attributes, loaded);
  if (replan.ops.size() != plan.ops.size() ||
      replan.nodes_covered != plan.nodes_covered) {
    std::printf("phase %s: round-tripped pattern compiled differently "
                "(%zu vs %zu op(s))\n",
                phase_name, replan.ops.size(), plan.ops.size());
    return 2;
  }
  if (elided == 0) {
    std::printf("phase %s: static pattern elided no tests\n", phase_name);
    return 2;
  }
  return 0;
}

int cmd_infer(const char* phase_flag, bool self_test, const char* out_path) {
  struct Named {
    const char* name;
    analysis::Phase phase;
  };
  static constexpr Named kPhases[] = {
      {"se", analysis::Phase::kSideEffect},
      {"bt", analysis::Phase::kBindingTime},
      {"et", analysis::Phase::kEvalTime},
  };

  if (self_test) {
    int failures = 0;
    for (const Named& named : kPhases)
      if (infer_one_phase(named.phase, named.name, nullptr, true) != 0)
        ++failures;
    std::printf("self-test: 3 phase(s) checked, %d failed\n", failures);
    return failures == 0 ? 0 : 2;
  }

  const char* name = phase_flag != nullptr ? phase_flag : "bt";
  for (const Named& named : kPhases)
    if (std::strcmp(named.name, name) == 0)
      return infer_one_phase(named.phase, named.name, out_path, true);
  std::fprintf(stderr, "ickptctl: unknown phase '%s' (se, bt, et)\n", name);
  return 64;
}

/// The three-way extraction proof, offline: manifests vs recorded witness
/// vs generated model, then the existing infer gate per phase so the output
/// shows the whole chain ending in compiled plans.
int cmd_extract(bool self_test) {
  verify::extract::CorpusOptions copts;
  auto manifests = verify::extract::engine_manifests();
  verify::extract::WitnessReport witness =
      verify::extract::record_witness(copts);

  std::printf("%-18s %-28s %-28s\n", "phase", "declared", "witnessed");
  for (const verify::extract::PhaseWitnessRow& row : witness.rows) {
    auto names = [](analysis::FieldSet set) {
      std::string out;
      for (analysis::AttrField field : set.fields()) {
        if (!out.empty()) out += ",";
        out += analysis::attr_field_name(field);
      }
      return out.empty() ? std::string("-") : out;
    };
    std::printf("%-18s %-28s %-28s\n", row.phase,
                names(row.declared).c_str(), names(row.witnessed).c_str());
  }
  std::printf("corpus: %zu program(s), %zu Attributes tree(s), "
              "%llu unattributed store(s)\n",
              witness.programs, witness.statements,
              (unsigned long long)witness.unattributed);

  verify::Report report = verify::extract::check_extraction(
      manifests, witness, verify::extract::generate_phase_model(manifests));
  std::fputs(report.to_string().c_str(), stdout);
  if (!report.clean()) return 2;
  if (self_test && report.warnings() > 0) {
    std::printf("self-test: %zu unexercised manifest entr(ies) — corpus "
                "does not prove the full declared footprint\n",
                report.warnings());
    return 2;
  }

  // The third arrow: the verified model feeds the same infer/check/compile
  // gate the tool's `infer` command runs.
  struct Named {
    const char* name;
    analysis::Phase phase;
  };
  static constexpr Named kPhases[] = {
      {"se", analysis::Phase::kSideEffect},
      {"bt", analysis::Phase::kBindingTime},
      {"et", analysis::Phase::kEvalTime},
  };
  int failures = 0;
  for (const Named& named : kPhases)
    if (infer_one_phase(named.phase, named.name, nullptr, self_test) != 0)
      ++failures;
  std::printf("extract: manifests, witness, and generated model agree; "
              "%d phase gate failure(s)\n",
              failures);
  return failures == 0 ? 0 : 2;
}

int cmd_trace() {
  obs::Registry registry;  // spans annotate from live counters; install both
  obs::Registry::install(&registry);
  obs::TraceCollector collector;
  obs::TraceCollector::install(&collector);
  run_obs_workload();
  std::vector<obs::TraceEvent> events = collector.drain();
  obs::TraceCollector::install(nullptr);
  obs::Registry::install(nullptr);
  std::fputs(obs::TraceCollector::to_chrome_json(events).c_str(), stdout);
  return events.empty() ? 2 : 0;
}

int usage() {
  std::fputs(
      "usage: ickptctl <command> [flags] <log-file>\n"
      "  scan [--salvage]   frame integrity only (no registry); --salvage\n"
      "                     resynchronizes past mid-log corruption\n"
      "  inspect            per-frame record breakdown (built-in classes)\n"
      "  verify             full recovery dry-run (salvages by default)\n"
      "  fsck [--repair]    offline chain validation: integrity, id closure,\n"
      "                     epochs (exit 0 clean, 2 on any error finding);\n"
      "                     --repair truncates a torn tail to the longest\n"
      "                     valid prefix, saving removed bytes to <log>.bak\n"
      "  compact [--retain] rewrite to a single full checkpoint; with\n"
      "                     --retain, to the binomial retention schedule\n"
      "                     (O(log n) full frames, declared in <log>.retain)\n"
      "  history            list every epoch on the log + generation chain\n"
      "                     (the candidates for recover --epoch) and the\n"
      "                     declared retention schedule, if any\n"
      "  recover --epoch <N>\n"
      "                     time-travel dry-run to exactly epoch N; a\n"
      "                     non-retained N exits 2 naming the nearest\n"
      "                     retained neighbors\n"
      "  health [--self-test]\n"
      "                     fsck the whole generation chain (quarantined\n"
      "                     predecessors + live log), check the chain-level\n"
      "                     invariants, and report whether it recovers (exit\n"
      "                     0 clean+recoverable, 2 otherwise); --self-test\n"
      "                     runs an in-process degrade/rotate/reheal exercise\n"
      "                     instead and takes no log file\n"
      "  stats [--json] [--self-test]\n"
      "                     run the built-in synth workload with telemetry\n"
      "                     installed and print the metrics (Prometheus text,\n"
      "                     or JSON with --json); --self-test asserts every\n"
      "                     layer fed its counters (exit 0 ok, 2 on a dead\n"
      "                     metric). Takes no log file.\n"
      "  trace              same workload; emit collected spans as Chrome\n"
      "                     trace_event JSON (chrome://tracing / Perfetto).\n"
      "                     Takes no log file.\n"
      "  flightrec [--self-test]\n"
      "                     print the epoch flight recorder dumped next to\n"
      "                     the log (<log>.flightrec; also accepts that file\n"
      "                     directly). Exit 0 with events, 2 on an empty\n"
      "                     timeline. --self-test induces a rotation+rebase\n"
      "                     episode in-process and checks the reloaded\n"
      "                     timeline reconstructs it; takes no log file.\n"
      "  infer [--phase se|bt|et] [--self-test] [<pattern-file>]\n"
      "                     statically infer the phase's modification pattern\n"
      "                     from the bundled model's write sets, prove it with\n"
      "                     the checker, compile it through the verifying\n"
      "                     gate; optional <pattern-file> receives the\n"
      "                     serialized pattern. --self-test checks all three\n"
      "                     phases (exit 0 ok, 2 on failure).\n"
      "  extract [--self-test]\n"
      "                     drive the real analysis engine over the bundled\n"
      "                     corpus with the write witness installed and prove\n"
      "                     manifests == witness == generated model, then run\n"
      "                     the infer gate per phase against that model;\n"
      "                     --self-test also fails on unexercised manifest\n"
      "                     entries (exit 0 ok, 2 on failure). Takes no log\n"
      "                     file.\n",
      stderr);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* command = argv[1];
  bool repair = false;
  bool salvage = false;
  bool self_test = false;
  bool json = false;
  bool retain = false;
  const char* phase = nullptr;
  const char* epoch = nullptr;
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repair") == 0) {
      repair = true;
    } else if (std::strcmp(argv[i], "--salvage") == 0) {
      salvage = true;
    } else if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--retain") == 0) {
      retain = true;
    } else if (std::strcmp(argv[i], "--phase") == 0 && i + 1 < argc) {
      phase = argv[++i];
    } else if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      epoch = argv[++i];
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  try {
    // stats/trace/infer run against built-in models; the path is optional
    // (infer) or absent (stats, trace).
    if (std::strcmp(command, "stats") == 0) return cmd_stats(self_test, json);
    if (std::strcmp(command, "trace") == 0) return cmd_trace();
    if (std::strcmp(command, "infer") == 0)
      return cmd_infer(phase, self_test, path);
    if (std::strcmp(command, "extract") == 0) return cmd_extract(self_test);
    if (std::strcmp(command, "health") == 0 && self_test)
      return health_self_test();
    if (std::strcmp(command, "flightrec") == 0 && self_test)
      return flightrec_self_test();
    if (path == nullptr) return usage();
    if (std::strcmp(command, "flightrec") == 0) return cmd_flightrec(path);
    if (std::strcmp(command, "health") == 0) return cmd_health(path);
    if (std::strcmp(command, "scan") == 0) return cmd_scan(path, salvage);
    if (std::strcmp(command, "inspect") == 0) return cmd_inspect(path);
    if (std::strcmp(command, "verify") == 0) return cmd_verify(path);
    if (std::strcmp(command, "fsck") == 0) return cmd_fsck(path, repair);
    if (std::strcmp(command, "compact") == 0)
      return cmd_compact(path, retain);
    if (std::strcmp(command, "history") == 0) return cmd_history(path);
    if (std::strcmp(command, "recover") == 0)
      return cmd_recover(path, epoch);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "ickptctl: %s\n", e.what());
    return 1;
  }
}
