#include "e2ebench/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <random>
#include <set>

#include "analysis/attributes.hpp"
#include "analysis/engine.hpp"
#include "analysis/parser.hpp"
#include "analysis/program_gen.hpp"
#include "analysis/shapes.hpp"
#include "common/error.hpp"
#include "core/retention.hpp"
#include "e2ebench/session.hpp"
#include "io/crc32.hpp"
#include "io/file_io.hpp"
#include "obs/metrics.hpp"
#include "spec/compiler.hpp"
#include "synth/structures.hpp"
#include "synth/workload.hpp"

namespace e2e {

using namespace ickpt;

namespace {

/// setup_s is the median of several setups: the ones the run uses (one
/// heap, or every analysis job's fresh program and engine), then more
/// after measurement (so their object allocations cannot shift the ids,
/// and with them the varint byte counts, of the measured logs) until there
/// are at least kMinSetups and kSetupSeconds of them, at most kMaxSetups.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kSetupSeconds = 1.0;

/// Repeat `setup` (which times itself into `out`) per the rule above.
void more_setups(Samples& out, const std::function<void()>& setup) {
  while (out.n() < kMaxSetups &&
         (out.n() < kMinSetups || out.sum() < kSetupSeconds))
    setup();
}

/// Stop starting cycles past this point whatever the minimums say, so a
/// run always ends well inside its time limit.
constexpr double kHardStopSeconds = 120;

void remove_log(const std::string& path) {
  for (const std::string& p : {path, path + ".bak", path + ".compact",
                               path + ".retain", path + ".flightrec"})
    std::remove(p.c_str());
}

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<std::uint64_t>(size);
}

std::uint32_t file_crc(const std::string& path) {
  const std::vector<std::uint8_t> bytes = io::read_file(path);
  return io::Crc32::compute(bytes.data(), bytes.size());
}

std::vector<core::Checkpointable*> recovered_roots(
    const core::RecoveredState& state) {
  std::vector<core::Checkpointable*> roots;
  for (ObjectId id : state.roots) {
    roots.push_back(state.find(id));
    if (roots.back() == nullptr)
      throw CorruptionError("recovered state lacks root " + std::to_string(id));
  }
  return roots;
}

/// Counts one attempted operation. `fn` returns false when its output
/// failed verification; a throw is a failure too. Returns success.
bool op(RunRecord& rec, const std::string& name,
        const std::function<bool()>& fn) {
  ++rec.attempted;
  try {
    if (fn()) return true;
    rec.fail(name + ": verification failed");
  } catch (const std::exception& e) {
    rec.fail(name + ": " + e.what());
  }
  return false;
}

/// The obs counters the traced pass reads (null handles, reading 0, when
/// no registry is installed).
struct ObsCounters {
  obs::Counter fsyncs = obs::counter("ickpt_storage_fsyncs_total");
  obs::Counter bytes = obs::counter("ickpt_storage_bytes_written_total");
};

/// The read side every workload runs after closing its log: history(),
/// recover() of the newest state, recover_to_epoch() at `targets`, then
/// compact(). Checks each result against the digests and the expected
/// epoch set; returns the epochs the compacted log retains.
std::vector<Epoch> read_side(RunRecord& rec, Session& session,
                             const std::string& path,
                             const core::TypeRegistry& registry,
                             const std::vector<Epoch>& expected,
                             const std::vector<Epoch>& targets,
                             const std::map<Epoch, std::uint32_t>& digests,
                             core::CompactPolicy policy, bool keep_crcs) {
  auto verify = [&](const Recovered& r, std::int64_t target) {
    RecoveryFact fact;
    fact.target = target;
    fact.epoch = r.state.epoch;
    fact.digest = state_digest(recovered_roots(r.state), r.state.epoch);
    fact.passes = r.passes;
    fact.frames = r.frames;
    fact.objects = r.state.by_id.size();
    rec.recoveries.push_back(fact);
    const Epoch want = target < 0 ? expected.back() : static_cast<Epoch>(target);
    const auto it = digests.find(want);
    return fact.epoch == want && it != digests.end() &&
           it->second == fact.digest;
  };

  op(rec, "history", [&] {
    const std::uint64_t t0 = now_ns();
    const auto entries = session.history(path);
    const double ms = ms_between(t0, now_ns());
    rec.history.add(ms);
    rec.timed_ms += ms;
    std::vector<Epoch> listed;
    for (const core::HistoryEntry& e : entries) listed.push_back(e.epoch);
    return listed == expected;
  });
  op(rec, "recover", [&] {
    const std::uint64_t t0 = now_ns();
    Recovered r = session.recover(path, registry, std::nullopt);
    const double ms = ms_between(t0, now_ns());
    rec.recover.add(ms);
    rec.timed_ms += ms;
    return verify(r, -1);
  });
  for (Epoch target : targets) {
    op(rec, "recover_to_epoch " + std::to_string(target), [&] {
      const std::uint64_t t0 = now_ns();
      Recovered r = session.recover(path, registry, target);
      const double ms = ms_between(t0, now_ns());
      rec.recover_epoch.add(ms);
      rec.timed_ms += ms;
      return verify(r, static_cast<std::int64_t>(target));
    });
  }
  if (keep_crcs) rec.log_crcs.push_back(file_crc(path));

  std::vector<Epoch> retained;
  op(rec, "compact", [&] {
    const std::uint64_t t0 = now_ns();
    const core::CompactResult c = session.compact(path, registry, policy);
    const double ms = ms_between(t0, now_ns());
    rec.compact.add(ms);
    rec.timed_ms += ms;
    rec.compact_recoveries.add(static_cast<double>(
        policy == core::CompactPolicy::kBinomial
            ? c.retained.size() + c.epochs_dropped
            : 1));
    rec.compact_bytes_in.add(static_cast<double>(c.bytes_before));
    rec.compact_bytes_out.add(static_cast<double>(c.bytes_after));
    rec.compact_retained.add(static_cast<double>(c.retained.size()));
    retained = c.retained;
    // The retention self-check: a squash keeps the newest epoch alone; a
    // binomial compaction keeps exactly the RetentionPolicy schedule of the
    // epochs that were on the log.
    std::vector<Epoch> want;
    if (policy == core::CompactPolicy::kSquashAll) {
      want.push_back(expected.back());
    } else {
      for (Epoch e : core::RetentionPolicy::schedule(expected.back()))
        if (std::binary_search(expected.begin(), expected.end(), e))
          want.push_back(e);
    }
    // bytes_after counts the whole rewritten log for a binomial
    // compaction, the single full payload (without its frame header) for
    // a squash.
    const std::uint64_t log_bytes =
        c.bytes_after +
        (policy == core::CompactPolicy::kSquashAll ? kFrameHeaderBytes : 0);
    return c.epochs_dropped == 0 && c.retained == want &&
           file_size(path) == log_bytes;
  });
  if (keep_crcs) rec.log_crcs.push_back(file_crc(path));
  return retained;
}

/// Seeded time-travel targets, `count` per cycle (job). One cycle's targets
/// sit at (q + u) / count of the way through the epochs on the log, for
/// q < count. u starts at a value drawn from the seed and moves on by the
/// golden ratio's fractional part every cycle, a low-discrepancy sequence:
/// the cycles of any run together place targets evenly over every replay
/// depth, so the recover_epoch percentiles vary little from seed to seed,
/// even on synth-capture's 14 queries per run.
class TargetDraw {
 public:
  explicit TargetDraw(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    u_ = std::uniform_real_distribution<double>(0, 1)(rng);
  }

  std::vector<Epoch> next(const std::vector<Epoch>& epochs, int count) {
    std::vector<Epoch> targets;
    for (int q = 0; q < count; ++q) {
      const auto i = static_cast<std::size_t>(
          (q + u_) / count * static_cast<double>(epochs.size()));
      targets.push_back(epochs[std::min(i, epochs.size() - 1)]);
    }
    u_ = std::fmod(u_ + 0.6180339887498949, 1.0);
    return targets;
  }

 private:
  double u_;
};

bool keep_going(const RunConfig& config, const RunRecord& rec,
                std::uint64_t start_ns, std::size_t min_incr,
                std::size_t min_queries) {
  if (rec.failed > 0) return false;
  if (config.cycles > 0) return rec.cycles < config.cycles;
  const double elapsed = static_cast<double>(now_ns() - start_ns) / 1e9;
  if (elapsed >= kHardStopSeconds) return false;
  return elapsed < config.seconds || rec.take_incr.n() < min_incr ||
         rec.recover_epoch.n() < min_queries;
}

// --- synth-capture and history-service --------------------------------------

struct SynthSpec {
  const char* file;
  std::size_t structures;
  int modified_lists;
  int percent_modified;
  int epochs_per_cycle;
  core::CompactPolicy policy;
  int queries_per_cycle;
  std::size_t min_incr;
  std::size_t min_queries;
};

RunRecord run_synth(const RunConfig& config, Tracer* tracer,
                    const SynthSpec& spec) {
  RunRecord rec;
  core::TypeRegistry registry;
  synth::register_types(registry);
  synth::SynthConfig sc;
  sc.num_structures = spec.structures;
  sc.modified_lists = spec.modified_lists;
  sc.percent_modified = spec.percent_modified;
  sc.seed = config.seed;

  auto heap = std::make_unique<core::Heap>();
  std::uint64_t t0 = now_ns();
  auto work = std::make_unique<synth::SynthWorkload>(*heap, sc);
  rec.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  const std::uint64_t total_objects = work->total_objects();

  const std::string path = config.work_dir + "/" + spec.file;
  remove_log(path);
  Session session(tracer);
  ObsCounters counters;
  TargetDraw draw(config.seed);
  std::map<Epoch, std::uint32_t> digests;
  std::vector<Epoch> on_log;  // epochs the log holds before a cycle's takes
  std::uint64_t log_size = 0;
  const bool keep_crcs = config.log_crcs;

  const std::uint64_t start = now_ns();
  op(rec, "open", [&] {
    session.open_manager(path);
    return session.next_epoch() == 0;
  });
  while (rec.failed == 0) {
    const Epoch first = session.next_epoch();
    const Epoch last = first + static_cast<Epoch>(spec.epochs_per_cycle) - 1;
    std::vector<Epoch> expected = on_log;
    for (Epoch e = first; e <= last; ++e) expected.push_back(e);
    // Time-travel targets are drawn now, from the epochs history() will
    // list, so only drawn epochs (and ones compaction will keep) need a
    // digest taken as they pass.
    const std::vector<Epoch> targets =
        draw.next(expected, spec.queries_per_cycle);
    std::set<Epoch> need(targets.begin(), targets.end());
    need.insert(last);
    if (spec.policy == core::CompactPolicy::kBinomial)
      for (Epoch e = first; e <= last; ++e)
        if (core::RetentionPolicy::retained(e, last)) need.insert(e);

    const std::uint64_t fsyncs0 = counters.fsyncs.value();
    const std::uint64_t bytes0 = counters.bytes.value();
    std::uint64_t appended = 0;
    rec.begin_cycle();
    for (Epoch e = first; e <= last && rec.failed == 0; ++e) {
      t0 = now_ns();
      const std::size_t mutated = work->mutate();
      const std::uint64_t t1 = now_ns();
      Take take;
      const bool ok = op(rec, "take", [&] {
        take = session.take(work->root_bases());
        return take.epoch == e;
      });
      const std::uint64_t t2 = now_ns();
      if (!ok) break;
      ++rec.epochs;
      rec.epoch_wall_ms += ms_between(t0, t2);
      rec.timed_ms += ms_between(t0, t2);
      rec.app_work.add(ms_between(t0, t1));
      (take.mode == core::Mode::kFull ? rec.take_full : rec.take_incr)
          .add(ms_between(t1, t2));
      appended += take.bytes + kFrameHeaderBytes;
      if (rec.cycles < kByteWindowCycles) {
        rec.window_log_bytes += take.bytes + kFrameHeaderBytes;
        ++rec.window_epochs;
      }
      if (take.mode == core::Mode::kIncremental) {
        rec.incr_visited.add(static_cast<double>(take.stats.objects_visited));
        rec.incr_recorded.add(
            static_cast<double>(take.stats.objects_recorded));
        rec.incr_payload.add(static_cast<double>(take.bytes));
        // Dirty-share self-check: the capture records exactly the elements
        // the mutator dirtied and visits every object.
        if (take.stats.objects_recorded != mutated ||
            take.stats.objects_visited != total_objects)
          rec.fail("epoch " + std::to_string(e) + " recorded " +
                   std::to_string(take.stats.objects_recorded) + "/" +
                   std::to_string(take.stats.objects_visited) +
                   ", mutator dirtied " + std::to_string(mutated) + " of " +
                   std::to_string(total_objects));
      }
      if (need.count(e) != 0)
        digests[e] = state_digest(work->root_bases(), e);
    }
    if (rec.failed != 0) break;
    rec.end_cycle();
    rec.fsyncs += counters.fsyncs.value() - fsyncs0;
    rec.bytes_written += counters.bytes.value() - bytes0;
    session.close();
    log_size += appended;
    if (file_size(path) != log_size)
      rec.fail("log holds " + std::to_string(file_size(path)) +
               " bytes, frames account for " + std::to_string(log_size));

    on_log = read_side(rec, session, path, registry, expected, targets,
                       digests, spec.policy, keep_crcs);
    log_size = file_size(path);
    ++rec.cycles;
    if (!keep_going(config, rec, start, spec.min_incr, spec.min_queries))
      break;
    op(rec, "reopen", [&] {
      t0 = now_ns();
      session.open_manager(path);
      const double ms = ms_between(t0, now_ns());
      rec.reopen.add(ms);
      rec.timed_ms += ms;
      return session.next_epoch() == last + 1;
    });
  }
  session.close();
  // The configured dirty share, checked over the whole run: each compound
  // holds 1 + 5 lists x list_length objects, of which modified_lists lists
  // are dirtied at percent_modified. Sampling noise is far below 10%.
  const double configured =
      spec.modified_lists * sc.list_length * spec.percent_modified / 100.0 /
      (1.0 + synth::Compound::kLists * sc.list_length);
  const double measured =
      rec.incr_visited.sum() > 0
          ? rec.incr_recorded.sum() / rec.incr_visited.sum()
          : configured;
  if (std::abs(measured - configured) > 0.1 * configured)
    rec.fail("recorded/visited " + std::to_string(measured) +
             " is not the configured dirty share " + std::to_string(configured));
  rec.peak_rss_mb = peak_rss_mb();
  work.reset();
  heap.reset();
  more_setups(rec.setup_s, [&] {
    core::Heap extra_heap;
    t0 = now_ns();
    synth::SynthWorkload extra(extra_heap, sc);
    rec.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  });
  remove_log(path);
  return rec;
}

// --- analysis-phases ---------------------------------------------------------
//
// Appends are buffered, not fsynced: on a shared VM one append+fsync swings
// between 0.17 and 0.54 ms at p90 from one 4-second window to the next, so
// a per-frame fsync would make every pause metric of this workload measure
// the host's disk, not the checkpoint (README.md, "Workloads").

struct AnalysisApp {
  std::unique_ptr<analysis::Program> program;
  core::Heap heap;
  std::unique_ptr<analysis::AnalysisEngine> engine;

  explicit AnalysisApp(const std::string& source)
      : program(analysis::parse_program(source)),
        engine(std::make_unique<analysis::AnalysisEngine>(*program, heap)) {}
};

struct PhasePlans {
  analysis::AnalysisShapes shapes = analysis::AnalysisShapes::make();
  spec::PlanCompiler compiler;
  spec::Plan se = compile(analysis::Phase::kSideEffect);
  spec::Plan bt = compile(analysis::Phase::kBindingTime);
  spec::Plan et = compile(analysis::Phase::kEvalTime);
  spec::PlanExecutor se_exec{se};
  spec::PlanExecutor bt_exec{bt};
  spec::PlanExecutor et_exec{et};

  spec::Plan compile(analysis::Phase phase) const {
    return compiler.compile(*shapes.attributes,
                            analysis::make_phase_pattern(phase));
  }
};

RunRecord run_analysis(const RunConfig& config, Tracer* tracer) {
  RunRecord rec;
  core::TypeRegistry registry;
  analysis::register_types(registry);
  const int queries_per_job = config.tiny ? 2 : 4;
  const std::size_t min_incr = config.tiny ? 0 : 100;

  std::uint64_t t0 = now_ns();
  std::string source = analysis::generate_image_program();
  auto app = std::make_unique<AnalysisApp>(source);
  auto plans = std::make_unique<PhasePlans>();
  rec.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);

  const std::string path = config.work_dir + "/analysis-phases.log";
  Session session(tracer);
  ObsCounters counters;
  TargetDraw draw(config.seed);
  const bool keep_crcs = config.log_crcs;

  const std::uint64_t start = now_ns();
  while (rec.failed == 0) {
    if (rec.cycles > 0) {
      t0 = now_ns();
      auto fresh = std::make_unique<AnalysisApp>(source);
      rec.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      app = std::move(fresh);
    }
    analysis::AnalysisEngine& engine = *app->engine;
    remove_log(path);
    std::map<Epoch, std::uint32_t> digests;
    std::vector<Epoch> expected;
    const std::uint64_t fsyncs0 = counters.fsyncs.value();
    const std::uint64_t bytes0 = counters.bytes.value();
    std::uint64_t appended = 0;

    auto account = [&](const Take& take, double pause_ms) {
      (take.mode == core::Mode::kFull ? rec.take_full : rec.take_incr)
          .add(pause_ms);
      if (take.mode == core::Mode::kIncremental)
        rec.plan_payload.add(static_cast<double>(take.bytes));
      appended += take.bytes + kFrameHeaderBytes;
      if (rec.cycles < kByteWindowCycles) {
        rec.window_log_bytes += take.bytes + kFrameHeaderBytes;
        ++rec.window_epochs;
      }
      expected.push_back(take.epoch);
      ++rec.epochs;
    };

    op(rec, "open", [&] {
      session.open_storage(path);
      return session.next_epoch() == 0;
    });
    rec.begin_cycle();
    op(rec, "take_full", [&] {
      t0 = now_ns();
      const Take take = session.take_full(engine.attr_bases());
      const double ms = ms_between(t0, now_ns());
      rec.epoch_wall_ms += ms;
      rec.timed_ms += ms;
      account(take, ms);
      digests[take.epoch] = state_digest(engine.attr_bases(), take.epoch);
      return take.epoch == 0;
    });

    // One specialized incremental per fixpoint iteration. An epoch is the
    // iteration's own work plus its checkpoint; the digest taken after it
    // is excluded by restarting the clock once it is done.
    std::uint64_t last_mark = now_ns();
    auto hook_for = [&](const spec::PlanExecutor& exec) {
      return [&](int) {
        if (rec.failed != 0) return;
        const std::uint64_t t_iter = now_ns();
        op(rec, "take_plan", [&] {
          const Take take = session.take_plan(engine.attr_ptrs(), exec);
          const std::uint64_t t_take = now_ns();
          engine.reset_flags();
          const std::uint64_t t_done = now_ns();
          rec.app_work.add(ms_between(last_mark, t_iter));
          rec.epoch_wall_ms += ms_between(last_mark, t_done);
          rec.timed_ms += ms_between(last_mark, t_done);
          account(take, ms_between(t_iter, t_take));
          digests[take.epoch] = state_digest(engine.attr_bases(), take.epoch);
          return take.epoch == expected.size() - 1;
        });
        last_mark = now_ns();
      };
    };
    last_mark = now_ns();
    engine.run_side_effect(hook_for(plans->se_exec));
    last_mark = now_ns();
    engine.run_binding_time(analysis::default_bta_config(),
                            hook_for(plans->bt_exec));
    last_mark = now_ns();
    engine.run_eval_time(hook_for(plans->et_exec));
    if (rec.failed != 0) break;
    rec.end_cycle();
    rec.fsyncs += counters.fsyncs.value() - fsyncs0;
    rec.bytes_written += counters.bytes.value() - bytes0;
    session.close();
    if (file_size(path) != appended)
      rec.fail("log holds " + std::to_string(file_size(path)) +
               " bytes, frames account for " + std::to_string(appended));

    const std::vector<Epoch> targets = draw.next(expected, queries_per_job);
    read_side(rec, session, path, registry, expected, targets, digests,
              core::CompactPolicy::kSquashAll, keep_crcs);
    // The restart an application pays before its next take on this log.
    op(rec, "reopen", [&] {
      t0 = now_ns();
      session.open_manager(path);
      const double ms = ms_between(t0, now_ns());
      rec.reopen.add(ms);
      rec.timed_ms += ms;
      const bool ok = session.next_epoch() == expected.back() + 1;
      session.close();
      return ok;
    });
    ++rec.cycles;
    if (!keep_going(config, rec, start, min_incr, 0)) break;
  }
  session.close();
  rec.peak_rss_mb = peak_rss_mb();
  app.reset();
  plans.reset();
  more_setups(rec.setup_s, [&] {
    t0 = now_ns();
    std::string extra_source = analysis::generate_image_program();
    AnalysisApp extra(extra_source);
    PhasePlans extra_plans;
    rec.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  });
  if (obs::Registry* registry_installed = obs::Registry::installed()) {
    const obs::Snapshot snap = registry_installed->snapshot();
    rec.plan_tests_elided = snap.counter_sum("ickpt_plan_tests_elided_total");
    rec.plan_tests_performed =
        snap.counter_sum("ickpt_plan_tests_performed_total");
  }
  remove_log(path);
  return rec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "synth-capture", "analysis-phases", "history-service"};
  return names;
}

RunRecord run_workload(const RunConfig& config, Tracer* tracer) {
  const bool tiny = config.tiny;
  if (config.workload == "synth-capture") {
    // The paper's section 5 heap: 20,000 compounds x 5 lists x 5 elements
    // of 10 ints (520k objects, a 26 MB full checkpoint, far past L2);
    // 25% of list 0 dirty per epoch, so recorded/visited is ~0.048.
    return run_synth(config, tracer,
                     SynthSpec{.file = "synth-capture.log",
                               .structures = tiny ? 200u : 20000u,
                               .modified_lists = 1,
                               .percent_modified = 25,
                               .epochs_per_cycle = 16,
                               .policy = core::CompactPolicy::kSquashAll,
                               .queries_per_cycle = 2,
                               .min_incr = tiny ? 0u : 100u,
                               .min_queries = 0});
  }
  if (config.workload == "history-service") {
    // A service keeping a long, bounded history: 1,000 compounds (26k
    // objects, 1.3 MB full), 5% of elements dirty per epoch, binomial
    // retention. Appends are synchronous: with the async writer on a
    // second vCPU, the pause tail followed the host's scheduling of that
    // vCPU (README.md, "Workloads").
    return run_synth(config, tracer,
                     SynthSpec{.file = "history-service.log",
                               .structures = tiny ? 50u : 1000u,
                               .modified_lists = synth::Compound::kLists,
                               .percent_modified = 5,
                               .epochs_per_cycle = tiny ? 32 : 128,
                               .policy = core::CompactPolicy::kBinomial,
                               .queries_per_cycle = tiny ? 4 : 13,
                               .min_incr = tiny ? 0u : 100u,
                               .min_queries = tiny ? 0u : 100u});
  }
  if (config.workload == "analysis-phases") return run_analysis(config, tracer);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace e2e
