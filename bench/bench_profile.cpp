// Capture profiler harness: where does a checkpoint's time actually go?
//
// Grid: engine in {serial, parallel x threads {2,4,8}} x structures in
// {N/4, N} x mode {full, incr@25%}. Every grid point runs the profiled
// capture path (CheckpointOptions/ParallelOptions::profile) and reports the
// per-stage attribution of the final rep next to the usual timing stats:
// root walk, dirty test, serialize, claim arbitration, merge — plus the
// contention counters (claim CAS retries, visited-set probes). Both engines
// write into a ChunkSink whose pool lives across the reps, as a manager's
// takes do. Rows land in BENCH_profile.json (override with
// ICKPT_BENCH_JSON) with the raw per-stage nanoseconds.
//
// The harness also certifies the profiler itself: stage times are
// attributed with a mark-based scheme whose residual (root walk) makes the
// stages sum to the busy time by construction, so `sum(stage_ns)` must land
// within 10% of `busy_ns` for every row — serial and sharded — and every
// row's timing must be ordered, best <= p50 <= p95 <= max. `--smoke` runs a
// reduced grid, enforces both invariants, re-parses the emitted JSON with
// an independent parser, and exits non-zero on any violation; the test
// suite runs it as the `profile`-labeled smoke test.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/parallel_checkpoint.hpp"
#include "obs/profile.hpp"
#include "tests/json_lite.hpp"

using namespace ickpt;
using namespace ickpt::bench;

namespace {

struct ProfiledRun {
  TimingStats stats;
  std::size_t bytes = 0;
  /// Attribution of the final rep (one epoch's capture; the profile is
  /// reset per rep so stages never mix epochs).
  obs::CaptureProfile profile;
};

/// threads == 0 runs the serial generic driver; otherwise the sharded one.
ProfiledRun measure_profiled(synth::SynthWorkload& workload, core::Mode mode,
                             unsigned threads,
                             const std::vector<bool>& flags) {
  ProfiledRun out;
  io::ChunkPool pool;
  io::ChunkSink sink(pool);
  auto body = [&] {
    out.profile.reset();
    sink.clear();
    if (threads == 0) {
      io::DataWriter writer(sink);
      core::CheckpointOptions opts;
      opts.mode = mode;
      opts.profile = &out.profile;
      core::Checkpoint::run(writer, 0, workload.root_bases(), opts);
      writer.flush();
    } else {
      core::ParallelOptions opts;
      opts.mode = mode;
      opts.threads = threads;
      opts.profile = &out.profile;
      core::ParallelCheckpoint::run(sink, 0, workload.root_bases(), opts);
    }
    out.bytes = sink.size();
  };
  out.stats = time_stats([&] { workload.restore_flags(flags); }, body);
  return out;
}

std::string fmt_pct(std::uint64_t part, std::uint64_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                       static_cast<double>(whole));
  return buf;
}

/// The raw attribution BENCH_profile.json carries next to each row's timing.
JsonReport::Fields attribution(const obs::CaptureProfile& p) {
  using P = obs::CaptureProfile;
  JsonReport::Fields fields;
  for (int s = 0; s < P::kStageCount; ++s)
    fields.emplace_back(
        std::string(P::stage_name(static_cast<P::Stage>(s))) + "_ns",
        p.stage_ns[s]);
  fields.insert(fields.end(),
                {{"busy_ns", p.busy_ns},
                 {"stage_sum_ns", p.stage_total_ns()},
                 {"objects", p.objects},
                 {"records", p.records},
                 {"shards", p.shards},
                 {"visited_probes", p.visited_probes},
                 {"claim_cas_retries", p.claim_cas_retries}});
  return fields;
}

/// The profiler's core contract: the mark-based attribution makes the
/// stages account for the busy time. 10% slack absorbs clock-read overhead
/// between marks; anything beyond that means a stage went unattributed.
bool check_sum_invariant(const char* config, const obs::CaptureProfile& p) {
  const auto sum = static_cast<double>(p.stage_total_ns());
  const auto busy = static_cast<double>(p.busy_ns);
  if (busy <= 0) {
    std::printf("FAIL %s: busy_ns == 0 (profiler never engaged)\n", config);
    return false;
  }
  const double ratio = sum / busy;
  if (std::fabs(ratio - 1.0) > 0.10) {
    std::printf("FAIL %s: stage sum %.0fns vs busy %.0fns (ratio %.3f, "
                "tolerance 10%%)\n",
                config, sum, busy, ratio);
    return false;
  }
  return true;
}

/// The harness's own contract: p50/p95 are order statistics of the reps,
/// so they can never fall below the best rep, above the worst, or out of
/// order.
bool check_order_invariant(const char* config, const TimingStats& t) {
  if (t.best <= t.p50 && t.p50 <= t.p95 && t.p95 <= t.max) return true;
  std::printf("FAIL %s: best %.9g s, p50 %.9g s, p95 %.9g s, max %.9g s out "
              "of order\n",
              config, t.best, t.p50, t.p95, t.max);
  return false;
}

/// Re-parse the emitted report with the independent json_lite parser and
/// check every row carries the attribution schema.
bool check_report_json(const std::string& text, std::size_t expect_rows) {
  try {
    testjson::ValuePtr doc = testjson::parse(text);
    if (!doc->is_array() || doc->array.size() != expect_rows) {
      std::printf("FAIL report: expected an array of %zu row(s)\n",
                  expect_rows);
      return false;
    }
    using P = obs::CaptureProfile;
    for (const testjson::ValuePtr& row : doc->array) {
      (void)row->at("config").str();
      (void)row->at("best_s").num();
      for (int s = 0; s < P::kStageCount; ++s)
        (void)row->at(std::string(P::stage_name(static_cast<P::Stage>(s))) +
                      "_ns")
            .num();
      (void)row->at("busy_ns").num();
      (void)row->at("stage_sum_ns").num();
    }
    return true;
  } catch (const std::exception& e) {
    std::printf("FAIL report: %s\n", e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  if (smoke) {
    // A ctest-sized run: small graph, few reps, one thread count — enough
    // to engage both engines and every stage the capture path can hit.
    setenv("ICKPT_BENCH_STRUCTURES", "2000", /*overwrite=*/0);
    setenv("ICKPT_BENCH_REPS", "3", /*overwrite=*/0);
  }
  setenv("ICKPT_BENCH_JSON", "BENCH_profile.json", /*overwrite=*/0);

  print_header("Capture profiler: per-stage attribution, serial vs sharded");
  std::printf("structures=%zu reps=%d%s\n\n", bench_structures(), bench_reps(),
              smoke ? " (smoke)" : "");
  print_row({"structs", "mode", "engine", "best", "walk", "dirty", "serlz",
             "claim", "merge", "mwait", "sum/busy", "casretry"},
            10);

  JsonReport& report = JsonReport::instance();
  int failures = 0;
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{2} : std::vector<unsigned>{2, 4, 8};

  for (std::size_t structures :
       {bench_structures() / 4, bench_structures()}) {
    if (structures == 0) continue;
    synth::SynthConfig config;
    config.num_structures = structures;
    core::Heap heap;
    synth::SynthWorkload workload(heap, config);

    struct Case {
      core::Mode mode;
      const char* name;
      int percent;
    };
    for (const Case& c : {Case{core::Mode::kFull, "full", 100},
                          Case{core::Mode::kIncremental, "incr", 25}}) {
      workload.reset_flags();
      config.percent_modified = c.percent;
      workload.mutate();
      auto flags = workload.save_flags();

      std::vector<unsigned> engines = {0u};
      engines.insert(engines.end(), thread_counts.begin(),
                     thread_counts.end());
      for (unsigned threads : engines) {
        ProfiledRun run = measure_profiled(workload, c.mode, threads, flags);
        using P = obs::CaptureProfile;
        const P& p = run.profile;
        const std::string engine =
            threads == 0 ? "serial" : "par-" + std::to_string(threads);
        const std::string cfg = "structures=" + std::to_string(structures) +
                                " mode=" + c.name + " engine=" + engine;
        char ratio[16];
        std::snprintf(ratio, sizeof(ratio), "%.3f",
                      p.busy_ns == 0
                          ? 0.0
                          : static_cast<double>(p.stage_total_ns()) /
                                static_cast<double>(p.busy_ns));
        print_row({std::to_string(structures), c.name, engine,
                   fmt_ms(run.stats.best),
                   fmt_pct(p.stage_ns[P::kRootWalk], p.busy_ns),
                   fmt_pct(p.stage_ns[P::kDirtyTest], p.busy_ns),
                   fmt_pct(p.stage_ns[P::kSerialize], p.busy_ns),
                   fmt_pct(p.stage_ns[P::kClaim], p.busy_ns),
                   fmt_pct(p.stage_ns[P::kMerge], p.busy_ns),
                   fmt_pct(p.stage_ns[P::kMergeWait], p.busy_ns), ratio,
                   std::to_string(p.claim_cas_retries)},
                  10);
        report.add("profile", cfg, run.stats, run.bytes,
                   attribution(run.profile));
        if (!check_sum_invariant(cfg.c_str(), p)) ++failures;
        if (!check_order_invariant(cfg.c_str(), run.stats)) ++failures;
      }
    }
  }

  if (!report.write()) {
    std::printf("FAIL could not write %s\n", std::getenv("ICKPT_BENCH_JSON"));
    ++failures;
  }
  if (!check_report_json(report.render(), report.size())) ++failures;

  if (smoke)
    std::printf("smoke: %zu row(s), %d failure(s)\n", report.size(),
                failures);
  else
    std::printf(
        "\nexpected shape: serialize dominates full mode; the dirty test's\n"
        "share grows in incremental mode; claim/merge stay small; sum/busy\n"
        "within 1.0 +- 0.10 for every row (the profiler's own invariant).\n");
  return failures == 0 ? 0 : 1;
}
