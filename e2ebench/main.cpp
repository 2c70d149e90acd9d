// End-to-end checkpoint benchmark: drives one workload through the public
// API onto real files, checks every recovered state, and prints the metrics
// by name with unit and n. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics untraced (--trace 0) or the per-layer metrics
// of a traced replay (--trace 1). run.py wraps this binary; see README.md.
//
//   e2e_bench --workload synth-capture --seed 1 --seconds 20 --trace 0
//             --work-dir DIR [--cycles N] [--tiny] [--log-crcs]
//             [--state-out FILE] [--spans-out FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/harness.hpp"
#include "e2ebench/workloads.hpp"
#include "obs/metrics.hpp"

using namespace e2e;

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;
};

/// One timing row: exact n, min, p50, p90 and max of raw samples.
struct TimingRow {
  std::string name;
  std::string unit;
  std::size_t n;
  double min, p50, p90, max;
};

TimingRow timing_row(const std::string& name, const Samples& s,
                     const std::string& unit) {
  return {name,         unit, s.n(), s.min(), s.percentile(50),
          s.percentile(90), s.max()};
}

/// The end-to-end metrics (untraced run).
std::vector<Metric> end_to_end(const RunRecord& r) {
  auto pct = [](const Samples& s, double p) { return s.percentile(p); };
  return {
      {"take_incr_p50_ms", pct(r.take_incr, 50), "ms", r.take_incr.n()},
      {"take_incr_p90_ms", pct(r.take_incr, 90), "ms", r.take_incr.n()},
      {"take_full_p50_ms", pct(r.take_full, 50), "ms", r.take_full.n()},
      {"epochs_per_s", pct(r.epoch_rate, 50), "1/s", r.epoch_rate.n()},
      {"log_bytes_per_epoch",
       r.window_epochs > 0 ? static_cast<double>(r.window_log_bytes) /
                                 static_cast<double>(r.window_epochs)
                           : 0,
       "B", r.window_epochs},
      {"recover_ms", pct(r.recover, 50), "ms", r.recover.n()},
      {"reopen_ms", pct(r.reopen, 50), "ms", r.reopen.n()},
      {"recover_epoch_p50_ms", pct(r.recover_epoch, 50), "ms",
       r.recover_epoch.n()},
      {"recover_epoch_p90_ms", pct(r.recover_epoch, 90), "ms",
       r.recover_epoch.n()},
      {"history_ms", pct(r.history, 50), "ms", r.history.n()},
      {"compact_ms", pct(r.compact, 50), "ms", r.compact.n()},
      {"peak_rss_mb", r.peak_rss_mb, "MB", 1},
      {"setup_s", pct(r.setup_s, 50), "s", r.setup_s.n()},
  };
}

/// Per-recovery sums over the replay's spans, keyed by operation id.
struct RecoverySpans {
  Samples scan_ms, skip_ms, apply_ms;
  double scan_total_ms = 0;
  std::uint64_t scan_bytes = 0;
};

RecoverySpans recovery_spans(const Tracer& tracer) {
  struct Acc {
    double scan = 0, skip = 0, apply = 0;
  };
  std::map<std::uint64_t, Acc> by_op;
  RecoverySpans out;
  for (const SpanRecord& s : tracer.spans()) {
    const double ms = ms_between(s.start_ns, s.end_ns);
    if (s.name == "io.scan.index" || s.name == "io.scan.next") {
      by_op[s.op].scan += ms;
      out.scan_total_ms += ms;
      out.scan_bytes += s.bytes;
      if (s.tag == "skip") by_op[s.op].skip += ms;
    } else if (s.name == "core.recovery.apply") {
      by_op[s.op].apply += ms;
    }
  }
  for (const auto& [op, acc] : by_op) {
    out.scan_ms.add(acc.scan);
    out.skip_ms.add(acc.skip);
    out.apply_ms.add(acc.apply);
  }
  return out;
}

double mb_per_s(std::uint64_t bytes, double ms) {
  return ms > 0 ? static_cast<double>(bytes) / 1e6 / (ms / 1e3) : 0;
}

/// Per-layer metrics of the traced replay. `in_json` marks the ones listed
/// in BENCHMARK.json; the rest are layer times some workload never calls
/// (they read 0 with n=0 there) and are printed only.
struct LayerMetric {
  Metric m;
  bool in_json;
};

std::vector<LayerMetric> per_layer(const RunRecord& r, const Tracer& t,
                                   bool analysis) {
  const Samples cap_full = t.durations("core.capture", "full");
  const Samples cap_incr = t.durations("core.capture", "incr");
  const Samples plan = t.durations("spec.plan");
  const Samples app_full = t.durations("io.append", "full");
  const Samples app_incr = t.durations("io.append", "incr");
  const Samples open = t.durations("io.open", "reopen");
  const Samples finish = t.durations("core.recovery.finish");
  const RecoverySpans rs = recovery_spans(t);
  std::uint64_t append_bytes = 0;
  for (const SpanRecord& s : t.spans())
    if (s.name == "io.append") append_bytes += s.bytes;
  Samples passes, frames, objects;
  for (const RecoveryFact& f : r.recoveries) {
    passes.add(static_cast<double>(f.passes));
    frames.add(static_cast<double>(f.frames));
    objects.add(static_cast<double>(f.objects));
  }
  const double epochs = static_cast<double>(r.epochs);
  const std::uint64_t plan_tests =
      r.plan_tests_elided + r.plan_tests_performed;
  auto p50 = [](const Samples& s) { return s.percentile(50); };
  return {
      {{"core.capture.incr_ms", p50(cap_incr), "ms", cap_incr.n()}, false},
      {{"core.capture.full_ms", p50(cap_full), "ms", cap_full.n()}, true},
      {{"core.capture.visited", r.incr_visited.mean(), "count",
        r.incr_visited.n()},
       true},
      {{"core.capture.recorded", r.incr_recorded.mean(), "count",
        r.incr_recorded.n()},
       true},
      {{"core.capture.record_ratio",
        r.incr_visited.sum() > 0
            ? r.incr_recorded.sum() / r.incr_visited.sum()
            : 0,
        "ratio", r.incr_visited.n()},
       true},
      {{"core.capture.payload_bytes", r.incr_payload.mean(), "B",
        r.incr_payload.n()},
       true},
      {{"spec.plan.incr_ms", p50(plan), "ms", plan.n()}, false},
      {{"spec.plan.payload_bytes", r.plan_payload.mean(), "B",
        r.plan_payload.n()},
       true},
      {{"spec.plan.tests_elided_ratio",
        plan_tests > 0 ? static_cast<double>(r.plan_tests_elided) /
                             static_cast<double>(plan_tests)
                       : 0,
        "ratio", plan_tests},
       true},
      {{"io.append.full_ms", p50(app_full), "ms", app_full.n()}, true},
      {{"io.append.incr_ms", p50(app_incr), "ms", app_incr.n()}, true},
      {{"io.append.mb_per_s",
        mb_per_s(append_bytes, app_full.sum() + app_incr.sum()), "MB/s",
        app_full.n() + app_incr.n()},
       true},
      {{"io.append.fsyncs_per_epoch",
        epochs > 0 ? static_cast<double>(r.fsyncs) / epochs : 0, "count",
        r.epochs},
       true},
      {{"io.append.bytes_per_epoch",
        epochs > 0 ? static_cast<double>(r.bytes_written) / epochs : 0, "B",
        r.epochs},
       true},
      {{"io.open_ms", p50(open), "ms", open.n()}, true},
      {{"io.scan.ms", p50(rs.scan_ms), "ms", rs.scan_ms.n()}, true},
      {{"io.scan.mb_per_s", mb_per_s(rs.scan_bytes, rs.scan_total_ms), "MB/s",
        rs.scan_ms.n()},
       true},
      {{"io.scan.passes", passes.mean(), "count", passes.n()}, true},
      {{"io.scan.skip_ms", rs.skip_ms.mean(), "ms", rs.skip_ms.n()}, false},
      {{"core.recovery.apply_ms", p50(rs.apply_ms), "ms", rs.apply_ms.n()},
       true},
      {{"core.recovery.finish_ms", p50(finish), "ms", finish.n()}, true},
      {{"core.recovery.frames", frames.mean(), "count", frames.n()}, true},
      {{"core.recovery.objects", objects.mean(), "count", objects.n()}, true},
      {{"core.compact.recoveries", r.compact_recoveries.mean(), "count",
        r.compact_recoveries.n()},
       true},
      {{"core.compact.bytes_in", r.compact_bytes_in.mean(), "B",
        r.compact_bytes_in.n()},
       true},
      {{"core.compact.bytes_out", r.compact_bytes_out.mean(), "B",
        r.compact_bytes_out.n()},
       true},
      {{"core.compact.retained", r.compact_retained.mean(), "count",
        r.compact_retained.n()},
       true},
      {{"synth.mutate_ms", analysis ? 0 : p50(r.app_work), "ms",
        analysis ? 0 : r.app_work.n()},
       false},
      {{"analysis.iteration_ms", analysis ? p50(r.app_work) : 0, "ms",
        analysis ? r.app_work.n() : 0},
       false},
  };
}

/// Everything run.py compares between the untraced and traced passes and
/// the self-test checks, as JSON.
void write_state(const std::string& path, const RunRecord& r,
                 const std::vector<Metric>& metrics,
                 const std::vector<TimingRow>& timings) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"cycles\": %ld, \"epochs\": %llu, \"timed_ms\": %.6f,\n",
               r.cycles, static_cast<unsigned long long>(r.epochs),
               r.timed_ms);
  std::fprintf(f, " \"attempted\": %llu, \"failed\": %llu,\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, " \"metrics\": [");
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "%s[\"%s\", %.17g, \"%s\", %zu]", i == 0 ? "" : ", ",
                 metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str(), metrics[i].n);
  std::fprintf(f, "],\n \"timings\": [");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const TimingRow& t = timings[i];
    std::fprintf(f, "%s[\"%s\", \"%s\", %zu, %.17g, %.17g, %.17g, %.17g]",
                 i == 0 ? "" : ", ", t.name.c_str(), t.unit.c_str(), t.n,
                 t.min, t.p50, t.p90, t.max);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, " \"log_crcs\": [");
  for (std::size_t i = 0; i < r.log_crcs.size(); ++i)
    std::fprintf(f, "%s%u", i == 0 ? "" : ", ", r.log_crcs[i]);
  std::fprintf(f, "],\n \"recoveries\": [");
  for (std::size_t i = 0; i < r.recoveries.size(); ++i) {
    const RecoveryFact& x = r.recoveries[i];
    std::fprintf(f, "%s[%lld, %llu, %u, %zu, %zu, %zu]", i == 0 ? "" : ", ",
                 static_cast<long long>(x.target),
                 static_cast<unsigned long long>(x.epoch), x.digest, x.passes,
                 x.frames, x.objects);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void print_json(bool correct, const RunRecord& r,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--cycles N] [--tiny] "
               "[--log-crcs] [--state-out FILE] [--spans-out FILE]\n",
               why);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool trace = false;
  std::string state_out, spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny" || arg == "--log-crcs") {
      (arg == "--tiny" ? config.tiny : config.log_crcs) = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") config.workload = val;
    else if (arg == "--seed") config.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") config.seconds = std::atof(val.c_str());
    else if (arg == "--trace") trace = val == "1";
    else if (arg == "--cycles") config.cycles = std::atol(val.c_str());
    else if (arg == "--work-dir") config.work_dir = val;
    else if (arg == "--state-out") state_out = val;
    else if (arg == "--spans-out") spans_out = val;
    else return usage(("unknown argument " + arg).c_str());
  }
  if (config.work_dir.empty()) return usage("--work-dir is required");
  bool known = false;
  for (const std::string& w : workload_names()) known |= w == config.workload;
  if (!known) return usage(("unknown workload '" + config.workload + "'").c_str());

  // The traced replay reads the program's own counters through an
  // installed registry; the untraced run installs none, so instrumented
  // code pays only its null-handle tests.
  std::unique_ptr<ickpt::obs::Registry> registry;
  Tracer tracer;
  if (trace) {
    registry = std::make_unique<ickpt::obs::Registry>();
    ickpt::obs::Registry::install(registry.get());
  }
  RunRecord r;
  try {
    r = run_workload(config, trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    ickpt::obs::Registry::install(nullptr);
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  ickpt::obs::Registry::install(nullptr);

  std::printf("e2ebench workload=%s seed=%llu trace=%d cycles=%ld epochs=%llu\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), trace ? 1 : 0,
              r.cycles, static_cast<unsigned long long>(r.epochs));
  const bool analysis = config.workload == "analysis-phases";
  std::vector<TimingRow> timings{
      timing_row("setup", r.setup_s, "s"),
      timing_row("take_incr", r.take_incr, "ms"),
      timing_row("take_full", r.take_full, "ms"),
      timing_row("epochs_per_s per cycle", r.epoch_rate, "1/s"),
      timing_row("recover", r.recover, "ms"),
      timing_row("reopen", r.reopen, "ms"),
      timing_row("recover_to_epoch", r.recover_epoch, "ms"),
      timing_row("history", r.history, "ms"),
      timing_row("compact", r.compact, "ms"),
      timing_row(analysis ? "analysis.iteration" : "synth.mutate", r.app_work,
                 "ms"),
  };
  std::vector<Metric> metrics;  // every metric, printed
  std::vector<Metric> json;     // the ones BENCHMARK.json lists
  if (trace) {
    for (const char* name :
         {"core.capture", "spec.plan", "io.append", "io.open",
          "io.scan.index", "io.scan.next", "core.recovery.apply",
          "core.recovery.finish", "core.history", "core.compact"})
      timings.push_back(timing_row(std::string("span ") + name,
                                   tracer.durations(name), "ms"));
    for (const LayerMetric& l : per_layer(r, tracer, analysis)) {
      metrics.push_back(l.m);
      if (l.in_json) json.push_back(l.m);
    }
    if (!spans_out.empty()) tracer.write_json(spans_out);
  } else {
    metrics = end_to_end(r);
    json = metrics;
  }
  for (const TimingRow& t : timings)
    std::printf("  %-24s n=%-5zu min=%-10.4f p50=%-10.4f p90=%-10.4f max=%.4f %s\n",
                t.name.c_str(), t.n, t.min, t.p50, t.p90, t.max,
                t.unit.c_str());
  std::printf("  failed_ops_ratio         %llu/%llu = %.6f\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);
  for (const std::string& f : r.failures)
    std::printf("  FAILED: %s\n", f.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-30s %-14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  if (!state_out.empty()) write_state(state_out, r, metrics, timings);
  const bool correct = r.failed == 0 && r.attempted > 0;
  print_json(correct, r, json);
  return correct ? 0 : 1;
}
