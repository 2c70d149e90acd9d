// Shared measurement utilities for the paper-reproduction benchmarks.
//
// Methodology: every timed quantity is the wall-clock time of constructing
// one checkpoint into a CountingSink (pure construction cost, no disk — the
// paper likewise defers the copy to stable storage). Flags are snapshotted
// and replayed so that each engine measures the identical dirty state.
// Each measurement keeps every rep's raw time and reports
// best/p50/p95/max/mean, MAD and n — best-of sheds scheduler noise for the
// headline number, the exact order statistics and the median absolute
// deviation show how noisy the run actually was.
// Workload scale defaults to the paper's 20,000 compound structures; set
// ICKPT_BENCH_STRUCTURES to shrink it on slow machines. Benchmarks that
// call JsonReport::add additionally write their rows to BENCH_obs.json
// (path overridable via ICKPT_BENCH_JSON) when the process exits.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "io/data_writer.hpp"
#include "spec/compiler.hpp"
#include "spec/executor.hpp"
#include "synth/residual_dispatch.hpp"
#include "synth/shapes.hpp"
#include "synth/workload.hpp"

namespace ickpt::bench {

inline std::size_t bench_structures() {
  if (const char* env = std::getenv("ICKPT_BENCH_STRUCTURES")) {
    long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 20000;  // paper: "constructs 20,000 compound structures"
}

inline int bench_reps() {
  if (const char* env = std::getenv("ICKPT_BENCH_REPS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

/// Distribution of one measurement's reps, all exact. p50/p95 are
/// nearest-rank order statistics (the sample at rank ceil(p*n)), so each is
/// a measured rep and best <= p50 <= p95 <= max holds by construction. mad
/// is the nearest-rank median of |rep - p50|, so mad <= max - best.
struct TimingStats {
  double best = 0;
  double p50 = 0;
  double p95 = 0;
  double max = 0;
  double mean = 0;
  double mad = 0;
  std::size_t n = 0;
};

/// The nearest-rank p-quantile of sorted, non-empty `sorted`.
inline double nearest_rank(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The exact order statistics of raw per-rep times (seconds).
inline TimingStats stats_of(std::vector<double> samples) {
  TimingStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.n = samples.size();
  stats.best = samples.front();
  stats.p50 = nearest_rank(samples, 0.50);
  stats.p95 = nearest_rank(samples, 0.95);
  stats.max = samples.back();
  stats.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
               static_cast<double>(samples.size());
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (double x : samples) deviations.push_back(std::fabs(x - stats.p50));
  std::sort(deviations.begin(), deviations.end());
  stats.mad = nearest_rank(deviations, 0.50);
  return stats;
}

/// Time `fn` over `reps` runs (+1 warmup). `prepare` restores the
/// pre-measurement state before every run.
inline TimingStats time_stats(const std::function<void()>& prepare,
                              const std::function<void()>& fn,
                              int reps = bench_reps()) {
  using clock = std::chrono::steady_clock;
  std::vector<double> samples;
  for (int r = 0; r <= reps; ++r) {
    prepare();
    auto t0 = clock::now();
    fn();
    auto t1 = clock::now();
    if (r == 0) continue;  // run 0 is warmup
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return stats_of(std::move(samples));
}

/// Seconds for one invocation of `fn`, minimized over reps (+1 warmup).
inline double time_best(const std::function<void()>& prepare,
                        const std::function<void()>& fn,
                        int reps = bench_reps()) {
  return time_stats(prepare, fn, reps).best;
}

struct Measured {
  /// Best-of-reps seconds (the headline number, == stats.best).
  double seconds = 0;
  std::size_t bytes = 0;
  TimingStats stats;
};

/// Checkpoint `workload` with the generic driver; bytes counted, not stored.
inline Measured measure_generic(synth::SynthWorkload& workload,
                                core::Mode mode,
                                const std::vector<bool>& flags) {
  Measured m;
  auto body = [&] {
    io::CountingSink sink;
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = mode;
    core::Checkpoint::run(writer, 0, workload.root_bases(), opts);
    writer.flush();
    m.bytes = sink.count();
  };
  m.stats = time_stats([&] { workload.restore_flags(flags); }, body);
  m.seconds = m.stats.best;
  return m;
}

inline Measured measure_plan(synth::SynthWorkload& workload,
                             const spec::PlanExecutor& exec,
                             const std::vector<bool>& flags) {
  Measured m;
  auto body = [&] {
    io::CountingSink sink;
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, 0, workload.root_ptrs(), exec);
    writer.flush();
    m.bytes = sink.count();
  };
  m.stats = time_stats([&] { workload.restore_flags(flags); }, body);
  m.seconds = m.stats.best;
  return m;
}

inline Measured measure_residual(synth::SynthWorkload& workload,
                                 synth::residual::ResidualFn fn,
                                 const std::vector<bool>& flags) {
  Measured m;
  auto body = [&] {
    io::CountingSink sink;
    io::DataWriter writer(sink);
    synth::residual::run_residual_checkpoint(
        writer, 0, workload.roots(),
        [fn](synth::Compound& c, io::DataWriter& d) { fn(c, d); });
    writer.flush();
    m.bytes = sink.count();
  };
  m.stats = time_stats([&] { workload.restore_flags(flags); }, body);
  m.seconds = m.stats.best;
  return m;
}

// --- machine-readable report -------------------------------------------------

/// Accumulates benchmark rows and writes them as a JSON array to
/// BENCH_obs.json (or $ICKPT_BENCH_JSON) when the process exits, unless
/// write() already did. One instance per process; benchmarks just call
/// JsonReport::add.
class JsonReport {
 public:
  /// Extra named numeric columns appended to a row, in order.
  using Fields = std::vector<std::pair<std::string, std::uint64_t>>;

  static JsonReport& instance() {
    static JsonReport report;
    return report;
  }

  /// One measured configuration. `bench` names the benchmark, `config`
  /// the grid point (e.g. "L=5 v=10 pct=25 engine=plan").
  void add(const std::string& bench, const std::string& config,
           const TimingStats& stats, std::size_t bytes,
           Fields extra = {}) {
    rows_.push_back(Row{bench, config, stats, bytes, std::move(extra)});
  }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  /// The whole report as the JSON text write() puts on disk.
  [[nodiscard]] std::string render() const {
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "\"best_s\": %.9g, \"p50_s\": %.9g, \"p95_s\": %.9g, "
                    "\"max_s\": %.9g, \"mean_s\": %.9g, \"mad_s\": %.9g, "
                    "\"n\": %zu, \"bytes\": %zu",
                    r.stats.best, r.stats.p50, r.stats.p95, r.stats.max,
                    r.stats.mean, r.stats.mad, r.stats.n, r.bytes);
      out += "  {\"bench\": \"" + escape(r.bench) + "\", \"config\": \"" +
             escape(r.config) + "\", " + buf;
      for (const auto& [name, value] : r.extra)
        out += ", \"" + escape(name) + "\": " + std::to_string(value);
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    return out;
  }

  /// Write the report now; false when the file cannot be written.
  bool write() {
    written_ = true;
    const char* path = std::getenv("ICKPT_BENCH_JSON");
    if (path == nullptr) path = "BENCH_obs.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    const std::string text = render();
    const bool ok = std::fputs(text.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !ok) return false;
    std::printf("\nwrote %zu row(s) to %s\n", rows_.size(), path);
    return true;
  }

  ~JsonReport() {
    // Best-effort at exit: a report must not fail a bench that did not ask.
    if (!written_ && !rows_.empty()) write();
  }

 private:
  struct Row {
    std::string bench;
    std::string config;
    TimingStats stats;
    std::size_t bytes = 0;
    Fields extra;
  };

  JsonReport() = default;

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

  std::vector<Row> rows_;
  bool written_ = false;
};

// --- tiny fixed-width table printer ------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (const std::string& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  return buf;
}

inline std::string fmt_mb(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1000000)
    std::snprintf(buf, sizeof(buf), "%.2fMb", static_cast<double>(bytes) / 1e6);
  else
    std::snprintf(buf, sizeof(buf), "%.2fKb", static_cast<double>(bytes) / 1e3);
  return buf;
}

inline std::string fmt_x(double speedup) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  return buf;
}

}  // namespace ickpt::bench
