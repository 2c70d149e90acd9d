// Sharded parallel capture: scaling curve (threads x graph size).
//
// Grid: worker threads in {1,2,4,8} x structures in {N/4, N} (N from
// ICKPT_BENCH_STRUCTURES, default the paper's 20,000), full mode plus an
// incremental epoch at 25% modified, plus an `auto` row per grid point at
// the count a default CheckpointManager picks: for a full capture
// core::full_capture_threads_for(the payload's bytes), for an incremental
// one core::capture_threads_for(objects). Each row is timed in pairs
// against the serial generic driver on identical dirty state: every pair
// runs both once, the serial driver first in even pairs and second in odd
// ones. So each side follows the other as often as itself, and drift, a
// neighbour's load, and caches that the previous run's threads left warm
// fall on both sides alike. Both sides write into a ChunkSink from one
// pool that lives across the whole run, as a manager's takes do. `threads=1`
// goes through ParallelCheckpoint's serial delegation, so its row doubles
// as the "no regression at one thread" check. Speedup is the pairs' serial
// p50 / parallel p50. Rows land in BENCH_parallel.json unless
// ICKPT_BENCH_JSON overrides the path; the engine=serial row pools every
// pair's serial runs.
//
// Read the speedup column against the hardware: on a single-core machine
// every thread count timeslices one core and the curve is flat at ~1x (plus
// sharding overhead) — the merge stays cheap either way, which is the part
// this harness can always certify.
//
// `--smoke` runs a reduced grid, 15 pairs per row, as a ctest regression
// gate: with >= 4 usable CPUs (core::usable_cpus()), the threads=4 and auto
// medians must each be <= their pairs' serial median (the "parallel
// capture actually wins" contract, with a small noise allowance), in full
// mode (the auto row at the bytes pick) and incremental mode alike; below
// 4 CPUs that comparison is timeslicing noise, so the gate reports a skip
// and exits clean.
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/parallel_checkpoint.hpp"
#include "core/segment_merge.hpp"
#include "io/byte_sink.hpp"

using namespace ickpt;
using namespace ickpt::bench;

namespace {

/// Raw per-run seconds of one row and of the serial runs paired with it.
struct Paired {
  std::vector<double> serial;
  std::vector<double> parallel;
  std::size_t bytes = 0;
};

/// Time ParallelCheckpoint at `threads` against the serial driver over
/// `reps` pairs (+1 warmup pair) on the dirty state `flags`, alternating
/// which side runs first as the header describes. Chunks come from `pool`.
Paired time_against_serial(synth::SynthWorkload& workload, core::Mode mode,
                           const std::vector<bool>& flags, unsigned threads,
                           int reps, io::ChunkPool& pool) {
  using clock = std::chrono::steady_clock;
  Paired out;
  io::ChunkSink sink(pool);
  for (int r = 0; r <= reps; ++r) {
    for (int side = 0; side < 2; ++side) {
      const bool serial = (side == 0) == (r % 2 == 0);
      workload.restore_flags(flags);
      sink.clear();
      const auto t0 = clock::now();
      if (serial) {
        io::DataWriter writer(sink);
        core::CheckpointOptions opts;
        opts.mode = mode;
        core::Checkpoint::run(writer, 0, workload.root_bases(), opts);
        writer.flush();
      } else {
        core::ParallelOptions opts;
        opts.mode = mode;
        opts.threads = threads;
        core::ParallelCheckpoint::run(sink, 0, workload.root_bases(), opts);
      }
      const auto t1 = clock::now();
      out.bytes = sink.size();
      if (r == 0) continue;  // the first pair is warmup
      (serial ? out.serial : out.parallel)
          .push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  if (smoke) {
    setenv("ICKPT_BENCH_STRUCTURES", "4000", /*overwrite=*/0);
    setenv("ICKPT_BENCH_REPS", "15", /*overwrite=*/0);
  }
  // This bench gets its own report file so the scaling curve is not mixed
  // into BENCH_obs.json (the shared default).
  setenv("ICKPT_BENCH_JSON", "BENCH_parallel.json", /*overwrite=*/0);

  const unsigned cpus = core::usable_cpus();
  print_header("Sharded parallel capture: threads x graph size");
  std::printf("structures=%zu reps=%d usable_cpus=%u\n\n", bench_structures(),
              bench_reps(), cpus);
  print_row({"structs", "mode", "threads", "serial-p50", "par-p50",
             "par-best", "par-p95", "ckpt size", "speedup"});

  // The smoke gate only means something when 4 workers get 4 real CPUs;
  // paired medians absorb most scheduler noise, the factor the rest.
  const bool gated = smoke && cpus >= 4;
  constexpr double kNoiseFactor = 1.05;
  int gate_failures = 0;
  // One pool for every run, as one manager keeps one across its takes.
  io::ChunkPool pool;

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

      const std::string grid_base =
          "structures=" + std::to_string(structures) + " mode=" + c.name;
      std::vector<double> all_serial;
      std::size_t bytes = 0;
      // The pinned counts first: the threads=1 row measures the payload the
      // bytes pick of the full-mode auto row needs.
      for (unsigned threads : {1u, 2u, 4u, 8u, 0u}) {
        const bool is_auto = threads == 0;
        if (is_auto)
          threads = c.mode == core::Mode::kFull
                        ? core::full_capture_threads_for(bytes)
                        : core::capture_threads_for(workload.total_objects());
        const std::string engine =
            (is_auto ? "auto threads=" : "parallel threads=") +
            std::to_string(threads);
        Paired p = time_against_serial(workload, c.mode, flags, threads,
                                       bench_reps(), pool);
        bytes = p.bytes;
        all_serial.insert(all_serial.end(), p.serial.begin(), p.serial.end());
        const TimingStats serial = stats_of(std::move(p.serial));
        const TimingStats par = stats_of(std::move(p.parallel));
        print_row({std::to_string(structures), c.name,
                   is_auto ? "auto=" + std::to_string(threads)
                           : std::to_string(threads),
                   fmt_ms(serial.p50), fmt_ms(par.p50), fmt_ms(par.best),
                   fmt_ms(par.p95), fmt_mb(p.bytes),
                   fmt_x(serial.p50 / par.p50)});
        JsonReport::instance().add("parallel",
                                   grid_base + " engine=" + engine, par,
                                   p.bytes);
        if (gated && (is_auto || threads == 4) &&
            par.p50 > serial.p50 * kNoiseFactor) {
          std::printf("GATE %s %s: parallel p50 %.6fs vs serial p50 %.6fs\n",
                      engine.c_str(), grid_base.c_str(), par.p50,
                      serial.p50);
          ++gate_failures;
        }
      }
      JsonReport::instance().add("parallel", grid_base + " engine=serial",
                                 stats_of(std::move(all_serial)), bytes);
    }
  }
  if (smoke) {
    if (!gated)
      std::printf("\nsmoke: <4 usable CPUs (%u) — threads=4 and auto <= "
                  "serial gate skipped\n",
                  cpus);
    else
      std::printf("\nsmoke: threads=4 and auto <= serial gate %s (%d "
                  "failure(s))\n",
                  gate_failures == 0 ? "passed" : "FAILED", gate_failures);
    return gate_failures == 0 ? 0 : 1;
  }
  std::printf(
      "\nexpected shape: speedup approaches the smaller of the thread count\n"
      "and the machine's CPU count; threads=1 must sit within noise of the\n"
      "serial driver (it delegates to it), and so must auto where it picks 1.\n");
  return 0;
}
