// The three closed-loop workloads and the record one run of them leaves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/harness.hpp"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Stop starting new cycles once this much wall time has passed (and the
  /// sample minimums are met)...
  double seconds = 10;
  /// ...or, when > 0, run exactly this many cycles (the traced pass repeats
  /// the untraced pass's cycle count so both write the same logs).
  long cycles = 0;
  /// Self-test size: tiny heaps and sample minimums.
  bool tiny = false;
  /// Where the logs live; removed afterwards.
  std::string work_dir;
  /// Record a CRC-32 of the whole log at each cycle's close and after each
  /// compaction, so a traced pass can prove it wrote the same bytes.
  bool log_crcs = false;
};

/// One recovery as both passes must see it.
struct RecoveryFact {
  std::int64_t target = -1;  // -1: newest state
  std::uint64_t epoch = 0;
  std::uint32_t digest = 0;
  std::size_t passes = 0;
  std::size_t frames = 0;
  std::size_t objects = 0;
};

struct RunRecord {
  // End-to-end samples (ms unless noted).
  Samples take_incr, take_full, recover, reopen, recover_epoch, history,
      compact, setup_s, app_work;
  double epoch_wall_ms = 0;
  std::uint64_t epochs = 0;
  /// Epochs per second of each cycle (job): its epochs over the time spent
  /// in them. epochs_per_s is the median, so a few cycles that a busy host
  /// slowed do not move it.
  Samples epoch_rate;
  /// Log growth over the leading byte window (see kByteWindowCycles).
  std::uint64_t window_log_bytes = 0;
  std::uint64_t window_epochs = 0;
  /// Sum of every timed interval; the traced/untraced ratio of this is the
  /// tracing overhead.
  double timed_ms = 0;
  long cycles = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  // Counts from the public results, per incremental generic capture, per
  // plan capture, per compaction.
  Samples incr_visited, incr_recorded, incr_payload, plan_payload;
  Samples compact_recoveries, compact_bytes_in, compact_bytes_out,
      compact_retained;
  // Program obs counters over the takes (traced pass only).
  std::uint64_t fsyncs = 0, bytes_written = 0;
  std::uint64_t plan_tests_elided = 0, plan_tests_performed = 0;

  std::vector<std::uint32_t> log_crcs;
  std::vector<RecoveryFact> recoveries;
  double peak_rss_mb = 0;

  /// Bracket one cycle (job) for epoch_rate.
  void begin_cycle() {
    cycle_epochs_ = epochs;
    cycle_wall_ms_ = epoch_wall_ms;
  }
  void end_cycle() {
    const double ms = epoch_wall_ms - cycle_wall_ms_;
    if (epochs > cycle_epochs_ && ms > 0)
      epoch_rate.add(1e3 * static_cast<double>(epochs - cycle_epochs_) / ms);
  }

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

 private:
  std::uint64_t cycle_epochs_ = 0;
  double cycle_wall_ms_ = 0;
};

/// Log bytes per epoch are taken over the first this-many cycles (jobs):
/// object ids come from a process-global counter and are written as
/// varints, so a workload that allocates per job (analysis-phases) writes
/// more bytes the longer the process has run. A fixed window keeps the
/// count exact and independent of how many cycles a run fits in.
inline constexpr long kByteWindowCycles = 4;

/// Runs `config.workload`; spans go to `tracer` when it is non-null.
RunRecord run_workload(const RunConfig& config, Tracer* tracer);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace e2e
