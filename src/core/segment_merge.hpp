// Sharded capture's one driver: run ordered work items on a worker pool and
// stream their records into the caller's DataWriter as one checkpoint
// stream. core::ParallelCheckpoint (generic capture) and spec's sharded plan
// path both call run_sharded_capture; only the work items differ.
//
// The stream is the item-order concatenation of the items' records behind
// one header and in front of one end tag (docs/FORMAT.md), so it is
// byte-identical to serial capture by construction. An ordered merge
// *frontier* replaces a barrier:
//
//   - The frontier is the lowest item not yet streamed. A worker whose item
//     IS the frontier writes straight into the caller's writer — those
//     bytes are never buffered. Any other item records into a private sink
//     and publishes it; whoever advances the frontier drains published
//     segments in order.
//   - Extra memory is therefore bounded by out-of-order segments only, and
//     the high-water mark of that backlog is reported (profile counter,
//     result) so the bound is observable, not asserted.
//   - Scheduling prefers the frontier item, yields instead of recording
//     ahead once the published backlog passes the budget, then takes from
//     the worker's own block of items before stealing from the others.
//
// Header deferral: the stream header is written just before the first
// record bytes leave, and item 0 always buffers, so a capture that throws
// before anything streams leaves the caller's writer untouched (a serial
// throw would already have written the header).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "io/data_writer.hpp"

namespace ickpt::obs {
struct CaptureProfile;
}

namespace ickpt::core {

struct ShardRunOptions {
  /// Worker pool size, the calling thread included (clamped to the items).
  std::size_t threads = 1;
  /// Published-backlog bytes beyond which non-frontier work yields.
  /// SIZE_MAX = unbounded (real parallelism: buffering ahead is the win);
  /// 0 = strict streaming (oversubscribed: never buffer more than the
  /// segment in flight).
  std::size_t backlog_budget = SIZE_MAX;
  /// Test-only: fires after each item is published or committed, with the
  /// item index. Used to force out-of-order completion deterministically.
  std::function<void(std::size_t)> item_hook;
};

/// CPUs the calling thread may run on: its affinity mask (sched_getaffinity),
/// falling back to std::thread::hardware_concurrency() where the mask is
/// unavailable, and never below 1. Under `taskset -c 0` this is 1 however
/// many CPUs are online. A cgroup CPU quota is not counted: it bounds CPU
/// time per period, not how many CPUs run the process's threads at once.
[[nodiscard]] unsigned usable_cpus() noexcept;

/// Default backlog budget: unbounded when every worker has a usable CPU
/// behind it (recording ahead of the frontier is the parallelism win), 0
/// when oversubscribed (buffering ahead of a frontier that shares your CPU
/// only grows memory).
[[nodiscard]] std::size_t auto_backlog_budget(std::size_t threads) noexcept;

/// Split roots [0, nroots) into min(nitems, nroots) contiguous ranges:
/// root 0 alone in the first (so the deferred header is unblocked almost at
/// once), the rest split evenly.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> root_ranges(
    std::size_t nroots, std::size_t nitems);

/// One work item's outcome, in item order.
struct MergeItemResult {
  std::size_t worker = 0;  ///< worker index that executed it
  bool direct = false;     ///< streamed directly, never buffered
  std::size_t bytes = 0;   ///< segment size (buffered or direct)
};

struct MergeRunResult {
  std::uint64_t steals = 0;
  std::uint64_t merge_ns = 0;  ///< merge-cursor lock-hold time (kMerge)
  std::size_t buffered_peak_bytes = 0;
  std::vector<MergeItemResult> items;
};

/// Record item `item` into `writer`. `profile` is the item's own
/// CaptureProfile (one writer: the executing worker), or null when the
/// capture is not profiled.
using ExecuteItem = std::function<void(
    std::size_t item, io::DataWriter& writer, obs::CaptureProfile* profile)>;

/// Write one checkpoint stream into `d`: `write_header`, the records of
/// items [0, nitems) in item order, and the end tag. The calling thread is
/// worker 0. The first worker exception is rethrown after every worker
/// stops; `d` then holds nothing or a torn prefix, never an end tag. With a
/// non-null `profile`, every item profile is folded into it after the join,
/// together with steals, merge and merge-wait time and the peak backlog.
MergeRunResult run_sharded_capture(
    io::DataWriter& d, const std::function<void(io::DataWriter&)>& write_header,
    std::size_t nitems, const ShardRunOptions& opts,
    obs::CaptureProfile* profile, const ExecuteItem& execute);

}  // namespace ickpt::core
