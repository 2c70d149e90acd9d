// Sharded capture's one driver: run ordered work items on a worker pool and
// join their records into the caller's ChunkSink as one checkpoint stream.
// core::ParallelCheckpoint (generic capture) and spec's sharded plan path
// both call run_sharded_capture; only the work items differ.
//
// The stream is the item-order concatenation of the items' records behind
// one header and in front of one end tag (docs/FORMAT.md), so it is
// byte-identical to serial capture by construction:
//
//   - Each item records into its own ChunkSink, drawing chunks from the
//     destination's pool. Workers take items from one atomic cursor, in
//     any order; the cursor's first slot writes the stream header into a
//     chain of its own, so its one id per root overlaps the recording.
//   - After the join the driver splices the header's chain and the item
//     chains in item order (moving chunks, copying no byte) and writes the
//     end tag. Extra memory is what each chain leaves unused in its last
//     chunk: a sharded capture maps at most payload + (items + 1) x
//     ChunkPool::kChunkBytes (docs/OBSERVABILITY.md).
//   - A capture that throws never touches the destination: every chain
//     goes back to the pool (a serial throw would already have written the
//     header and a record prefix).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "io/byte_sink.hpp"
#include "io/data_writer.hpp"

namespace ickpt::obs {
struct CaptureProfile;
}

namespace ickpt::core {

struct ShardRunOptions {
  /// Worker pool size, the calling thread included (clamped to the items).
  std::size_t threads = 1;
  /// Test-only: fires after each item is recorded, with the item index.
  /// Used to force out-of-order completion deterministically.
  std::function<void(std::size_t)> item_hook;
};

/// CPUs the calling thread may run on: its affinity mask (sched_getaffinity),
/// falling back to std::thread::hardware_concurrency() where the mask is
/// unavailable, and never below 1. Under `taskset -c 0` this is 1 however
/// many CPUs are online. A cgroup CPU quota is not counted: it bounds CPU
/// time per period, not how many CPUs run the process's threads at once.
[[nodiscard]] unsigned usable_cpus() noexcept;

/// Split roots [0, nroots) into min(nitems, nroots) contiguous ranges of
/// even size.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> root_ranges(
    std::size_t nroots, std::size_t nitems);

/// One work item's outcome, in item order.
struct ShardItemResult {
  std::size_t worker = 0;  ///< worker index that executed it
  std::size_t bytes = 0;   ///< bytes the item recorded
};

struct ShardRunResult {
  /// Header, splice and end tag after the join (kMerge).
  std::uint64_t merge_ns = 0;
  std::vector<ShardItemResult> items;
};

/// Record item `item` into `writer`. `profile` is the item's own
/// CaptureProfile (one writer: the executing worker), or null when the
/// capture is not profiled.
using ExecuteItem = std::function<void(
    std::size_t item, io::DataWriter& writer, obs::CaptureProfile* profile)>;

/// Append one checkpoint stream to `out`: `write_header`, the records of
/// items [0, nitems) in item order, and the end tag. The calling thread is
/// worker 0. The first worker exception is rethrown after every worker
/// stops, with `out` untouched. With a non-null `profile`, every item
/// profile is folded into it after the join, together with the join wait
/// (kMergeWait) and the splice (kMerge).
ShardRunResult run_sharded_capture(
    io::ChunkSink& out,
    const std::function<void(io::DataWriter&)>& write_header,
    std::size_t nitems, const ShardRunOptions& opts,
    obs::CaptureProfile* profile, const ExecuteItem& execute);

}  // namespace ickpt::core
