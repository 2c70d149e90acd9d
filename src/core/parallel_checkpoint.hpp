// ParallelCheckpoint: sharded checkpoint capture over a bounded worker pool.
//
// The paper's driver (Fig. 1) walks the object graph serially, so capture
// latency scales with graph size regardless of cores. This component
// partitions the capture into ordered work items, each recorded by its own
// records-only walker, and hands them to the sharded driver
// (core/segment_merge.hpp), which runs them on a pool of threads, records
// each into its own chunk chain, and after the join splices the chains in
// item order behind one stream header:
//
//  - Work items are root ranges, kItemsPerThread of them per worker, except
//    when the root set is too small to feed the pool (fewer roots than
//    threads x kItemsPerThread): then a compound root is split into its
//    record (a records-only visit) plus per-child ranges of its top-level
//    fold targets, so one giant root no longer serializes the walk.
//  - The pool runs on at most as many threads as there are items that walk
//    (every item but a split root's own record). With fewer than two the
//    capture is serial: a root whose heap hangs off one child, such as the
//    head of a linked list, cannot be split at all.
//  - Extra memory is what each item leaves unused in its last chunk: the
//    capture maps at most payload + (items + 1) x ChunkPool::kChunkBytes.
//
// The emitted payload obeys the exact format of docs/FORMAT.md — item-order
// concatenation reproduces the serial layout — and Recovery/fsck need no
// new cases.
//
// Determinism contract (enforced by tests/parallel_equiv_test.cpp and
// tests/parallel_stream_test.cpp, not by review):
//  - cycle_guard off (the paper's acyclic/unshared assumption): item
//    segments are exactly the record runs the serial driver would emit for
//    those roots (a split root's record followed by its children's walks is
//    the same byte sequence the root's own fold would have produced), and
//    item-order concatenation reproduces the serial stream BYTE-IDENTICALLY
//    for every thread count.
//  - cycle_guard on: each item walks with its own private visited-set epoch
//    and cross-shard sharing is resolved through a lock-free CAS ClaimTable
//    keyed on CheckpointInfo ids — every shared object is recorded by
//    exactly one item (whichever claims it first), so the stream carries
//    the same record set, possibly placed in a different segment than the
//    serial walk would choose. Recovery resolves records by id, so the
//    recovered graph is VALUE-IDENTICAL to the serial stream's, and
//    per-item CheckpointStats still sum to the serial totals.
//
// Failure semantics: a throw from record()/fold() propagates to the caller
// after the pool drains, and a sharded capture leaves the caller's sink
// untouched (the serial driver has already written its header and a record
// prefix by then). Flags reset before the failure stay reset, which is why
// CheckpointManager only appends whole payloads to stable storage.
//
// VisitHooks are not threaded through: hooks observe a single traversal
// order, which sharded capture deliberately does not have.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"

namespace ickpt::core {

struct ParallelOptions {
  Mode mode = Mode::kIncremental;
  /// Per-shard visited epochs + cross-shard ClaimTable (see header comment).
  /// The claim table starts at nroots * 8 + 1024 slots; an underestimate
  /// costs overflow-segment probing, never correctness.
  bool cycle_guard = false;
  /// Worker pool size, at most the items that walk. <= 1 delegates to the
  /// serial Checkpoint::run — the paper-faithful path, byte-for-byte and
  /// cost-for-cost. A caller that knows the object count picks it with
  /// capture_threads_for(), and one that knows a full payload's size with
  /// full_capture_threads_for(), as CheckpointManager does under
  /// ManagerOptions::kAutoThreads.
  unsigned threads = 1;
  /// Stage-attribution accumulator. Null (the default) keeps every worker on
  /// the unprofiled hot loop. Non-null: each item walks with a private
  /// CaptureProfile (no cross-worker synchronization on the hot path), and
  /// after the pool joins the item profiles and the join-wait and splice
  /// time are folded into *profile. Written by the caller's thread only
  /// outside the walk; must outlive run().
  obs::CaptureProfile* profile = nullptr;
  /// Test-only: fires on the executing worker after each work item is
  /// recorded, with the item index. Used to force out-of-order completion
  /// deterministically.
  std::function<void(std::size_t)> test_item_hook;
};

/// Capture accounting for one work item (a contiguous root range, a split
/// root's record, or a split root's child range).
struct ShardStats {
  CheckpointStats stats;
  std::size_t bytes = 0;
};

struct ParallelStats {
  /// Sum over items; equals the serial CheckpointStats for the same state.
  CheckpointStats totals;
  std::size_t shards = 1;
  unsigned threads_used = 1;
  /// max/mean objects visited per worker (1.0 = perfectly balanced).
  double imbalance = 1.0;
  /// Wall time after the join: the header, the splice of the item chains
  /// and the end tag.
  double merge_seconds = 0.0;
  /// Per-item breakdown; empty when the serial path ran.
  std::vector<ShardStats> shard_stats;
};

/// Capture threads for a walk of `objects` objects on `cpus` CPUs: one per
/// 2^14 objects, at most min(`cpus`, 4), and 1 (serial) below two. Four is
/// the widest count whose speed and memory have been measured. An
/// incremental capture's cost is its walk, so this sizes incremental takes.
[[nodiscard]] unsigned capture_threads_for(std::uint64_t objects,
                                           unsigned cpus) noexcept;
/// The same pick on usable_cpus() CPUs (core/segment_merge.hpp).
[[nodiscard]] unsigned capture_threads_for(std::uint64_t objects) noexcept;

/// Capture threads for a full capture expected to write `payload_bytes`:
/// one per kBytesPerCaptureThread (parallel_checkpoint.cpp) under the same
/// cap as capture_threads_for, and 1 (serial) below two. A full capture
/// runs every object's record(), so its cost is its bytes.
[[nodiscard]] unsigned full_capture_threads_for(std::uint64_t payload_bytes,
                                                unsigned cpus) noexcept;
/// The same pick on usable_cpus() CPUs.
[[nodiscard]] unsigned full_capture_threads_for(
    std::uint64_t payload_bytes) noexcept;

class ParallelCheckpoint {
 public:
  /// Work items per worker: the scheduling granularity. More items balance
  /// skewed root subtrees better, at the cost of one partly filled chunk
  /// each.
  static constexpr std::size_t kItemsPerThread = 4;

  /// Append one checkpoint payload of `roots` at `epoch` to `out`: header +
  /// records in item order + end tag. Sharded items draw their chunks from
  /// `out`'s pool.
  static ParallelStats run(io::ChunkSink& out, Epoch epoch,
                           std::span<Checkpointable* const> roots,
                           const ParallelOptions& opts);
};

}  // namespace ickpt::core
