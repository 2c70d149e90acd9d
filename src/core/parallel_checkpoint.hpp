// ParallelCheckpoint: sharded checkpoint capture over a bounded worker pool.
//
// The paper's driver (Fig. 1) walks the object graph serially, so capture
// latency scales with graph size regardless of cores. This component
// partitions the capture into ordered work items, each recorded by its own
// records-only walker, and hands them to the sharded driver
// (core/segment_merge.hpp), which runs them on a work-stealing pool and
// streams them into the caller's DataWriter through an ordered merge
// frontier:
//
//  - An item at the merge frontier writes *directly* into the caller's
//    writer — those bytes are never buffered. Items ahead of the frontier
//    record into private segments that the frontier drains in order, so
//    extra memory is bounded by out-of-order segments only (the high-water
//    mark is tracked in ParallelStats, the profile, and a gauge).
//  - The stream header is emitted by the merge cursor just before the
//    first byte of item 0 — never earlier — so a worker throw before any
//    segment streams leaves the caller's writer untouched (the serial path
//    would already have written its header; see Failure semantics).
//  - Work items are root ranges, kItemsPerThread of them per worker, except
//    when the root set is too small to feed the pool (fewer roots than
//    threads x kItemsPerThread): then a compound root is split into its
//    record (a records-only visit) plus per-child ranges of its top-level
//    fold targets, so one giant root no longer serializes the walk.
//  - The pool runs on at most as many threads as there are items that walk
//    (every item but a split root's own record). With fewer than two the
//    capture is serial: a root whose heap hangs off one child, such as the
//    head of a linked list, cannot be split at all.
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
// after the pool drains. If nothing had streamed yet the caller's writer is
// untouched (strictly cleaner than a serial throw, which leaves header +
// record prefix); once streaming has begun a torn prefix is possible,
// exactly as with the serial walker. Flags reset before the failure stay
// reset, which is why CheckpointManager only appends fully merged payloads
// to stable storage.
//
// VisitHooks are not threaded through: hooks observe a single traversal
// order, which sharded capture deliberately does not have.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "io/data_writer.hpp"

namespace ickpt::core {

struct ParallelOptions {
  /// Backlog sentinel: pick the budget from the thread/core ratio (see
  /// merge_backlog_bytes).
  static constexpr std::size_t kAutoBacklog = SIZE_MAX;

  Mode mode = Mode::kIncremental;
  /// Per-shard visited epochs + cross-shard ClaimTable (see header comment).
  /// The claim table starts at nroots * 8 + 1024 slots; an underestimate
  /// costs overflow-segment probing, never correctness.
  bool cycle_guard = false;
  /// Worker pool size, at most the items that walk. <= 1 delegates to the
  /// serial Checkpoint::run — the paper-faithful path, byte-for-byte and
  /// cost-for-cost. A caller that knows the object count picks it with
  /// capture_threads_for(), as CheckpointManager does under
  /// ManagerOptions::kAutoThreads.
  unsigned threads = 1;
  /// Published-segment backlog (bytes) beyond which workers stop recording
  /// ahead of the merge frontier and yield instead. kAutoBacklog resolves
  /// to: unbounded when threads <= usable_cpus() (recording ahead is the
  /// parallelism win), 0 when oversubscribed (buffering ahead of a frontier
  /// that shares your CPU only grows memory). Explicit values pass
  /// through; tests pin large budgets to force concurrent buffering.
  std::size_t merge_backlog_bytes = kAutoBacklog;
  /// Stage-attribution accumulator. Null (the default) keeps every worker on
  /// the unprofiled hot loop. Non-null: each item walks with a private
  /// CaptureProfile (no cross-worker synchronization on the hot path), and
  /// after the pool joins the item profiles, steal counters, sink bytes and
  /// merge/wait time are folded into *profile. Written by the caller's
  /// thread only outside the walk; must outlive run().
  obs::CaptureProfile* profile = nullptr;
  /// Test-only: fires on the executing worker after each work item is
  /// published to (or committed through) the merge cursor, with the item
  /// index. Used to force out-of-order completion deterministically.
  std::function<void(std::size_t)> test_item_hook;
};

/// Capture accounting for one work item (a contiguous root range, a split
/// root's record, or a split root's child range).
struct ShardStats {
  /// The item was at the merge frontier and streamed straight into the
  /// caller's writer — its bytes were never buffered.
  bool streamed_direct = false;
  CheckpointStats stats;
  std::size_t bytes = 0;
};

struct ParallelStats {
  /// Sum over items; equals the serial CheckpointStats for the same state.
  CheckpointStats totals;
  std::size_t shards = 1;
  unsigned threads_used = 1;
  std::size_t steals = 0;
  /// max/mean objects visited per worker (1.0 = perfectly balanced).
  double imbalance = 1.0;
  /// Wall time spent inside the merge cursor streaming segments.
  double merge_seconds = 0.0;
  /// High-water mark of bytes buffered behind the merge frontier — the
  /// streaming merge's memory bound, observed.
  std::size_t merge_buffered_peak_bytes = 0;
  /// Items that streamed directly into the caller's writer.
  std::size_t direct_items = 0;
  /// Per-item breakdown; empty when the serial path ran.
  std::vector<ShardStats> shard_stats;
};

/// Capture threads for a walk of `objects` objects on `cpus` CPUs: one per
/// 2^14 objects, at most min(`cpus`, 4), and 1 (serial) below two. Four is
/// the widest count whose speed and memory have been measured.
[[nodiscard]] unsigned capture_threads_for(std::uint64_t objects,
                                           unsigned cpus) noexcept;
/// The same pick on usable_cpus() CPUs (core/segment_merge.hpp).
[[nodiscard]] unsigned capture_threads_for(std::uint64_t objects) noexcept;

class ParallelCheckpoint {
 public:
  /// Work items per worker: the work-stealing granularity. More items
  /// balance skewed root subtrees better at the cost of more (cheap)
  /// frontier advances.
  static constexpr std::size_t kItemsPerThread = 4;

  /// Write one checkpoint payload of `roots` at `epoch` into `d`:
  /// header + sharded records (streamed in item order) + end tag.
  static ParallelStats run(io::DataWriter& d, Epoch epoch,
                           std::span<Checkpointable* const> roots,
                           const ParallelOptions& opts);
};

}  // namespace ickpt::core
