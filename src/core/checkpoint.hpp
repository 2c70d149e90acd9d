// The generic checkpoint driver (paper Fig. 1, class Checkpoint).
//
// This is the unspecialized implementation whose costs the paper's
// specialization removes: per object it performs virtual calls (info, record,
// fold), tests the modified flag, and traverses children even when the whole
// subtree is unmodified. Keep it this way — the benchmarks measure exactly
// this code against the specialized executors.
//
// A Checkpoint object is a records-only walker: it writes object records and
// nothing else. The stream around them (header and end tag,
// core/checkpoint_format.hpp) is framed by Checkpoint::run for a serial
// capture and by the sharded driver (core/segment_merge.hpp) for a parallel
// one; a dry-run walker (reachability, graph checks) frames nothing.
#pragma once

#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/checkpoint_format.hpp"
#include "core/checkpointable.hpp"
#include "core/claim_table.hpp"
#include "io/data_writer.hpp"

namespace ickpt::obs {
struct CaptureProfile;
}

namespace ickpt::core {

class ParallelCheckpoint;

struct CheckpointStats {
  std::uint64_t objects_visited = 0;
  std::uint64_t objects_recorded = 0;
};

/// Observation hooks for graph-walking tools (verify::check_graph): `enter`
/// fires before an object's children are folded, `leave` after, and
/// `revisit` when the cycle guard suppresses re-entry into an already
/// visited object — the event that distinguishes sharing and cycles from
/// tree traversal. Unset hooks cost one pointer test per object.
struct VisitHooks {
  std::function<void(Checkpointable&)> enter;
  std::function<void(Checkpointable&)> leave;
  std::function<void(Checkpointable&)> revisit;
};

struct CheckpointOptions {
  Mode mode = Mode::kIncremental;
  /// Traverse and test but write nothing and reset no flags. Used to measure
  /// pure traversal time (paper Table 1, last row).
  bool dry_run = false;
  /// Track visited ids and skip re-entry. The paper assumes acyclic,
  /// unshared structures; enable this when that is not guaranteed. Off by
  /// default because the set insertion would distort the benchmarks.
  /// The visited set lives for the whole checkpoint session, not per root:
  /// an object reachable from two roots is recorded under the first root
  /// only, and recovery re-links both parents to the single record.
  bool cycle_guard = false;
  /// Traversal observation hooks; must outlive the Checkpoint. revisit only
  /// fires when cycle_guard is on.
  const VisitHooks* hooks = nullptr;
  /// Stage-attribution accumulator (obs/profile.hpp); must outlive the
  /// Checkpoint and be written by one thread at a time. Null (the default)
  /// keeps the paper-faithful hot loop: the only cost is one pointer test
  /// per visit. Non-null routes every visit through the out-of-line
  /// profiled walker, which pays 2-4 clock reads per object.
  obs::CaptureProfile* profile = nullptr;
};

class Checkpoint {
 public:
  /// A walker that writes the records of every object checkpoint() visits
  /// into `d` (nothing, under opts.dry_run).
  Checkpoint(io::DataWriter& d, CheckpointOptions opts);

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Paper Fig. 1: test, record, reset, fold.
  void checkpoint(Checkpointable& o) {
    if (collect_ != nullptr) {
      // Collect mode (collect_children): don't walk, just report the child.
      collect_->push_back(&o);
      return;
    }
    if (prof_ != nullptr) {
      checkpoint_profiled(o);
      return;
    }
    if (guard_) {
      // Local visited set first (a revisit within this walker is the common
      // case and stays lock-free); on a genuinely new id, a shard walker
      // additionally races for the cross-shard claim — losing it means
      // another shard already owns the object.
      if (!visited_.insert(o.info().id()).second ||
          (claims_ != nullptr && !claims_->claim(o.info().id()))) {
        if (revisit_ != nullptr) (*revisit_)(o);
        return;
      }
    }
    ++stats_.objects_visited;
    CheckpointInfo& info = o.info();
    if (mode_ == Mode::kFull || info.modified()) {
      ++stats_.objects_recorded;
      if (!dry_) {
        // Type and id are read after the tag is buffered, so neither is
        // held across the writer's buffer check.
        write_record_header(
            d_, [&] { return o.type_id(); }, [&] { return info.id(); });
        o.record(d_);
        info.reset_modified();
      }
    }
    if (enter_ != nullptr) (*enter_)(o);
    o.fold(*this);
    if (leave_ != nullptr) (*leave_)(o);
  }

  [[nodiscard]] const CheckpointStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }

  /// Ids seen so far; populated only when cycle_guard is enabled. Used by
  /// reachability queries (RecoveredState::prune_unreachable).
  [[nodiscard]] const std::unordered_set<ObjectId>& visited_ids()
      const noexcept {
    return visited_;
  }

  /// One whole stream: header + every root + end tag (no framing under
  /// opts.dry_run).
  static CheckpointStats run(io::DataWriter& d, Epoch epoch,
                             std::span<Checkpointable* const> roots,
                             CheckpointOptions opts);

  /// Enumerate `o`'s direct fold targets without visiting them: runs
  /// o.fold() against a collect-mode walker that appends each child to
  /// `out` instead of recording or recursing. Used by ParallelCheckpoint
  /// to split a giant root's fold into per-child work items. Writes
  /// nothing, tests no flags, touches no visited state.
  static void collect_children(Checkpointable& o,
                               std::vector<Checkpointable*>& out);

 private:
  friend class ParallelCheckpoint;

  /// Internal (ParallelCheckpoint): the records-only half of checkpoint() —
  /// guard/claim, dirty test, record, reset — without folding children.
  /// A split root's record and its per-child subtrees become separate work
  /// items; this entry point emits the root's own record for the first item
  /// while the children ride their own walkers.
  void checkpoint_record_only(Checkpointable& o);

  /// Out-of-line visit with stage attribution (only reached when
  /// opts.profile is set); recurses back through checkpoint() for children,
  /// so the dispatch costs one extra pointer test per object while
  /// profiling and nothing when not. `fold_children = false` is the
  /// profiled checkpoint_record_only.
  void checkpoint_profiled(Checkpointable& o, bool fold_children = true);

  /// Hoist the per-hook null checks out of the visit loop: each unset hook
  /// is a null pointer here, so a visit pays one pointer test per hook
  /// instead of re-deriving `hooks_ != nullptr && hooks_->x` every object.
  void bind_hooks(const VisitHooks* hooks) noexcept {
    if (hooks == nullptr) return;
    if (hooks->enter) enter_ = &hooks->enter;
    if (hooks->leave) leave_ = &hooks->leave;
    if (hooks->revisit) revisit_ = &hooks->revisit;
  }

  io::DataWriter& d_;
  Mode mode_;
  bool dry_;
  bool guard_;
  /// Collect mode (collect_children): non-null diverts every checkpoint()
  /// call into this list. Tested first in the inline fast path — the same
  /// one-pointer-test cost rule as the hooks.
  std::vector<Checkpointable*>* collect_ = nullptr;
  const std::function<void(Checkpointable&)>* enter_ = nullptr;
  const std::function<void(Checkpointable&)>* leave_ = nullptr;
  const std::function<void(Checkpointable&)>* revisit_ = nullptr;
  /// Cross-shard visited arbitration; set by ParallelCheckpoint on its shard
  /// walkers under cycle_guard, null otherwise.
  ClaimTable* claims_ = nullptr;
  obs::CaptureProfile* prof_ = nullptr;
  CheckpointStats stats_;
  std::unordered_set<ObjectId> visited_;
};

}  // namespace ickpt::core
