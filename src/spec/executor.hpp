// PlanExecutor: run a compiled plan over concrete structure roots.
//
// The hot loop performs no virtual dispatch and no hashing: direct offset
// loads, an explicit pointer stack, and only the tests the pattern kept.
// Output is byte-identical to the generic driver for the same state
// (given a valid pattern), so recovery is oblivious to which path wrote a
// checkpoint — verified by the spec property tests.
#pragma once

#include <span>

#include "common/types.hpp"
#include "core/checkpoint_format.hpp"
#include "io/data_writer.hpp"
#include "obs/metrics.hpp"
#include "spec/plan.hpp"

namespace ickpt::obs {
struct CaptureProfile;
}

namespace ickpt::spec {

class PlanExecutor {
 public:
  explicit PlanExecutor(const Plan& plan);

  /// Emit the records of one structure instance. `root` must be a pointer to
  /// the concrete type the plan's shape describes.
  void run(void* root, io::DataWriter& d) const;

  /// Profiled variant: the whole run's wall accrues to kSerialize (a plan
  /// run IS serialization — the pattern already removed the per-object
  /// dispatch the other stages would measure), plan_tests advances by the
  /// plan's per-run test count, objects by its node cover. `prof == nullptr`
  /// falls through to the unprofiled run.
  void run(void* root, io::DataWriter& d, obs::CaptureProfile* prof) const;

  /// Traverse without writing or resetting flags (traversal-time metric,
  /// paper Table 1 last row).
  void run_dry(void* root) const;

  /// Re-resolve the per-plan metric handles against the currently installed
  /// registry (handles bind at construction; see docs/OBSERVABILITY.md).
  void rebind_metrics() noexcept;

  [[nodiscard]] const Plan& plan() const noexcept { return *plan_; }

 private:
  const Plan* plan_;
  /// Per-plan telemetry, labeled {plan=shape_name}; null no-op handles when
  /// no obs::Registry is installed. The per-run deltas are computed once
  /// here so run() pays three relaxed adds, not a walk of the op stream.
  obs::Counter obs_runs_;
  obs::Counter obs_tests_performed_;
  obs::Counter obs_tests_elided_;
  std::uint64_t tests_per_run_ = 0;
  std::uint64_t elided_per_run_ = 0;
};

/// Full specialized checkpoint: stream header + plan over every root + end
/// tag. Roots are concrete pointers matching the plan's shape.
void run_plan_checkpoint(io::DataWriter& d, Epoch epoch,
                         std::span<void* const> roots,
                         const PlanExecutor& exec,
                         core::Mode mode = core::Mode::kIncremental,
                         obs::CaptureProfile* profile = nullptr);

/// Sharded variant: partition the roots into contiguous ranges
/// (core::root_ranges), run the plan over them on `threads` workers through
/// core's sharded driver (core/segment_merge.hpp), and append one stream to
/// `out`: the ranges' chunk chains spliced in order behind one stream
/// header. Plans describe trees (no cross-root sharing), so the output is
/// byte-identical to run_plan_checkpoint for every thread count —
/// property-tested alongside the generic parallel driver. A SpecError
/// raised by any shard (structure violating the pattern) is rethrown after
/// the pool drains with `out` untouched; the caller falls back. threads <= 1
/// is exactly run_plan_checkpoint, through a DataWriter over `out`.
void run_plan_checkpoint_parallel(io::ChunkSink& out, Epoch epoch,
                                  std::span<void* const> roots,
                                  const PlanExecutor& exec, unsigned threads,
                                  core::Mode mode = core::Mode::kIncremental,
                                  obs::CaptureProfile* profile = nullptr);

}  // namespace ickpt::spec
