// AdaptiveCheckpointer: the paper's full pipeline, run online.
//
// The paper derives specialized checkpointing routines from declarations a
// programmer writes per phase. This component closes the loop instead:
// it checkpoints generically while *observing* the dirty flags for a few
// epochs, infers the modification pattern, compiles the residual plan, and
// switches to it. If the structure later violates the learned pattern (a
// list grows, a skipped subtree gets dirtied into view structurally — any
// kAssertNull/kFollow failure), the checkpoint transparently falls back to
// the generic driver and re-enters the learning stage, so adaptation is
// never a correctness risk.
//
// A *statically inferred* pattern (verify::infer_pattern, built from the
// phase's interprocedural write set) can be supplied up front: the
// checkpointer then compiles it through the verifying gate and starts in
// Stage::kStatic — specialized from epoch one, no learning window. Dynamic
// observation still runs for the first observe_epochs as a cross-check; the
// number of positions where the learned pattern disagrees with the proven
// one is counted into the obs metrics (a disagreement means the workload
// under-exercises a position the analysis proves writable — exactly the
// unsound-learning hazard static inference removes). Structural drift from
// a static plan falls back the same way as from a learned one.
//
// Specialized output is byte-identical to generic output (the plan keeps
// every test the observations could not discharge), so consumers of the
// checkpoint stream cannot tell which stage wrote it.
#pragma once

#include <optional>
#include <span>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "spec/compiler.hpp"
#include "spec/executor.hpp"
#include "spec/inference.hpp"

namespace ickpt::spec {

class AdaptiveCheckpointer {
 public:
  struct Options {
    /// Epochs observed before inferring and specializing (and, when a
    /// static pattern is supplied, epochs cross-checked against it).
    std::size_t observe_epochs = 4;
    InferOptions infer;
    CompileOptions compile;
    /// Worker threads for specialized capture: the compiled plan executes
    /// per-shard (run_plan_checkpoint_parallel) with the shards' chunks
    /// spliced in shard order, so the staged stream stays byte-identical to the
    /// serial plan run. 1 = serial. Observation/generic epochs always run
    /// serially (the inferencer is not concurrent).
    unsigned capture_threads = 1;
    /// Rolling re-observation: after this many specialized (or static)
    /// epochs, re-enter a counted observation window of observe_epochs
    /// epochs — flags are sampled before each plan run, so the window costs
    /// one extra flag walk per epoch, never a generic checkpoint. At the end
    /// of the window the freshly learned pattern is compared against the
    /// active one with pattern_unsafe_disagreements: nonzero means the
    /// workload has drifted *behaviourally* (the plan silently drops dirt
    /// that no kAssertNull would catch) and the checkpointer falls back to
    /// generic capture and re-learns, exactly as for structural drift.
    /// 0 disables rolling re-observation.
    std::size_t reobserve_interval = 0;
    /// A sound pattern constructed offline (verify::infer_pattern). The
    /// checkpointer takes a pre-built pattern, not a program + binding:
    /// spec cannot depend on verify (verify links against spec), so the
    /// caller runs the analysis and hands the result down. When set, the
    /// pattern is compiled at construction with CompileOptions::
    /// verify_pattern forced on and the checkpointer starts in
    /// Stage::kStatic.
    std::optional<PatternNode> static_pattern;
  };

  enum class Stage : std::uint8_t { kObserving, kSpecialized, kStatic };

  struct Roots {
    /// The structure roots as Checkpointable pointers (generic path) and as
    /// concrete pointers matching the shape (specialized path), same order.
    std::span<core::Checkpointable* const> bases;
    std::span<void* const> concretes;
  };

  struct Result {
    Stage stage_used = Stage::kObserving;
    /// True when the specialized plan hit a structure violation and the
    /// checkpoint was re-issued through the generic driver.
    bool fell_back = false;
    std::size_t bytes = 0;
  };

  explicit AdaptiveCheckpointer(const ShapeDescriptor& shape)
      : AdaptiveCheckpointer(shape, Options{}) {}
  AdaptiveCheckpointer(const ShapeDescriptor& shape, Options opts);

  /// Write one incremental checkpoint of `roots` at `epoch` into `d`.
  Result checkpoint(io::DataWriter& d, Epoch epoch, Roots roots);

  [[nodiscard]] Stage stage() const noexcept { return stage_; }
  /// Compiled plan, or nullptr while still observing.
  [[nodiscard]] const Plan* plan() const noexcept {
    return stage_ == Stage::kObserving ? nullptr : &plan_;
  }
  [[nodiscard]] std::size_t epochs_observed() const noexcept {
    return epochs_observed_;
  }
  /// Times the specialized plan was abandoned for a generic fallback.
  [[nodiscard]] std::size_t fallbacks() const noexcept { return fallbacks_; }
  /// True once the static pattern has been cross-checked against
  /// observe_epochs of dynamic observation.
  [[nodiscard]] bool crosschecked() const noexcept { return crosschecked_; }
  /// Positions where the dynamically learned pattern disagreed with the
  /// static one (0 until crosschecked(), and 0 forever without a static
  /// pattern).
  [[nodiscard]] std::size_t disagreements() const noexcept {
    return disagreements_;
  }
  /// Completed rolling re-observation windows (0 with reobserve_interval
  /// of 0).
  [[nodiscard]] std::size_t reobservations() const noexcept {
    return reobservations_;
  }

  /// Discard the learned (or supplied static) pattern and start observing
  /// afresh.
  void relearn();

 private:
  void run_generic(io::DataWriter& d, Epoch epoch, const Roots& roots);

  const ShapeDescriptor* shape_;
  Options opts_;
  Stage stage_ = Stage::kObserving;
  std::unique_ptr<PatternInferencer> inferencer_;
  std::size_t epochs_observed_ = 0;
  std::size_t fallbacks_ = 0;
  bool crosschecked_ = false;
  std::size_t disagreements_ = 0;
  /// The pattern the active plan was compiled from — what rolling
  /// re-observation windows compare freshly learned behaviour against.
  PatternNode active_pattern_;
  std::size_t epochs_since_reobserve_ = 0;
  bool reobserving_ = false;
  std::unique_ptr<PatternInferencer> reobserver_;
  std::size_t reobserve_epochs_seen_ = 0;
  std::size_t reobservations_ = 0;
  /// Captured at construction (same idiom as PatternInferencer): the
  /// re-observation window runs on the checkpoint hot path.
  obs::Counter obs_reobserve_epochs_;
  Plan plan_;
  std::unique_ptr<PlanExecutor> executor_;
  /// Reused staging buffer for specialized runs: cleared chunks stay in the
  /// pool, so steady-state specialized epochs map nothing.
  io::ChunkPool scratch_pool_;
  io::ChunkSink scratch_{scratch_pool_};
};

}  // namespace ickpt::spec
