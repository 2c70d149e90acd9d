#include "spec/adaptive.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ickpt::spec {

AdaptiveCheckpointer::AdaptiveCheckpointer(const ShapeDescriptor& shape,
                                           Options opts)
    : shape_(&shape),
      opts_(std::move(opts)),
      inferencer_(std::make_unique<PatternInferencer>(shape)),
      obs_reobserve_epochs_(obs::counter("ickpt_reobservation_epochs_total",
                                         {{"shape", shape.name}})) {
  if (opts_.observe_epochs == 0)
    throw SpecError("AdaptiveCheckpointer needs at least one observation "
                    "epoch");
  if (opts_.static_pattern.has_value()) {
    // A statically inferred pattern carries stronger claims than learned
    // ones, so it never bypasses the verifying gate: a pattern that cannot
    // survive verification has no business replacing learning.
    CompileOptions gated = opts_.compile;
    gated.verify_pattern = true;
    plan_ = PlanCompiler(gated).compile(*shape_, *opts_.static_pattern);
    executor_ = std::make_unique<PlanExecutor>(plan_);
    active_pattern_ = *opts_.static_pattern;
    stage_ = Stage::kStatic;
    obs::counter("ickpt_adaptive_static_plans_total",
                 {{"shape", shape_->name}})
        .inc();
  }
}

void AdaptiveCheckpointer::run_generic(io::DataWriter& d, Epoch epoch,
                                       const Roots& roots) {
  core::CheckpointOptions copts;
  copts.mode = core::Mode::kIncremental;
  core::Checkpoint::run(d, epoch, roots.bases, copts);
}

void AdaptiveCheckpointer::relearn() {
  stage_ = Stage::kObserving;
  inferencer_ = std::make_unique<PatternInferencer>(*shape_);
  epochs_observed_ = 0;
  executor_.reset();
  // A static pattern that drifted structurally is as stale as a learned
  // one: dynamic observation is the fallback for both.
  opts_.static_pattern.reset();
  crosschecked_ = false;
  reobserving_ = false;
  reobserver_.reset();
  reobserve_epochs_seen_ = 0;
  epochs_since_reobserve_ = 0;
}

AdaptiveCheckpointer::Result AdaptiveCheckpointer::checkpoint(
    io::DataWriter& d, Epoch epoch, Roots roots) {
  if (roots.bases.size() != roots.concretes.size())
    throw SpecError("adaptive checkpoint: root span size mismatch");

  Result result;
  const std::size_t before = d.bytes_written();

  if (stage_ != Stage::kObserving) {
    // Cross-check a static plan for its first observe_epochs epochs: sample
    // the flags before the plan resets them, then compare the learned
    // pattern against the proven one. A disagreement means the workload
    // under-exercises a position the write set proves writable — the
    // learned pattern would have been unsound.
    if (stage_ == Stage::kStatic && !crosschecked_) {
      for (void* root : roots.concretes) inferencer_->observe(root);
      ++epochs_observed_;
      if (epochs_observed_ >= opts_.observe_epochs) {
        crosschecked_ = true;
        PatternNode learned = inferencer_->infer(opts_.infer);
        disagreements_ =
            pattern_disagreements(*shape_, *opts_.static_pattern, learned);
        obs::counter("ickpt_static_dynamic_disagreements_total",
                     {{"shape", shape_->name}})
            .inc(disagreements_);
        obs::instant("adaptive.crosscheck", "spec",
                     shape_->name + ": learned pattern disagrees with "
                                    "static one at " +
                         std::to_string(disagreements_) + " position(s)");
      }
    } else if (opts_.reobserve_interval > 0) {
      // Rolling re-observation: the one-shot cross-check above only proves
      // the pattern against the workload as it behaved *then*. Periodically
      // re-enter a counted observation window so behavioural drift — the
      // workload dirtying positions the active plan neither tests nor
      // records — trips a fallback instead of silently losing records
      // forever.
      if (!reobserving_ &&
          ++epochs_since_reobserve_ >= opts_.reobserve_interval) {
        reobserving_ = true;
        reobserver_ = std::make_unique<PatternInferencer>(*shape_);
        reobserve_epochs_seen_ = 0;
        epochs_since_reobserve_ = 0;
      }
      if (reobserving_) {
        // Sample flags before the plan run resets them.
        for (void* root : roots.concretes) reobserver_->observe(root);
        ++reobserve_epochs_seen_;
        obs_reobserve_epochs_.inc();
        if (reobserve_epochs_seen_ >= opts_.observe_epochs) {
          PatternNode learned = reobserver_->infer(opts_.infer);
          const std::size_t unsafe =
              pattern_unsafe_disagreements(*shape_, active_pattern_, learned);
          reobserving_ = false;
          reobserver_.reset();
          ++reobservations_;
          if (unsafe > 0) {
            // The active plan silently drops dirt at `unsafe` position(s):
            // fall back *before* running it. Flags are intact (the plan has
            // not run this epoch), so the observing path below can issue a
            // sound generic incremental checkpoint.
            ++fallbacks_;
            obs::counter("ickpt_adaptive_fallbacks_total",
                         {{"shape", shape_->name}})
                .inc();
            obs::instant("adaptive.fallback", "spec",
                         shape_->name +
                             ": behaviour drifted from active pattern at " +
                             std::to_string(unsafe) +
                             " position(s), re-learning");
            relearn();
            result.fell_back = true;
          }
        }
      }
    }
  }

  if (stage_ != Stage::kObserving) {
    // Stage the specialized stream in the reusable scratch buffer: if the
    // structure violates the pattern mid-run we must not leave a partial
    // checkpoint in the caller's stream. Writing through to the caller
    // directly would be faster but unsafe — a mid-run SpecError after N
    // records would leave an unterminated stream the reader cannot
    // distinguish from truncation. clear() returns the chunks to the
    // scratch pool, so steady state maps nothing.
    scratch_.clear();
    bool ok = true;
    try {
      run_plan_checkpoint_parallel(scratch_, epoch, roots.concretes,
                                   *executor_, opts_.capture_threads);
    } catch (const SpecError&) {
      ok = false;
    }
    if (ok) {
      for (const std::span<const std::uint8_t> r : scratch_.ranges())
        d.write_bytes(r.data(), r.size());
      result.stage_used = stage_;
      result.bytes = d.bytes_written() - before;
      return result;
    }
    // Structure drifted: fall back for this checkpoint and re-learn.
    // The aborted plan run may have reset some flags already — they were
    // reset exactly for objects whose records are in the scratch buffer,
    // which we are discarding. Restore them so the generic pass records
    // those objects again. We cannot know which they were, so conservative
    // recovery is to re-mark every object the plan *could* have recorded:
    // simplest sound choice is to re-run generically over a full-mode
    // checkpoint for this epoch.
    ++fallbacks_;
    obs::counter("ickpt_adaptive_fallbacks_total", {{"shape", shape_->name}})
        .inc();
    obs::instant("adaptive.fallback", "spec",
                 shape_->name + ": structure drifted from " +
                     (stage_ == Stage::kStatic ? "static" : "learned") +
                     " pattern, re-learning");
    relearn();
    core::CheckpointOptions copts;
    copts.mode = core::Mode::kFull;  // sound despite half-reset flags
    core::Checkpoint::run(d, epoch, roots.bases, copts);
    result.stage_used = Stage::kObserving;
    result.fell_back = true;
    result.bytes = d.bytes_written() - before;
    return result;
  }

  // Observing: sample flags before the generic pass resets them.
  for (void* root : roots.concretes) inferencer_->observe(root);
  ++epochs_observed_;
  run_generic(d, epoch, roots);
  result.stage_used = Stage::kObserving;
  result.bytes = d.bytes_written() - before;

  if (epochs_observed_ >= opts_.observe_epochs) {
    PatternNode pattern = inferencer_->infer(opts_.infer);
    plan_ = PlanCompiler(opts_.compile).compile(*shape_, pattern);
    executor_ = std::make_unique<PlanExecutor>(plan_);
    active_pattern_ = std::move(pattern);
    epochs_since_reobserve_ = 0;
    stage_ = Stage::kSpecialized;
    obs::counter("ickpt_adaptive_specializations_total",
                 {{"shape", shape_->name}})
        .inc();
    obs::instant("adaptive.specialize", "spec",
                 shape_->name + ": plan of " +
                     std::to_string(plan_.ops.size()) + " op(s) after " +
                     std::to_string(epochs_observed_) + " epoch(s)");
  }
  return result;
}

}  // namespace ickpt::spec
