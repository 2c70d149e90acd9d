#include "core/checkpoint.hpp"

#include "io/byte_sink.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

Checkpoint::Checkpoint(io::DataWriter& d, CheckpointOptions opts)
    : d_(d),
      mode_(opts.mode),
      dry_(opts.dry_run),
      guard_(opts.cycle_guard),
      prof_(opts.profile) {
  bind_hooks(opts.hooks);
}

void Checkpoint::checkpoint_record_only(Checkpointable& o) {
  if (prof_ != nullptr) {
    checkpoint_profiled(o, /*fold_children=*/false);
    return;
  }
  if (guard_) {
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
      write_record_header(
          d_, [&] { return o.type_id(); }, [&] { return info.id(); });
      o.record(d_);
      info.reset_modified();
    }
  }
}

void Checkpoint::checkpoint_profiled(Checkpointable& o, bool fold_children) {
  // Mark-based attribution: `mark` advances past each measured segment, so
  // every nanosecond between entry and the start of fold() lands in exactly
  // one stage. The fold interval itself is accounted by the children's own
  // visits plus the enclosing ScopedWalk's kRootWalk residual.
  using P = obs::CaptureProfile;
  std::uint64_t mark = obs::trace_now_ns();
  if (guard_) {
    prof_->visited_probes += 1;
    const bool fresh = visited_.insert(o.info().id()).second;
    bool claimed = true;
    if (fresh && claims_ != nullptr) {
      prof_->claim_attempts += 1;
      claimed = claims_->claim(o.info().id(), &prof_->claim_cas_retries);
      if (!claimed) prof_->claims_lost += 1;
    }
    const std::uint64_t now = obs::trace_now_ns();
    prof_->stage_ns[P::kClaim] += now - mark;
    mark = now;
    if (!fresh || !claimed) {
      if (revisit_ != nullptr) (*revisit_)(o);
      return;
    }
  }
  ++stats_.objects_visited;
  prof_->objects += 1;
  CheckpointInfo& info = o.info();
  const bool record = mode_ == Mode::kFull || info.modified();
  {
    const std::uint64_t now = obs::trace_now_ns();
    prof_->stage_ns[P::kDirtyTest] += now - mark;
    mark = now;
  }
  if (record) {
    ++stats_.objects_recorded;
    prof_->records += 1;
    if (!dry_) {
      write_record_header(
          d_, [&] { return o.type_id(); }, [&] { return info.id(); });
      o.record(d_);
      info.reset_modified();
    }
    prof_->stage_ns[P::kSerialize] += obs::trace_now_ns() - mark;
  }
  if (!fold_children) return;
  if (enter_ != nullptr) (*enter_)(o);
  o.fold(*this);
  if (leave_ != nullptr) (*leave_)(o);
}

void Checkpoint::collect_children(Checkpointable& o,
                                  std::vector<Checkpointable*>& out) {
  io::CountingSink sink;
  io::DataWriter d(sink, 16);
  CheckpointOptions opts;
  opts.dry_run = true;
  Checkpoint collector(d, opts);
  collector.collect_ = &out;
  o.fold(collector);
}

CheckpointStats Checkpoint::run(io::DataWriter& d, Epoch epoch,
                                std::span<Checkpointable* const> roots,
                                CheckpointOptions opts) {
  if (!opts.dry_run) write_stream_header(d, opts.mode, epoch, roots, ref_id);
  Checkpoint c(d, opts);
  {
    // Residual attribution: the walk wall not claimed by dirty-test /
    // serialize / claim becomes kRootWalk (no-op when profile is null).
    obs::ScopedWalk walk(opts.profile);
    for (Checkpointable* root : roots)
      if (root != nullptr) c.checkpoint(*root);
  }
  if (opts.profile != nullptr) opts.profile->epochs += 1;
  if (!opts.dry_run) write_end(d);
  return c.stats();
}

}  // namespace ickpt::core
