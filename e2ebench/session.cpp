#include "e2ebench/session.hpp"

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/recovery.hpp"
#include "io/data_reader.hpp"
#include "io/frame_index.hpp"

namespace e2e {

using namespace ickpt;

namespace {

const char* mode_tag(core::Mode mode) {
  return mode == core::Mode::kFull ? "full" : "incr";
}

}  // namespace

void Session::open_manager(const std::string& path) {
  begin_op();
  if (tracer_ == nullptr) {
    manager_ = std::make_unique<core::CheckpointManager>(path);
    return;
  }
  // The manager's constructor opens StableStorage; epochs resume at the
  // storage's next sequence number.
  open_log(path);
}

void Session::open_storage(const std::string& path) {
  begin_op();
  open_log(path);
}

void Session::open_log(const std::string& path) {
  Tracer::Scope span(tracer_, "io.open");
  storage_ = std::make_unique<io::StableStorage>(path);
  epoch_ = storage_->next_seq();
  span.tag(epoch_ > 0 ? "reopen" : "create");
}

Epoch Session::next_epoch() const {
  return manager_ != nullptr ? manager_->next_epoch() : epoch_;
}

void Session::append(const std::vector<std::uint8_t>& payload,
                     const char* tag) {
  Tracer::Scope span(tracer_, "io.append", tag);
  span.bytes(payload.size() + kFrameHeaderBytes);
  storage_->append(payload);
}

Take Session::capture_and_append(
    std::span<core::Checkpointable* const> roots, core::Mode mode) {
  if (storage_ == nullptr) throw Error("take on a closed session");
  Take out;
  out.epoch = epoch_++;
  out.mode = mode;
  Tracer::Scope outer(tracer_, "take", mode_tag(mode));
  io::VectorSink sink;
  {
    Tracer::Scope span(tracer_, "core.capture", mode_tag(mode));
    io::DataWriter writer(sink);
    core::CheckpointOptions copts;
    copts.mode = mode;
    out.stats = core::Checkpoint::run(writer, out.epoch, roots, copts);
    writer.flush();
  }
  out.bytes = sink.size();
  append(sink.take(), mode_tag(mode));
  return out;
}

Take Session::take(std::span<core::Checkpointable* const> roots) {
  begin_op();
  if (manager_ != nullptr) {
    const core::TakeResult r = manager_->take(roots);
    return Take{r.epoch, r.mode, r.bytes, r.stats};
  }
  // The manager's policy: a full checkpoint every full_interval epochs.
  const unsigned interval = core::ManagerOptions{}.full_interval;
  return capture_and_append(roots, epoch_ % interval == 0
                                       ? core::Mode::kFull
                                       : core::Mode::kIncremental);
}

Take Session::take_full(std::span<core::Checkpointable* const> roots) {
  begin_op();
  return capture_and_append(roots, core::Mode::kFull);
}

Take Session::take_plan(std::span<void* const> roots,
                        const spec::PlanExecutor& exec) {
  begin_op();
  if (storage_ == nullptr) throw Error("take_plan() without open_storage()");
  Take out;
  out.epoch = epoch_++;
  out.mode = core::Mode::kIncremental;
  Tracer::Scope outer(tracer_, "take", "incr");
  io::VectorSink sink;
  {
    Tracer::Scope span(tracer_, "spec.plan", "incr");
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, out.epoch, roots, exec);
    writer.flush();
  }
  out.bytes = sink.size();
  append(sink.take(), "incr");
  return out;
}

void Session::close() {
  manager_.reset();
  storage_.reset();
}

Recovered Session::recover(const std::string& path,
                           const core::TypeRegistry& registry,
                           std::optional<Epoch> target) {
  begin_op();
  Recovered out;
  if (tracer_ == nullptr) {
    core::RecoverResult r =
        target.has_value()
            ? core::CheckpointManager::recover_to_epoch(path, registry,
                                                        *target)
            : core::CheckpointManager::recover(path, registry);
    out.passes = r.stream_passes;
    out.frames = r.checkpoints_applied;
    out.state = std::move(r.state);
    return out;
  }
  // The replay covers the clean-log path recover() takes: one payload-free
  // index pass, then one stream that skips to the window's full checkpoint
  // and applies it and every delta up to the target (or the newest frame).
  Tracer::Scope outer(tracer_, target.has_value() ? "recover_to_epoch"
                                                  : "recover");
  io::FrameIndex index;
  {
    Tracer::Scope span(tracer_, "io.scan.index");
    index = io::index_frames(path, {.salvage = true},
                             core::stream_header_probe());
    if (!index.frames.empty()) {
      const io::IndexedFrame& tail = index.frames.back();
      span.bytes(tail.offset + kFrameHeaderBytes + tail.payload_bytes);
    }
  }
  if (!index.clean || index.frames.empty())
    throw CorruptionError("replay expects a clean, non-empty log: " + path);
  std::size_t end = index.frames.size();
  if (target.has_value()) {
    const std::optional<std::size_t> at = index.find_epoch(*target);
    if (!at.has_value())
      throw CorruptionError("epoch " + std::to_string(*target) +
                            " is not on " + path);
    end = *at + 1;
  }
  std::size_t begin = end;
  while (begin > 0) {
    const io::IndexedFrame& f = index.frames[--begin];
    if (f.header_ok && f.mode == static_cast<std::uint8_t>(core::Mode::kFull))
      break;
  }
  if (index.frames[begin].mode != static_cast<std::uint8_t>(core::Mode::kFull))
    throw CorruptionError("no full checkpoint anchors the window in " + path);

  core::Recovery recovery(registry);
  {
    io::FrameIterator it(path, {.salvage = true});
    io::Frame frame;
    for (std::size_t i = 0; i < end; ++i) {
      {
        Tracer::Scope span(tracer_, "io.scan.next", i < begin ? "skip" : "");
        if (!it.next(frame))
          throw CorruptionError("log shrank while recovering: " + path);
        span.bytes(kFrameHeaderBytes + frame.payload.size());
      }
      if (i < begin) continue;
      Tracer::Scope span(tracer_, "core.recovery.apply");
      io::DataReader reader(frame.payload);
      recovery.apply(reader);
    }
  }
  {
    Tracer::Scope span(tracer_, "core.recovery.finish");
    out.state = recovery.finish();
  }
  out.passes = 2;
  out.frames = end - begin;
  return out;
}

std::vector<core::HistoryEntry> Session::history(const std::string& path) {
  begin_op();
  Tracer::Scope span(tracer_, "core.history");
  return core::CheckpointManager::history(path);
}

core::CompactResult Session::compact(const std::string& path,
                                     const core::TypeRegistry& registry,
                                     core::CompactPolicy policy) {
  begin_op();
  Tracer::Scope span(tracer_, "core.compact");
  return core::CheckpointManager::compact(path, registry,
                                          core::CompactOptions{.policy = policy});
}

}  // namespace e2e
