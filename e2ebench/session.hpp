// The benchmark's view of the checkpoint library. Untraced, every method is
// one call into the composite public API (CheckpointManager::take,
// ::recover, ...), which is what an application pays and what the
// end-to-end metrics time. Traced, take() and recover() are replayed as
// their public parts, each wrapped in a span, doing the same work:
//
//   take()    Checkpoint::run into a VectorSink, then StableStorage::append
//   recover() index_frames, then a FrameIterator stream that feeds
//             Recovery::apply frame by frame, then Recovery::finish
//
// history() and compact() stay single calls (one span each) in both modes.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/type_registry.hpp"
#include "e2ebench/harness.hpp"
#include "io/stable_storage.hpp"
#include "spec/executor.hpp"

namespace e2e {

struct Take {
  ickpt::Epoch epoch = 0;
  ickpt::core::Mode mode = ickpt::core::Mode::kFull;
  /// Payload bytes (the frame adds a 20-byte header on the log).
  std::size_t bytes = 0;
  ickpt::core::CheckpointStats stats;
};

/// A recovered state plus the facts both modes can report identically.
struct Recovered {
  ickpt::core::RecoveredState state;
  /// Times the log was streamed end to end (RecoverResult::stream_passes).
  std::size_t passes = 0;
  /// Frames replayed (RecoverResult::checkpoints_applied).
  std::size_t frames = 0;
};

/// Bytes of the frame header StableStorage writes before each payload.
inline constexpr std::size_t kFrameHeaderBytes = 20;

class Session {
 public:
  /// `tracer == nullptr` selects the untraced composite calls.
  explicit Session(Tracer* tracer) : tracer_(tracer) {}

  /// Open the log for generic checkpoints with default ManagerOptions: a
  /// CheckpointManager untraced, StableStorage traced.
  void open_manager(const std::string& path);
  /// Open the log for application-driven buffered appends (StableStorage
  /// in both modes); the caller picks each frame's capture path.
  void open_storage(const std::string& path);

  [[nodiscard]] ickpt::Epoch next_epoch() const;

  /// One policy-chosen checkpoint (full every full_interval epochs).
  Take take(std::span<ickpt::core::Checkpointable* const> roots);
  /// Storage-level takes: a generic full, or a specialized incremental.
  Take take_full(std::span<ickpt::core::Checkpointable* const> roots);
  Take take_plan(std::span<void* const> roots,
                 const ickpt::spec::PlanExecutor& exec);

  void close();

  Recovered recover(const std::string& path,
                    const ickpt::core::TypeRegistry& registry,
                    std::optional<ickpt::Epoch> target);
  std::vector<ickpt::core::HistoryEntry> history(const std::string& path);
  ickpt::core::CompactResult compact(const std::string& path,
                                     const ickpt::core::TypeRegistry& registry,
                                     ickpt::core::CompactPolicy policy);

 private:
  /// StableStorage on `path` (span "io.open"); epochs resume at its next
  /// sequence number.
  void open_log(const std::string& path);
  /// The traced take: Checkpoint::run into a VectorSink, then append().
  Take capture_and_append(std::span<ickpt::core::Checkpointable* const> roots,
                          ickpt::core::Mode mode);
  void append(const std::vector<std::uint8_t>& payload, const char* tag);
  void begin_op() {
    if (tracer_ != nullptr) tracer_->begin_op();
  }

  Tracer* tracer_;
  std::unique_ptr<ickpt::core::CheckpointManager> manager_;
  std::unique_ptr<ickpt::io::StableStorage> storage_;
  ickpt::Epoch epoch_ = 0;
};

}  // namespace e2e
