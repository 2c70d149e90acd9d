// The Checkpointable interface (paper Fig. 1) and the object heap.
//
// A checkpointable class must expose its CheckpointInfo, know its registered
// TypeId, record its local state (scalars directly, children by id), fold the
// checkpointer over its children, and mirror record() during recovery.
//
// Ownership: as in Java, the object graph does not own its members — a Heap
// arena owns every checkpointable object and links between objects are plain
// non-owning pointers. Recovery materializes a fresh Heap.
//
// Concurrency: a capture may run record() and fold() of distinct objects at
// the same time, on different threads. Sharded capture
// (core/parallel_checkpoint.hpp) does so, and CheckpointManager picks it by
// default once a heap is large enough (ManagerOptions::kAutoThreads). So
// record() and fold() must not write state shared between objects (a
// static counter, a shared cache); each may write only its own object and
// the writer it is handed. One object is visited by one thread at a time
// only on the paper's acyclic, unshared graphs: a graph in which an object
// is reachable twice needs cycle_guard (CheckpointOptions, ManagerOptions),
// which gives each object to exactly one walker.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/checkpoint_info.hpp"
#include "io/data_reader.hpp"
#include "io/data_writer.hpp"

namespace ickpt::core {

class Checkpoint;
class Recovery;

/// Tag selecting the "reconstruct with a preserved id" constructor that every
/// checkpointable class provides for the TypeRegistry factory.
struct RestoreTag {};

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  [[nodiscard]] virtual CheckpointInfo& info() noexcept = 0;
  [[nodiscard]] virtual const CheckpointInfo& info() const noexcept = 0;

  /// The TypeId this class registered with the TypeRegistry.
  [[nodiscard]] virtual TypeId type_id() const noexcept = 0;

  /// Write the local state: base-type fields directly, each checkpointable
  /// child as its unique id (paper §2.1).
  virtual void record(io::DataWriter& d) const = 0;

  /// Apply the checkpointer to each checkpointable child (paper §2.1).
  virtual void fold(Checkpoint& c) = 0;

  /// Exact mirror of record(): read the local state back, resolving child
  /// ids through the Recovery context.
  virtual void restore_record(io::DataReader& d, Recovery& r) = 0;
};

/// Convenience base that stores the CheckpointInfo, as the paper factors it
/// out of each class.
class WithCheckpointInfo : public Checkpointable {
 public:
  WithCheckpointInfo() = default;
  explicit WithCheckpointInfo(ObjectId id) : info_(id) {}

  [[nodiscard]] CheckpointInfo& info() noexcept final { return info_; }
  [[nodiscard]] const CheckpointInfo& info() const noexcept final {
    return info_;
  }

 protected:
  CheckpointInfo info_;
};

/// Arena that owns every live checkpointable object (the Java heap analog).
class Heap {
 public:
  Heap() = default;
  /// Take ownership of objects constructed elsewhere (recovery path).
  explicit Heap(std::vector<std::unique_ptr<Checkpointable>> objects) noexcept
      : objects_(std::move(objects)) {}
  Heap(Heap&&) noexcept = default;
  Heap& operator=(Heap&&) noexcept = default;
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  template <class T, class... Args>
  T* make(Args&&... args) {
    auto obj = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = obj.get();
    objects_.push_back(std::move(obj));
    return raw;
  }

  /// Take ownership of one object constructed elsewhere.
  Checkpointable* adopt(std::unique_ptr<Checkpointable> obj) {
    Checkpointable* raw = obj.get();
    objects_.push_back(std::move(obj));
    return raw;
  }

  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

  void clear() noexcept { objects_.clear(); }

  /// Destroy every object for which `keep` returns false; returns how many
  /// were destroyed. Used by recovery's reachability pruning.
  template <class Pred>
  std::size_t retain_if(Pred keep) {
    const std::size_t before = objects_.size();
    std::erase_if(objects_,
                  [&](const std::unique_ptr<Checkpointable>& obj) {
                    return !keep(*obj);
                  });
    return before - objects_.size();
  }

 private:
  std::vector<std::unique_ptr<Checkpointable>> objects_;
};

/// The id a stream writes for a reference: the object's id, or
/// kNullObjectId for null. Child references (write_child_id) and
/// stream-header roots share this rule.
inline ObjectId ref_id(const Checkpointable* o) noexcept {
  return o != nullptr ? o->info().id() : kNullObjectId;
}

/// Record a child reference as its unique id (null child -> kNullObjectId).
inline void write_child_id(io::DataWriter& d, const Checkpointable* child) {
  d.write_varint(ref_id(child));
}

}  // namespace ickpt::core
