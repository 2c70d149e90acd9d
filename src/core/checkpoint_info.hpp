// CheckpointInfo: per-object checkpoint bookkeeping (paper Fig. 1).
//
// Every checkpointable object owns one CheckpointInfo holding a process-wide
// unique identifier and the `modified` flag used by incremental
// checkpointing. As in the paper, a freshly constructed object is marked
// modified so the next incremental checkpoint records it.
//
// The paper relies on the JVM for id allocation; here IdAllocator is a
// lock-free global counter that recovery bumps past every id it re-creates,
// so post-recovery allocations never collide with restored objects.
#pragma once

#include <atomic>
#include <cstdlib>

#include "common/types.hpp"

namespace ickpt::core {

class IdAllocator {
 public:
  /// Largest id next() hands out, and so the largest a stream may carry
  /// (Recovery::apply rejects 2^64 - 1).
  static constexpr ObjectId kMaxId = ~ObjectId{0} - 1;

  /// Next unused id, at most kMaxId. Never returns kNullObjectId: once the
  /// ids are used up (reachable only by restoring one near kMaxId) the
  /// process aborts rather than wrap to the null id or write an id that
  /// recovery would reject.
  static ObjectId next() noexcept {
    const ObjectId id = counter().fetch_add(1, std::memory_order_relaxed);
    if (id == kNullObjectId || id > kMaxId) std::abort();
    return id;
  }

  /// Ensure future next() calls return ids strictly greater than `id`.
  /// After kMaxId, or an id above it, they abort instead.
  static void bump_past(ObjectId id) noexcept {
    auto& c = counter();
    ObjectId cur = c.load(std::memory_order_relaxed);
    while (cur <= id &&
           !c.compare_exchange_weak(cur, id + 1, std::memory_order_relaxed)) {
    }
  }

 private:
  static std::atomic<ObjectId>& counter() noexcept {
    static std::atomic<ObjectId> counter{1};
    return counter;
  }
};

class CheckpointInfo {
 public:
  /// Live construction: allocate a fresh id; object starts modified so the
  /// next incremental checkpoint picks it up (paper Fig. 1 constructor).
  CheckpointInfo() noexcept : id_(IdAllocator::next()) {}

  /// Recovery construction: reuse the recorded id.
  explicit CheckpointInfo(ObjectId id) noexcept : id_(id) {
    IdAllocator::bump_past(id);
  }

  [[nodiscard]] ObjectId id() const noexcept { return id_; }
  [[nodiscard]] bool modified() const noexcept { return modified_; }

  /// Called by every mutator of the owning object (intrusive tracking; this
  /// is the paper's "flag updated on assignment").
  void set_modified() noexcept { modified_ = true; }

  /// Called by the checkpointer after recording the object.
  void reset_modified() noexcept { modified_ = false; }

 private:
  ObjectId id_;
  bool modified_ = true;
};

}  // namespace ickpt::core
