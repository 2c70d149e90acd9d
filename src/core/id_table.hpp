// IdTable: the ObjectId -> object index that recovery builds while it
// replays a stream and then hands over as RecoveredState::by_id.
//
// Ids come from one process-wide counter and a full checkpoint records them
// in DFS order, so a replayed stream is mostly runs of consecutive ids. The
// table is open addressing with linear probing over {id, object} slots. An
// id's home slot is a multiplicative (Fibonacci) hash of its 64-id run plus
// its offset inside the run: a run fills adjacent slots, the hash spreads
// the runs over the table, and strided ids (each in a run of its own) spread
// like any hashed key instead of piling up in one region. The load stays at
// most three quarters. kNullObjectId marks an empty slot; no record carries
// it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ickpt::core {

class Checkpointable;

class IdTable {
  struct Slot {
    ObjectId id = kNullObjectId;  ///< kNullObjectId: the slot is empty
    Checkpointable* obj = nullptr;
  };

 public:
  /// The object stored under `id`, or nullptr.
  [[nodiscard]] Checkpointable* find(ObjectId id) const noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      // An empty slot ends the probe, and its obj is null.
      if (s.id == id || s.id == kNullObjectId) return s.obj;
    }
  }

  /// Store `obj` under `id`, which must be non-null and not present yet.
  void insert(ObjectId id, Checkpointable* obj) {
    if (4 * (size_ + 1) > 3 * slots_.size())
      rehash(std::max(kMinSlots, 2 * slots_.size()));
    place(id, obj);
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Visits every (id, object) pair, in slot order.
  class const_iterator {
   public:
    const_iterator(const Slot* at, const Slot* end) : at_(at), end_(end) {
      skip_empty();
    }
    std::pair<ObjectId, Checkpointable*> operator*() const {
      return {at_->id, at_->obj};
    }
    const_iterator& operator++() {
      ++at_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    void skip_empty() {
      while (at_ != end_ && at_->id == kNullObjectId) ++at_;
    }
    const Slot* at_;
    const Slot* end_;
  };
  [[nodiscard]] const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  [[nodiscard]] const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  static constexpr unsigned kRunBits = 6;
  static constexpr std::size_t kMinSlots = 64;

  [[nodiscard]] std::size_t home(ObjectId id) const noexcept {
    const std::uint64_t run = (id >> kRunBits) * 0x9E3779B97F4A7C15ULL;
    const std::uint64_t offset = id & ((1U << kRunBits) - 1);
    return static_cast<std::size_t>((run >> shift_) + offset) & mask_;
  }

  void place(ObjectId id, Checkpointable* obj) noexcept {
    std::size_t i = home(id);
    while (slots_[i].id != kNullObjectId) i = (i + 1) & mask_;
    slots_[i] = Slot{id, obj};
  }

  void rehash(std::size_t slots) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const Slot& s : old)
      if (s.id != kNullObjectId) place(s.id, s.obj);
  }

  std::vector<Slot> slots_;  // a power of two, at least kMinSlots, or none
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace ickpt::core
