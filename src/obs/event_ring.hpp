// EventRing<T>: the one bounded, lock-free, multi-producer event store of
// src/obs/. The flight recorder keeps one per recorder; span tracing keeps
// one for the whole process.
//
// Each push takes a ticket; ticket t lands in slot t & mask, so the ring
// holds the newest capacity() tickets. A slot is a seqlock whose version is
// odd while a writer copies and reads 2*(t+1) once ticket t's event is in
// place. The payload travels through relaxed atomic words, so no access is
// a data race, and no std::atomic_thread_fence is used (ThreadSanitizer
// does not model fences, and GCC warns -Wtsan on one):
//
//  - claim: a writer CASes (acquire) the version from an even value no
//    greater than 2*t to 2*t+1. An odd version (a writer is mid-copy), a
//    larger one (a later lap landed) or a lost CAS drops the event, so two
//    writers never copy into one slot at once;
//  - publish: fetch_add(1, release). Every write to a version is a
//    read-modify-write, so each release heads a release sequence that the
//    next claim's acquire synchronizes with;
//  - read: load(acquire) == 2*(t+1), relaxed word loads, then a re-check
//    with fetch_add(0, release) — Boehm's fence-free seqlock reader ("Can
//    Seqlocks Get Along with Programming Language Memory Models?", MSPC
//    2012). Had a word load seen a later writer's store, the re-check could
//    not precede that writer's claim in the version's modification order
//    (it would then happen before the store), so it sees a newer version.
//
// A reader never returns a torn event; a ticket it cannot read (overwritten,
// dropped by its writer, or still being copied) is simply absent.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace ickpt::obs {

template <typename T>
class EventRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots shuttle events through word-wise atomic copies");

 public:
  /// Holds `capacity` events, rounded up to a power of two (at least 1).
  explicit EventRing(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 1)) - 1),
        slots_(new Slot[mask_ + 1]) {}

  /// Store one event. Lock-free and never blocks; the event is dropped
  /// when its slot is busy or already reused (readers then skip it).
  void push(const T& event) noexcept {
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &event, sizeof(T));
    const std::uint64_t t = ticket_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[t & mask_];
    std::uint64_t v = slot.version.load(std::memory_order_relaxed);
    if ((v & 1) != 0 || v > 2 * t ||
        !slot.version.compare_exchange_strong(v, 2 * t + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed))
      return;
    for (std::size_t i = 0; i < kWords; ++i)
      slot.words[i].store(words[i], std::memory_order_relaxed);
    slot.version.fetch_add(1, std::memory_order_release);
  }

  /// Append to `out`, oldest first, every event of tickets [from, end) that
  /// is still readable, where `end` is tickets() at the call; returns
  /// `end`. Tickets older than end - capacity() are never read.
  std::uint64_t read(std::uint64_t from, std::vector<T>& out) const {
    const std::uint64_t end = tickets();
    const std::uint64_t cap = mask_ + 1;
    std::uint64_t t = std::max(from, end > cap ? end - cap : 0);
    for (; t < end; ++t) {
      // The re-check below writes the version, so slots stay mutable here.
      Slot& slot = slots_[t & mask_];
      const std::uint64_t want = 2 * (t + 1);
      if (slot.version.load(std::memory_order_acquire) != want) continue;
      std::uint64_t words[kWords] = {};
      for (std::size_t i = 0; i < kWords; ++i)
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      if (slot.version.fetch_add(0, std::memory_order_release) != want)
        continue;
      T event;
      std::memcpy(&event, words, sizeof(T));
      out.push_back(event);
    }
    return end;
  }

  /// Tickets ever taken: events pushed, whether retained, overwritten or
  /// dropped.
  [[nodiscard]] std::uint64_t tickets() const noexcept {
    return ticket_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  struct Slot {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> words[kWords];
  };

  const std::size_t mask_;
  const std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> ticket_{0};
};

}  // namespace ickpt::obs
