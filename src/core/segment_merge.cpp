#include "core/segment_merge.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/checkpoint_format.hpp"
#include "io/byte_sink.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

namespace {

/// Ordered merge cursor over `nitems` segments feeding one DataWriter.
///
/// Threading: item states advance pending -> published -> streamed with
/// release/acquire pairs on the state atomic, so segment bytes written by
/// one thread are visible to the drainer. The cursor mutex serializes only
/// frontier advancement and caller-writer access; claim arbitration and
/// work claiming are lock-free (see claim_table.hpp).
class SegmentMerge {
 public:
  /// `write_header` runs under the cursor lock immediately before the first
  /// streamed byte.
  SegmentMerge(io::DataWriter& d, std::size_t nitems,
               const std::function<void(io::DataWriter&)>& write_header)
      : d_(d), write_header_(write_header), items_(nitems) {}

  SegmentMerge(const SegmentMerge&) = delete;
  SegmentMerge& operator=(const SegmentMerge&) = delete;

  /// Hand item `i`'s recorded bytes to the cursor (out-of-order path).
  /// After this the segment belongs to the merge; the worker moves on.
  void publish(std::size_t i, std::vector<std::uint8_t>&& bytes);

  /// Opportunistically advance the frontier: stream every contiguous
  /// published segment starting at the frontier. Returns without blocking
  /// if another thread holds the cursor. Safe to call from any worker.
  void try_drain();

  /// RAII grant to write item `i` directly into the caller's writer.
  /// Holding it holds the cursor lock — keep the critical section to the
  /// item's own recording. commit() marks the item streamed, advances the
  /// frontier, and drains any segments it unblocked.
  class Direct {
   public:
    Direct(SegmentMerge& m, std::size_t item,
           std::unique_lock<std::mutex> lock) noexcept
        : m_(&m), item_(item), lock_(std::move(lock)) {}

    [[nodiscard]] io::DataWriter& writer() noexcept { return m_->d_; }
    void commit();

   private:
    SegmentMerge* m_;
    std::size_t item_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Try to claim direct-streaming rights for item `i`. Succeeds only when
  /// `i` is the current frontier, the header is already out (item 0 always
  /// buffers, so a pre-header throw leaves the writer untouched), and the
  /// cursor lock is free right now. nullopt means: record into a private
  /// sink and publish() instead.
  [[nodiscard]] std::optional<Direct> try_direct(std::size_t i);

  /// Blocking final drain: streams everything still published, and writes
  /// the header even for an empty item set (nitems == 0). Called once after
  /// a successful join; NOT called on failure, which is what keeps a failed
  /// capture byte-free.
  void finish();

  [[nodiscard]] std::size_t frontier() const noexcept {
    return frontier_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t backlog_bytes() const noexcept {
    return backlog_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t buffered_peak_bytes() const noexcept {
    return peak_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t merge_ns() const noexcept {
    return merge_ns_.load(std::memory_order_acquire);
  }
  /// Last published segment's size — a reserve() hint for the next
  /// private sink, killing the realloc ramp on steady-state captures.
  [[nodiscard]] std::size_t reserve_hint() const noexcept {
    return reserve_hint_.load(std::memory_order_relaxed);
  }

 private:
  enum : std::uint8_t { kPending = 0, kPublished = 1, kStreamed = 2 };

  struct Item {
    std::atomic<std::uint8_t> state{kPending};
    std::vector<std::uint8_t> bytes;  // valid only in kPublished
  };

  /// Requires mu_ held. Streams contiguous published segments from the
  /// frontier, writing the header before the first byte.
  void drain_locked();

  io::DataWriter& d_;
  const std::function<void(io::DataWriter&)>& write_header_;
  std::vector<Item> items_;
  std::mutex mu_;
  bool header_written_ = false;  // guarded by mu_
  std::atomic<std::size_t> frontier_{0};
  std::atomic<std::size_t> backlog_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> reserve_hint_{0};
  std::atomic<std::uint64_t> merge_ns_{0};
};

void SegmentMerge::publish(std::size_t i, std::vector<std::uint8_t>&& bytes) {
  Item& it = items_[i];
  const std::size_t n = bytes.size();
  reserve_hint_.store(n, std::memory_order_relaxed);
  const std::size_t backlog =
      backlog_.fetch_add(n, std::memory_order_acq_rel) + n;
  it.bytes = std::move(bytes);
  it.state.store(kPublished, std::memory_order_release);
  // Sample the backlog high-water on publish — its maximum is only ever
  // attained right after an add. The frontier item is excluded: its bytes
  // are about to stream, so they are not out-of-order volume.
  if (i != frontier_.load(std::memory_order_acquire)) {
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (backlog > peak && !peak_.compare_exchange_weak(
                                 peak, backlog, std::memory_order_relaxed)) {
    }
  }
}

void SegmentMerge::drain_locked() {
  std::size_t f = frontier_.load(std::memory_order_relaxed);
  if (f >= items_.size() ||
      items_[f].state.load(std::memory_order_acquire) != kPublished) {
    return;
  }
  const std::uint64_t t0 = obs::trace_now_ns();
  do {
    Item& it = items_[f];
    if (!header_written_) {
      write_header_(d_);
      header_written_ = true;
    }
    if (!it.bytes.empty()) {
      d_.write_bytes(it.bytes.data(), it.bytes.size());
      backlog_.fetch_sub(it.bytes.size(), std::memory_order_acq_rel);
      std::vector<std::uint8_t>().swap(it.bytes);
    }
    it.state.store(kStreamed, std::memory_order_release);
    frontier_.store(++f, std::memory_order_release);
  } while (f < items_.size() &&
           items_[f].state.load(std::memory_order_acquire) == kPublished);
  merge_ns_.fetch_add(obs::trace_now_ns() - t0, std::memory_order_relaxed);
}

void SegmentMerge::try_drain() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  drain_locked();
}

std::optional<SegmentMerge::Direct> SegmentMerge::try_direct(std::size_t i) {
  // Cheap pre-checks without the lock; re-validated under it.
  if (frontier_.load(std::memory_order_acquire) != i) return std::nullopt;
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return std::nullopt;
  // header_written_ implies item 0 already streamed, so i > 0 here: item 0
  // always takes the buffered path, which is what keeps a pre-header worker
  // throw byte-free in the caller's sink.
  if (!header_written_ || frontier_.load(std::memory_order_relaxed) != i) {
    return std::nullopt;
  }
  return std::optional<Direct>(std::in_place, *this, i, std::move(lock));
}

void SegmentMerge::Direct::commit() {
  m_->items_[item_].state.store(kStreamed, std::memory_order_release);
  m_->frontier_.store(item_ + 1, std::memory_order_release);
  m_->drain_locked();  // stream whatever this item was blocking
  lock_.unlock();
}

void SegmentMerge::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
  if (!header_written_) {
    write_header_(d_);
    header_written_ = true;
  }
}

struct PoolStats {
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_failures = 0;
  std::uint64_t wait_ns = 0;  ///< coordinator join wait (kMergeWait)
};

/// The frontier-preferring work-stealing pool behind run_sharded_capture:
/// runs every item once, filling `items` (one entry per item). Scheduling
/// policy, in priority order for each worker iteration:
///   1. the frontier item, if unclaimed — try to stream it directly
///      (zero-copy) or at least get it recorded so the frontier can move;
///   2. when the published backlog exceeds the budget, yield instead of
///      buffering more (oversubscribed boxes: recording ahead of the
///      frontier only grows memory without any wall-clock win);
///   3. the worker's own home block, then stealing from the other blocks in
///      round-robin order.
PoolStats run_workers(SegmentMerge& merge, const ShardRunOptions& opts,
                      const ExecuteItem& execute,
                      std::vector<obs::CaptureProfile>& item_profiles,
                      std::vector<MergeItemResult>& items) {
  const std::size_t nitems = items.size();
  const std::size_t nthreads = std::clamp<std::size_t>(opts.threads, 1, nitems);
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Cursor> cursors(nthreads);
  const std::size_t base = nitems / nthreads;
  const std::size_t extra = nitems % nthreads;
  std::size_t at = 0;
  for (std::size_t w = 0; w < nthreads; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    cursors[w].begin = at;
    cursors[w].next.store(at, std::memory_order_relaxed);
    cursors[w].end = at + len;
    at += len;
  }

  auto taken = std::make_unique<std::atomic<bool>[]>(nitems);
  for (std::size_t i = 0; i < nitems; ++i)
    taken[i].store(false, std::memory_order_relaxed);
  std::atomic<std::size_t> remaining{nitems};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto try_take = [&](std::size_t i) {
    bool expected = false;
    if (taken[i].compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      remaining.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
    return false;
  };

  // Scan a cursor's block for the next unclaimed item. The cursor only
  // moves forward past items that are already taken (possibly out-of-band
  // by the frontier preference), so an unclaimed item is never skipped.
  auto take_from = [&](Cursor& c) -> std::size_t {
    for (;;) {
      if (c.next.load(std::memory_order_relaxed) >= c.end) return SIZE_MAX;
      const std::size_t i = c.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= c.end) return SIZE_MAX;
      if (try_take(i)) return i;
    }
  };

  std::vector<PoolStats> tallies(nthreads);

  auto worker_fn = [&](std::size_t w) {
    PoolStats& tally = tallies[w];
    io::VectorSink sink;
    try {
      for (;;) {
        if (failed.load(std::memory_order_acquire)) break;
        std::size_t item = SIZE_MAX;
        // Priority 1: the frontier item — getting it done is the only way
        // the stream (and everyone's direct path) moves forward.
        const std::size_t f = merge.frontier();
        if (f < nitems && !taken[f].load(std::memory_order_acquire) &&
            try_take(f)) {
          item = f;
          if (f < cursors[w].begin || f >= cursors[w].end) ++tally.steals;
        }
        if (item == SIZE_MAX) {
          if (remaining.load(std::memory_order_acquire) == 0) break;
          // Priority 2: over budget — recording further ahead of the
          // frontier only grows memory; help drain and let the frontier
          // owner run (the oversubscribed-box policy).
          if (merge.backlog_bytes() > opts.backlog_budget) {
            merge.try_drain();
            std::this_thread::yield();
            continue;
          }
          // Priority 3: own block, then steal.
          item = take_from(cursors[w]);
          if (item == SIZE_MAX) {
            for (std::size_t v = 1; v < nthreads && item == SIZE_MAX; ++v) {
              Cursor& victim = cursors[(w + v) % nthreads];
              ++tally.steal_attempts;
              item = take_from(victim);
              if (item == SIZE_MAX) ++tally.steal_failures;
            }
            if (item == SIZE_MAX) {
              if (remaining.load(std::memory_order_acquire) == 0) break;
              std::this_thread::yield();  // lost a race; re-scan
              continue;
            }
            ++tally.steals;
          }
        }

        MergeItemResult& result = items[item];
        result.worker = w;
        obs::CaptureProfile* prof =
            item_profiles.empty() ? nullptr : &item_profiles[item];
        if (auto grant = merge.try_direct(item)) {
          io::DataWriter& writer = grant->writer();
          const std::size_t before = writer.bytes_written();
          execute(item, writer, prof);
          result.bytes = writer.bytes_written() - before;
          result.direct = true;
          grant->commit();
        } else {
          sink.clear();
          if (const std::size_t hint = merge.reserve_hint(); hint != 0)
            sink.reserve(hint);
          {
            io::DataWriter dw(sink);
            execute(item, dw, prof);
            result.bytes = dw.bytes_written();
            dw.flush();
          }
          merge.publish(item, sink.take());
        }
        if (opts.item_hook) opts.item_hook(item);
        if (!result.direct) merge.try_drain();
      }
    } catch (...) {
      failed.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (std::size_t w = 1; w < nthreads; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  // kMergeWait: the coordinator ran dry; everything from here to the join
  // is waiting on the slowest workers.
  PoolStats total;
  const std::uint64_t wait0 = obs::trace_now_ns();
  for (auto& t : pool) t.join();
  total.wait_ns = obs::trace_now_ns() - wait0;
  if (first_error) std::rethrow_exception(first_error);
  for (const PoolStats& t : tallies) {
    total.steals += t.steals;
    total.steal_attempts += t.steal_attempts;
    total.steal_failures += t.steal_failures;
  }
  return total;
}

}  // namespace

unsigned usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t auto_backlog_budget(std::size_t threads) noexcept {
  return threads <= usable_cpus() ? SIZE_MAX : 0;
}

std::vector<std::pair<std::size_t, std::size_t>> root_ranges(
    std::size_t nroots, std::size_t nitems) {
  nitems = std::min(nitems, nroots);
  if (nitems <= 1) {
    if (nitems == 0) return {};
    return {{0, nroots}};  // one item: every root
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(nitems);
  ranges.emplace_back(0, 1);
  const std::size_t rest = nroots - 1;
  const std::size_t nrest = nitems - 1;
  for (std::size_t i = 0; i < nrest; ++i)
    ranges.emplace_back(1 + i * rest / nrest, 1 + (i + 1) * rest / nrest);
  return ranges;
}

MergeRunResult run_sharded_capture(
    io::DataWriter& d, const std::function<void(io::DataWriter&)>& write_header,
    std::size_t nitems, const ShardRunOptions& opts,
    obs::CaptureProfile* profile, const ExecuteItem& execute) {
  MergeRunResult out;
  out.items.resize(nitems);
  // One private profile per item: whichever worker executes the item is its
  // only writer, so the hot path never synchronizes on attribution.
  std::vector<obs::CaptureProfile> item_profiles(profile != nullptr ? nitems
                                                                    : 0);
  SegmentMerge merge(d, nitems, write_header);
  PoolStats pool;
  if (nitems != 0)
    pool = run_workers(merge, opts, execute, item_profiles, out.items);
  merge.finish();
  write_end(d);
  out.steals = pool.steals;
  out.merge_ns = merge.merge_ns();
  out.buffered_peak_bytes = merge.buffered_peak_bytes();

  if (profile != nullptr) {
    // busy_ns becomes the sum of per-item walk intervals plus the
    // merge-cursor and join-wait time — attributable time, deliberately
    // larger than coordinator wall when items overlap.
    using P = obs::CaptureProfile;
    for (std::size_t i = 0; i < nitems; ++i) {
      if (out.items[i].direct)
        item_profiles[i].direct_stream_bytes = out.items[i].bytes;
      else
        item_profiles[i].shard_sink_bytes = out.items[i].bytes;
      profile->add(item_profiles[i]);
    }
    profile->steal_attempts += pool.steal_attempts;
    profile->steal_failures += pool.steal_failures;
    profile->stage_ns[P::kMerge] += out.merge_ns;
    profile->stage_ns[P::kMergeWait] += pool.wait_ns;
    profile->busy_ns += out.merge_ns + pool.wait_ns;
    if (out.buffered_peak_bytes > profile->merge_buffered_peak_bytes)
      profile->merge_buffered_peak_bytes = out.buffered_peak_bytes;
    profile->epochs += 1;
  }
  return out;
}

}  // namespace ickpt::core
