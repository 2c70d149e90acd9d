#include "core/parallel_checkpoint.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "core/segment_merge.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

namespace {

/// One ordered unit of capture work. Items concatenate in index order to
/// reproduce the serial stream: a plain contiguous root range, or — when a
/// small root set is split to feed the pool — a single root's record
/// followed by ranges over its top-level fold children.
struct WorkItem {
  enum Kind : std::uint8_t { kRootRange, kRootRecord, kChildRange };
  Kind kind = kRootRange;
  std::size_t begin = 0;  ///< first root index (the root, for split kinds)
  std::size_t end = 0;    ///< one past the last root index
  const std::vector<Checkpointable*>* kids = nullptr;  ///< kChildRange only
  std::size_t child_begin = 0;
  std::size_t child_end = 0;
};

/// Objects each capture thread must have to walk before it pays for
/// itself. Every run starts its helper threads anew, at about 30-50 us
/// each. Per incremental take on a 4-vCPU VM, two threads took 0.44-0.48
/// ms against 0.49-0.53 ms serial at 2 x 2^14 objects, and 0.13 against
/// 0.08 ms at 5,200.
constexpr std::uint64_t kObjectsPerCaptureThread = std::uint64_t{1} << 14;

/// Full-payload bytes each capture thread must have to write before it pays
/// for itself: a full capture runs every object's record(), so its cost
/// follows its bytes. Full captures into a fresh chunk pool on a 4-vCPU VM
/// (p50 of 31-41 runs): at 126 KB two threads took 0.21 ms against
/// 0.24-0.28 ms serial, at 95 KB 0.18-0.20 against 0.16-0.22, at 63 KB
/// 0.16 against 0.15; at 252 KB three or four took 0.28-0.33 ms against
/// 0.40-0.54.
constexpr std::uint64_t kBytesPerCaptureThread = std::uint64_t{1} << 16;

/// Most threads the pick hands out: the widest count whose speed and memory
/// have been measured (on a 4-vCPU VM). Pinned counts are not capped.
constexpr unsigned kMaxPickedThreads = 4;

/// `units` of work at `per_thread` per thread on `cpus` CPUs: at most
/// min(`cpus`, kMaxPickedThreads) threads, and serial below two.
unsigned pick_threads(std::uint64_t units, std::uint64_t per_thread,
                      unsigned cpus) noexcept {
  const std::uint64_t threads = std::min<std::uint64_t>(
      std::min(cpus, kMaxPickedThreads), units / per_thread);
  return threads < 2 ? 1 : static_cast<unsigned>(threads);
}

}  // namespace

unsigned capture_threads_for(std::uint64_t objects, unsigned cpus) noexcept {
  return pick_threads(objects, kObjectsPerCaptureThread, cpus);
}

unsigned capture_threads_for(std::uint64_t objects) noexcept {
  // Below two threads' worth of objects the answer is serial whatever the
  // CPU count, so the affinity query is skipped.
  if (objects < 2 * kObjectsPerCaptureThread) return 1;
  return capture_threads_for(objects, usable_cpus());
}

unsigned full_capture_threads_for(std::uint64_t payload_bytes,
                                  unsigned cpus) noexcept {
  return pick_threads(payload_bytes, kBytesPerCaptureThread, cpus);
}

unsigned full_capture_threads_for(std::uint64_t payload_bytes) noexcept {
  if (payload_bytes < 2 * kBytesPerCaptureThread) return 1;
  return full_capture_threads_for(payload_bytes, usable_cpus());
}

ParallelStats ParallelCheckpoint::run(io::ChunkSink& out, Epoch epoch,
                                      std::span<Checkpointable* const> roots,
                                      const ParallelOptions& opts) {
  const std::size_t nroots = roots.size();

  auto run_serial = [&] {
    // The serial paper-faithful path, untouched: byte-identical output and
    // identical cost profile to calling Checkpoint::run directly.
    CheckpointOptions copts;
    copts.mode = opts.mode;
    copts.cycle_guard = opts.cycle_guard;
    copts.profile = opts.profile;
    ParallelStats p;
    io::DataWriter d(out);
    p.totals = Checkpoint::run(d, epoch, roots, copts);
    d.flush();
    return p;
  };
  if (opts.threads <= 1 || nroots == 0) return run_serial();

  // ---- Build the ordered work-item list. ----------------------------------
  const std::size_t target = opts.threads * kItemsPerThread;
  std::vector<WorkItem> items;
  std::deque<std::vector<Checkpointable*>> kid_store;  // stable references
  // Items that walk more than a split root's own record: only these can
  // keep a thread busy.
  std::size_t walks = 0;
  if (nroots >= target) {
    // Range mode: the roots split evenly.
    for (const auto& [b, e] : root_ranges(nroots, target))
      items.push_back(WorkItem{WorkItem::kRootRange, b, e, nullptr, 0, 0});
    walks = items.size();
  } else {
    // Split mode: too few roots to feed the pool, so a compound root's fold
    // is broken into its own record plus per-child ranges behind the shared
    // claim epoch. Concatenating record-then-children in fold order is the
    // exact byte sequence the root's serial visit would have produced.
    const std::size_t per_root =
        std::max<std::size_t>(1, (target + nroots - 1) / nroots);
    for (std::size_t r = 0; r < nroots; ++r) {
      if (roots[r] == nullptr) continue;  // serial emits nothing for nulls
      kid_store.emplace_back();
      std::vector<Checkpointable*>& kids = kid_store.back();
      Checkpoint::collect_children(*roots[r], kids);
      if (kids.empty()) {
        items.push_back(WorkItem{WorkItem::kRootRange, r, r + 1, nullptr, 0, 0});
        ++walks;
        continue;
      }
      items.push_back(WorkItem{WorkItem::kRootRecord, r, r + 1, nullptr, 0, 0});
      const std::size_t chunk =
          std::max<std::size_t>(1, (kids.size() + per_root - 1) / per_root);
      for (std::size_t cb = 0; cb < kids.size(); cb += chunk) {
        const std::size_t ce = std::min(kids.size(), cb + chunk);
        items.push_back(WorkItem{WorkItem::kChildRange, r, r + 1, &kids, cb, ce});
        ++walks;
      }
    }
  }

  // With fewer than two walking items nothing can overlap: one root whose
  // heap hangs off a single child (the head of a list) captures serially
  // instead of starting a thread to record the root alone.
  const std::size_t nitems = items.size();
  const unsigned threads =
      static_cast<unsigned>(std::min<std::size_t>(opts.threads, walks));
  if (threads <= 1) return run_serial();

  obs::Span span("checkpoint.parallel", "checkpoint");

  std::unique_ptr<ClaimTable> claims;
  if (opts.cycle_guard)
    claims = std::make_unique<ClaimTable>(nroots * 8 + 1024);

  std::vector<ShardStats> shard_stats(nitems);

  auto execute_item = [&](std::size_t i, io::DataWriter& writer,
                          obs::CaptureProfile* profile) {
    const WorkItem& item = items[i];
    ShardStats& out = shard_stats[i];
    obs::Span shard_span("checkpoint.shard", "checkpoint");
    const std::size_t before = writer.bytes_written();
    {
      // A fresh walker per item = a fresh visited-set epoch: revisits
      // inside the item stay lock-free, cross-item sharing goes through
      // the claim table. When profiling, the item walks with the private
      // CaptureProfile the driver handed it.
      CheckpointOptions so;
      so.mode = opts.mode;
      so.cycle_guard = opts.cycle_guard;
      so.profile = profile;
      Checkpoint walker(writer, so);
      walker.claims_ = claims.get();
      {
        obs::ScopedWalk walk(profile);
        switch (item.kind) {
          case WorkItem::kRootRange:
            for (std::size_t r = item.begin; r < item.end; ++r)
              if (roots[r] != nullptr) walker.checkpoint(*roots[r]);
            break;
          case WorkItem::kRootRecord:
            walker.checkpoint_record_only(*roots[item.begin]);
            break;
          case WorkItem::kChildRange:
            for (std::size_t c = item.child_begin; c < item.child_end; ++c)
              walker.checkpoint(*(*item.kids)[c]);
            break;
        }
      }
      out.stats = walker.stats();
    }
    if (shard_span.active())
      shard_span.note("item " + std::to_string(i) + ": roots [" +
                      std::to_string(item.begin) + ", " +
                      std::to_string(item.end) + "), " +
                      std::to_string(out.stats.objects_recorded) + "/" +
                      std::to_string(out.stats.objects_visited) +
                      " recorded, " +
                      std::to_string(writer.bytes_written() - before) +
                      " byte(s)");
  };

  // ---- Record the items, then splice them behind the header. -------------
  ShardRunOptions ropts;
  ropts.threads = threads;
  ropts.item_hook = opts.test_item_hook;
  const ShardRunResult rr = run_sharded_capture(
      out,
      [&](io::DataWriter& w) {
        write_stream_header(w, opts.mode, epoch, roots, ref_id);
      },
      nitems, ropts, opts.profile, execute_item);

  // ---- Fold results. ------------------------------------------------------
  ParallelStats result;
  result.shards = nitems;
  result.threads_used = threads;
  result.merge_seconds = static_cast<double>(rr.merge_ns) / 1e9;
  result.shard_stats = std::move(shard_stats);

  std::vector<std::uint64_t> worker_visited(threads, 0);
  for (std::size_t i = 0; i < nitems; ++i) {
    ShardStats& s = result.shard_stats[i];
    const ShardItemResult& ir = rr.items[i];
    s.bytes = ir.bytes;
    result.totals.objects_visited += s.stats.objects_visited;
    result.totals.objects_recorded += s.stats.objects_recorded;
    worker_visited[ir.worker] += s.stats.objects_visited;
  }
  std::uint64_t max_visited = 0;
  std::uint64_t sum_visited = 0;
  for (unsigned w = 0; w < threads; ++w) {
    max_visited = std::max(max_visited, worker_visited[w]);
    sum_visited += worker_visited[w];
  }
  if (sum_visited > 0)
    result.imbalance = static_cast<double>(max_visited) * threads /
                       static_cast<double>(sum_visited);

  // Once-per-capture telemetry; per-call lookups are fine off the worker
  // hot path (same budget recover() spends).
  obs::gauge("ickpt_capture_shards").set(static_cast<std::int64_t>(nitems));
  obs::gauge("ickpt_capture_threads").set(threads);
  obs::histogram("ickpt_capture_merge_seconds").observe(result.merge_seconds);
  // Skip the imbalance sample when nothing was visited (all-null roots):
  // max/mean is undefined there, and the bounds start at ratio 1.0.
  if (sum_visited > 0)
    obs::histogram("ickpt_capture_imbalance_ratio", {},
                   obs::Histogram::exponential_bounds(1.0, 1.25, 16))
        .observe(result.imbalance);
  if (span.active())
    span.note(std::to_string(threads) + " worker(s) x " +
              std::to_string(nitems) + " item(s), " +
              std::to_string(out.chunks()) + " chunk(s), " +
              std::to_string(result.totals.objects_recorded) + "/" +
              std::to_string(result.totals.objects_visited) + " recorded");
  return result;
}

}  // namespace ickpt::core
