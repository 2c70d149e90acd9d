#include "core/segment_merge.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/checkpoint_format.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

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

std::vector<std::pair<std::size_t, std::size_t>> root_ranges(
    std::size_t nroots, std::size_t nitems) {
  nitems = std::min(nitems, nroots);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(nitems);
  for (std::size_t i = 0; i < nitems; ++i)
    ranges.emplace_back(i * nroots / nitems, (i + 1) * nroots / nitems);
  return ranges;
}

ShardRunResult run_sharded_capture(
    io::ChunkSink& out,
    const std::function<void(io::DataWriter&)>& write_header,
    std::size_t nitems, const ShardRunOptions& opts,
    obs::CaptureProfile* profile, const ExecuteItem& execute) {
  ShardRunResult result;
  result.items.resize(nitems);
  // One private profile per item: whichever worker executes the item is its
  // only writer, so the hot path never synchronizes on attribution.
  std::vector<obs::CaptureProfile> item_profiles(profile != nullptr ? nitems
                                                                    : 0);
  // One chunk chain for the header and one per item, drawn from the
  // destination's pool; a chain that never joins `out` returns its chunks
  // when it goes.
  io::ChunkSink header(out.pool());
  std::vector<io::ChunkSink> chains;
  chains.reserve(nitems);
  for (std::size_t i = 0; i < nitems; ++i) chains.emplace_back(out.pool());

  // Slot 0 of the cursor is the header, so writing it (one id per root)
  // overlaps the items' recording; slot i + 1 is item i.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto worker_fn = [&](std::size_t w) {
    try {
      while (!failed.load(std::memory_order_acquire)) {
        const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot > nitems) break;
        if (slot == 0) {
          io::DataWriter writer(header);
          write_header(writer);
          writer.flush();
          continue;
        }
        const std::size_t item = slot - 1;
        ShardItemResult& done = result.items[item];
        done.worker = w;
        {
          io::DataWriter writer(chains[item]);
          execute(item, writer,
                  item_profiles.empty() ? nullptr : &item_profiles[item]);
          done.bytes = writer.bytes_written();
          writer.flush();
        }
        if (opts.item_hook) opts.item_hook(item);
      }
    } catch (...) {
      failed.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  const std::size_t nthreads =
      std::clamp<std::size_t>(opts.threads, 1, std::max<std::size_t>(nitems, 1));
  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  try {
    for (std::size_t w = 1; w < nthreads; ++w) pool.emplace_back(worker_fn, w);
  } catch (...) {
    // A thread that cannot start: stop the ones that did, then report it.
    failed.store(true, std::memory_order_release);
    for (auto& t : pool) t.join();
    throw;
  }
  worker_fn(0);
  // kMergeWait: the coordinator ran dry; everything from here to the join
  // is waiting on the slowest workers.
  const std::uint64_t wait0 = obs::trace_now_ns();
  for (auto& t : pool) t.join();
  const std::uint64_t wait_ns = obs::trace_now_ns() - wait0;
  if (first_error) std::rethrow_exception(first_error);

  // kMerge: the header, the chains in item order, the end tag.
  const std::uint64_t merge0 = obs::trace_now_ns();
  out.splice(std::move(header));
  for (io::ChunkSink& chain : chains) out.splice(std::move(chain));
  {
    io::DataWriter writer(out, 16);
    write_end(writer);
    writer.flush();
  }
  result.merge_ns = obs::trace_now_ns() - merge0;

  if (profile != nullptr) {
    // busy_ns becomes the sum of per-item walk intervals plus the join wait
    // and the splice — attributable time, deliberately larger than
    // coordinator wall when items overlap.
    using P = obs::CaptureProfile;
    for (const obs::CaptureProfile& p : item_profiles) profile->add(p);
    profile->stage_ns[P::kMerge] += result.merge_ns;
    profile->stage_ns[P::kMergeWait] += wait_ns;
    profile->busy_ns += result.merge_ns + wait_ns;
    profile->epochs += 1;
  }
  return result;
}

}  // namespace ickpt::core
