// Race smoke for sharded capture, meant to run under ThreadSanitizer (the
// `parallel` ctest label is included in the obs-tsan preset).
//
// Two scenarios TSan must certify:
//  - worker/worker: repeated multi-threaded captures with the cycle guard's
//    claim table engaged (cross-shard sharing forces real claim
//    contention) — workers race on the item cursor, on claim slots, and on
//    the chunk pool every item's chain draws from.
//  - capture/mutator: a parallel capture over the first half of the root
//    set while mutator threads flip modified flags on the *disjoint*
//    second half. Disjointness is the documented contract (flags are plain
//    bools; capturing an object concurrently with its mutation is a race
//    by design, exactly as in the serial driver) — this pins down that the
//    capture machinery itself introduces no sharing beyond it.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/parallel_checkpoint.hpp"
#include "core/recovery.hpp"
#include "core/type_registry.hpp"
#include "io/byte_sink.hpp"
#include "synth/structures.hpp"
#include "synth/workload.hpp"

namespace ickpt::testing {
namespace {

using core::ParallelCheckpoint;
using core::ParallelOptions;

TEST(ParallelRace, WorkersContendOnClaimTable) {
  synth::SynthConfig config;
  config.num_structures = 200;
  config.list_length = 4;
  config.values_per_elem = 3;
  core::Heap heap;
  synth::SynthWorkload workload(heap, config);
  auto roots = workload.roots();
  // Dense cross-root sharing: each compound also points at its far
  // neighbor's list, so nearly every shard boundary has contended claims.
  const std::size_t n = roots.size();
  for (std::size_t i = 0; i < n; ++i)
    roots[i]->set_list(4, roots[(i + n / 2) % n]->list(0));
  // Each compound's original list 4 is now unreachable: the live graph is
  // n compounds plus 4 owned lists each, with list(0) doubly shared.
  const std::size_t reachable =
      n * (1 + 4 * static_cast<std::size_t>(config.list_length));

  ParallelOptions popts;
  popts.threads = 4;
  popts.cycle_guard = true;
  popts.mode = core::Mode::kFull;
  io::ChunkPool pool;
  std::size_t first = 0;
  for (int round = 0; round < 8; ++round) {
    io::ChunkSink sink(pool);
    auto stats =
        ParallelCheckpoint::run(sink, round, workload.root_bases(), popts);
    // Every reachable object is claimed exactly once despite contention.
    EXPECT_EQ(stats.totals.objects_visited, reachable);
    // The payload size is claim-placement dependent only in record *order*,
    // never in record count, so the byte count is stable across rounds.
    if (round == 0)
      first = sink.size();
    else
      EXPECT_EQ(sink.size(), first) << "round " << round;
  }
}

TEST(ParallelRace, CaptureRacesMutatorsOnDisjointShards) {
  synth::SynthConfig config;
  config.num_structures = 240;
  config.list_length = 3;
  config.values_per_elem = 4;
  core::Heap heap;
  synth::SynthWorkload workload(heap, config);
  auto roots = workload.roots();
  const std::size_t half = roots.size() / 2;
  std::span<core::Checkpointable* const> captured =
      workload.root_bases().subspan(0, half);

  std::atomic<bool> stop{false};
  // Mutators flip flags and values on the second half only — objects the
  // capture never touches. Each mutator owns a disjoint slice of that half:
  // the contract under test is capture-vs-mutator disjointness, so the
  // mutators must not race *each other* on the plain (non-atomic) fields.
  std::vector<std::thread> mutators;
  const std::size_t slice = (roots.size() - half) / 2;
  for (int m = 0; m < 2; ++m) {
    mutators.emplace_back([&, m] {
      const std::size_t begin = half + static_cast<std::size_t>(m) * slice;
      std::uint64_t x = 0x9E3779B97F4A7C15ull * (m + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        synth::Compound* c = roots[begin + (x >> 33) % slice];
        synth::ListElem* e = c->list(static_cast<int>(x % 5));
        if (e != nullptr)
          e->set_value(0, static_cast<std::int32_t>(x));
        else
          c->set_list(static_cast<int>(x % 5), nullptr);
      }
    });
  }

  ParallelOptions popts;
  popts.threads = 4;
  popts.mode = core::Mode::kFull;
  io::ChunkPool pool;
  std::vector<std::uint8_t> payload;
  for (int round = 0; round < 6; ++round) {
    io::ChunkSink sink(pool);
    ParallelCheckpoint::run(sink, round, captured, popts);
    payload = sink.to_vector();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : mutators) t.join();

  // The last capture must still be a well-formed stream of the first half.
  core::TypeRegistry registry;
  synth::register_types(registry);
  core::Recovery recovery(registry);
  io::DataReader reader(payload);
  recovery.apply(reader);
  auto state = recovery.finish();
  ASSERT_EQ(state.roots.size(), half);
  for (std::size_t i = 0; i < half; ++i)
    EXPECT_EQ(state.roots[i], roots[i]->info().id());
}

}  // namespace
}  // namespace ickpt::testing
