// Splice behavior tests for core::ParallelCheckpoint: forced out-of-order
// completion (item 0 stalls while every later item records), a worker
// throw that leaves the caller's sink untouched (strictly cleaner than the
// serial torn prefix), the chunk memory bound through a manager's takes,
// the all-null-roots imbalance-histogram regression, and intra-root
// splitting byte/value identity. Companion to
// tests/parallel_equiv_test.cpp, which covers the randomized equivalence
// sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/manager.hpp"
#include "core/parallel_checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "obs/metrics.hpp"
#include "synth/workload.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::ParallelCheckpoint;
using core::ParallelOptions;
using core::ParallelStats;

/// Leaf whose record() blocks on an external gate — placed at root 0 it
/// holds item 0 back while every later item records, the most out-of-order
/// completion there is. A null gate records immediately
/// (the serial-reference configuration). The 20s failsafe turns a scheduling
/// bug into failed assertions instead of a hung test.
class StallLeaf final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 941;

  explicit StallLeaf(std::atomic<bool>* gate) : gate_(gate) {}

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }

  void record(io::DataWriter& d) const override {
    if (gate_ != nullptr) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!gate_->load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) break;
        std::this_thread::yield();
      }
    }
    d.write_i32(payload);
  }

  void fold(core::Checkpoint&) override {}
  void restore_record(io::DataReader& d, core::Recovery&) override {
    payload = d.read_i32();
  }

  std::int32_t payload = 7;

 private:
  std::atomic<bool>* gate_;
};

/// Leaf whose record() throws mid-capture.
class ThrowLeaf final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 942;
  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }
  void record(io::DataWriter&) const override {
    throw std::runtime_error("record failed mid-capture");
  }
  void fold(core::Checkpoint&) override {}
  void restore_record(io::DataReader&, core::Recovery&) override {}
};

/// Compound root with a flat fan-out of leaves — the shape intra-root
/// splitting exists for: few roots, each hiding a large fold.
class Wide final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 943;

  std::int32_t tag = 0;
  std::vector<Leaf*> kids;

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }

  void record(io::DataWriter& d) const override {
    d.write_i32(tag);
    d.write_varint(kids.size());
    for (const Leaf* k : kids) core::write_child_id(d, k);
  }

  void fold(core::Checkpoint& c) override {
    for (Leaf* k : kids)
      if (k != nullptr) c.checkpoint(*k);
  }

  void restore_record(io::DataReader& d, core::Recovery&) override {
    tag = d.read_i32();
    const std::uint64_t n = d.read_varint();
    for (std::uint64_t i = 0; i < n; ++i) (void)d.read_varint();
  }
};

std::vector<std::uint8_t> parallel_bytes(
    std::span<core::Checkpointable* const> roots, Epoch epoch,
    const ParallelOptions& popts, ParallelStats* out = nullptr) {
  io::ChunkPool pool;
  io::ChunkSink sink(pool);
  ParallelStats stats = ParallelCheckpoint::run(sink, epoch, roots, popts);
  if (out != nullptr) *out = stats;
  return sink.to_vector();
}

constexpr std::size_t kChunk = io::ChunkPool::kChunkBytes;

/// Item 0 held back until every other item has recorded: the spliced
/// stream must still be byte-identical to serial, and each item's chain
/// costs at most one partly filled chunk, so the capture maps no more than
/// payload + (items + 1) chunks.
TEST(ParallelStream, OutOfOrderCompletionSplicesInItemOrder) {
  constexpr std::size_t kRoots = 64;
  core::Heap heap;
  std::atomic<bool> gate{true};
  std::vector<core::Checkpointable*> roots;
  roots.push_back(heap.make<StallLeaf>(&gate));
  for (std::size_t i = 1; i < kRoots; ++i) {
    Leaf* leaf = heap.make<Leaf>();
    leaf->set_i32(static_cast<std::int32_t>(i));
    leaf->set_i64(static_cast<std::int64_t>(i) * 1000003);
    roots.push_back(leaf);
  }

  const auto serial = checkpoint_bytes(roots, 5, core::Mode::kFull);
  ASSERT_FALSE(serial.empty());

  for (unsigned threads : {2u, 4u, 8u}) {
    // kRoots >= threads*4 for every tested count, so range mode deals
    // exactly threads*4 items and the staller sits in item 0.
    const std::size_t nitems = static_cast<std::size_t>(threads) * 4;
    ASSERT_GE(kRoots, nitems);
    gate.store(false, std::memory_order_release);
    std::atomic<std::size_t> recorded{0};

    ParallelOptions popts;
    popts.mode = core::Mode::kFull;
    popts.threads = threads;
    popts.test_item_hook = [&](std::size_t item) {
      if (item != 0 &&
          recorded.fetch_add(1, std::memory_order_acq_rel) + 1 == nitems - 1)
        gate.store(true, std::memory_order_release);
    };

    io::ChunkPool pool;
    io::ChunkSink sink(pool);
    const ParallelStats stats =
        ParallelCheckpoint::run(sink, 5, roots, popts);
    const std::string context = "threads " + std::to_string(threads);

    EXPECT_EQ(sink.to_vector(), serial) << context;
    ASSERT_EQ(stats.shards, nitems) << context;
    std::size_t item_bytes = 0;
    for (const core::ShardStats& shard : stats.shard_stats)
      item_bytes += shard.bytes;
    EXPECT_LT(item_bytes, serial.size()) << context << ": header and end tag";
    // One chunk for the header, one per item that recorded anything.
    EXPECT_LE(sink.chunks(), nitems + 1) << context;
    EXPECT_LE(pool.peak_mapped_bytes(), serial.size() + (nitems + 1) * kChunk)
        << context;
  }
}

/// A worker throw leaves the caller's sink exactly as it was: the header
/// is written only after the join, and the items' chains go back to the
/// pool. The serial driver, by contrast, has already written its header
/// (and possibly a record prefix) when the same throw lands.
TEST(ParallelStream, WorkerThrowLeavesTheSinkUntouched) {
  constexpr std::size_t kRoots = 64;
  core::Heap heap;
  for (std::size_t thrower : {std::size_t{0}, kRoots / 2, kRoots - 1}) {
    std::vector<core::Checkpointable*> roots;
    for (std::size_t i = 0; i < kRoots; ++i)
      roots.push_back(i == thrower
                          ? static_cast<core::Checkpointable*>(
                                heap.make<ThrowLeaf>())
                          : heap.make<Leaf>());
    const std::string context = "throw at root " + std::to_string(thrower);

    // Serial contrast: header + prefix are already torn into the sink.
    {
      io::VectorSink sink;
      io::DataWriter writer(sink);
      core::CheckpointOptions opts;
      opts.mode = core::Mode::kFull;
      EXPECT_THROW(core::Checkpoint::run(writer, 9, roots, opts),
                   std::runtime_error);
      writer.flush();
      EXPECT_GT(sink.size(), 0u) << context;
    }

    io::ChunkPool pool;
    io::ChunkSink sink(pool);
    const std::uint8_t before[] = {1, 2, 3};
    sink.write(before, sizeof(before));
    ParallelOptions popts;
    popts.mode = core::Mode::kFull;
    popts.threads = 4;
    EXPECT_THROW(ParallelCheckpoint::run(sink, 9, roots, popts),
                 std::runtime_error)
        << context;
    EXPECT_EQ(sink.to_vector(), std::vector<std::uint8_t>({1, 2, 3}))
        << context;
    // Only the sink's own chunk is still out of the pool.
    EXPECT_EQ(pool.mapped_bytes(), (1 + pool.kept_chunks()) * kChunk)
        << context;
  }
}

/// The memory bound, through a manager: a sharded full take maps at most
/// payload + (items + 1) chunks; after the next (incremental) take the pool
/// keeps no more chunks than that take used; destroying the manager unmaps
/// every chunk.
TEST(ParallelStream, ChunkPoolHoldsTheMemoryBound) {
  const std::string path =
      ::testing::TempDir() + "/ickpt_parallel_stream_bound.log";
  std::remove(path.c_str());
  const std::size_t mapped_before = io::ChunkPool::mapped_bytes_total();
  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 2600;
  config.modified_lists = 1;
  config.percent_modified = 25;
  synth::SynthWorkload workload(heap, config);
  {
    core::ManagerOptions opts;
    opts.capture_threads = 4;
    core::CheckpointManager manager(path, opts);
    const io::ChunkPool& pool = manager.chunk_pool();
    EXPECT_EQ(pool.mapped_bytes(), 0u) << "nothing is mapped before a take";

    // 2,600 roots feed range mode: 4 threads x 4 items.
    const std::size_t items = 4 * ParallelCheckpoint::kItemsPerThread;
    const core::TakeResult full = manager.take(workload.root_bases());
    ASSERT_EQ(full.mode, core::Mode::kFull);
    EXPECT_GT(full.bytes, 2 * kChunk) << "the payload spans several chunks";
    EXPECT_LE(pool.peak_mapped_bytes(), full.bytes + (items + 1) * kChunk);
    const std::size_t after_full = pool.mapped_bytes();

    // Nothing dirty: every item records nothing and takes no chunk, so the
    // take uses one chunk, for the header and the end tag.
    const core::TakeResult incr = manager.take(workload.root_bases());
    ASSERT_EQ(incr.mode, core::Mode::kIncremental);
    ASSERT_EQ(incr.stats.objects_recorded, 0u);
    // Every chunk is back in the pool, which keeps what this take used.
    EXPECT_EQ(pool.mapped_bytes(), pool.kept_chunks() * kChunk);
    EXPECT_EQ(pool.kept_chunks(), 1u);
    EXPECT_LT(pool.mapped_bytes(), after_full);
  }
  EXPECT_EQ(io::ChunkPool::mapped_bytes_total(), mapped_before)
      << "destroying the manager unmaps every chunk";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

/// All-null root sets visit nothing, so max/mean worker load is undefined:
/// the imbalance histogram must record no sample (the NaN-observation
/// regression), while a real capture still feeds it.
TEST(ParallelStream, AllNullRootsSkipImbalanceObservation) {
  obs::Registry registry;
  obs::Registry::install(&registry);

  // 64 null roots with threads=4 is range mode: the pool genuinely runs
  // (fewer roots would collapse to zero items and delegate to serial,
  // bypassing the observation site entirely).
  std::vector<core::Checkpointable*> nulls(64, nullptr);
  ParallelOptions popts;
  popts.mode = core::Mode::kFull;
  popts.threads = 4;
  ParallelStats stats;
  const auto parallel = parallel_bytes(nulls, 3, popts, &stats);
  EXPECT_GT(stats.shards, 1u);
  EXPECT_EQ(stats.totals.objects_visited, 0u);
  // The stream itself is still well-formed and serial-identical.
  EXPECT_EQ(parallel, checkpoint_bytes(nulls, 3, core::Mode::kFull));

  obs::Snapshot snap = registry.snapshot();
  const obs::MetricSnapshot* m = snap.find("ickpt_capture_imbalance_ratio");
  if (m != nullptr) {
    EXPECT_EQ(m->count, 0u);
  }

  // A normal capture on the same registry does observe exactly one sample.
  core::Heap heap;
  std::vector<core::Checkpointable*> roots;
  for (std::size_t i = 0; i < 64; ++i) roots.push_back(heap.make<Leaf>());
  (void)parallel_bytes(roots, 4, popts);
  snap = registry.snapshot();
  m = snap.find("ickpt_capture_imbalance_ratio");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);

  obs::Registry::install(nullptr);
}

/// Few roots, huge folds: split mode must break each root into more items
/// than there are roots, and guard-off concatenation must stay
/// byte-identical to serial at every thread count.
TEST(ParallelStream, IntraRootSplittingIsByteIdenticalWithoutSharing) {
  core::Heap heap;
  std::vector<core::Checkpointable*> roots;
  for (int r = 0; r < 3; ++r) {
    Wide* w = heap.make<Wide>();
    w->tag = r;
    for (int k = 0; k < 100; ++k) {
      Leaf* leaf = heap.make<Leaf>();
      leaf->set_i32(r * 1000 + k);
      w->kids.push_back(leaf);
    }
    roots.push_back(w);
  }

  const auto serial = checkpoint_bytes(roots, 11, core::Mode::kFull);

  for (unsigned threads = 2; threads <= 8; ++threads) {
    ParallelOptions popts;
    popts.mode = core::Mode::kFull;
    popts.threads = threads;
    ParallelStats stats;
    const auto parallel = parallel_bytes(roots, 11, popts, &stats);
    const std::string context = "threads " + std::to_string(threads);
    EXPECT_EQ(parallel, serial) << context;
    // The whole point: one giant root no longer pins the item count to the
    // root count.
    EXPECT_GT(stats.shards, roots.size()) << context;
    EXPECT_EQ(stats.totals.objects_visited, 303u) << context;
  }
}

/// Split mode under cycle_guard with children shared across roots: record
/// placement may move between segments, but the claim table keeps every
/// shared leaf recorded exactly once — same stats totals and same total
/// byte count as the serial guarded walk.
TEST(ParallelStream, IntraRootSplittingResolvesSharingThroughClaims) {
  core::Heap heap;
  std::vector<Leaf*> shared;
  for (int k = 0; k < 50; ++k) shared.push_back(heap.make<Leaf>());
  std::vector<core::Checkpointable*> roots;
  for (int r = 0; r < 3; ++r) {
    Wide* w = heap.make<Wide>();
    w->tag = 100 + r;
    for (int k = 0; k < 60; ++k) w->kids.push_back(heap.make<Leaf>());
    // Every root also folds the full shared set, so split items from
    // different roots race to claim the same leaves.
    for (Leaf* s : shared) w->kids.push_back(s);
    roots.push_back(w);
  }

  core::CheckpointStats serial_stats;
  std::vector<std::uint8_t> serial;
  {
    io::VectorSink sink;
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kFull;
    opts.cycle_guard = true;
    serial_stats = core::Checkpoint::run(writer, 13, roots, opts);
    writer.flush();
    serial = sink.take();
  }

  for (unsigned threads = 2; threads <= 8; ++threads) {
    ParallelOptions popts;
    popts.mode = core::Mode::kFull;
    popts.cycle_guard = true;
    popts.threads = threads;
    ParallelStats stats;
    const auto parallel = parallel_bytes(roots, 13, popts, &stats);
    const std::string context = "threads " + std::to_string(threads);
    EXPECT_EQ(parallel.size(), serial.size()) << context;
    EXPECT_GT(stats.shards, roots.size()) << context;
    EXPECT_EQ(stats.totals.objects_visited, serial_stats.objects_visited)
        << context;
    EXPECT_EQ(stats.totals.objects_recorded, serial_stats.objects_recorded)
        << context;
  }
}

}  // namespace
}  // namespace ickpt::testing
