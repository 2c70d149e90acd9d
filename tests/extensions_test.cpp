// Tests for the production-hardening extensions: pattern serialization,
// the adaptive self-specializing checkpointer, asynchronous stable-storage
// appends, and checkpoint-log compaction.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/async_log.hpp"
#include "core/manager.hpp"
#include "io/file_io.hpp"
#include "spec/adaptive.hpp"
#include "spec/pattern_io.hpp"
#include "tests/synth_helpers.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using spec::AdaptiveCheckpointer;
using spec::PatternNode;
using synth::SynthConfig;
using synth::SynthShapes;
using synth::SynthWorkload;

// --- pattern serialization ----------------------------------------------------

TEST(PatternIo, RoundTripPreservesStructure) {
  SynthShapes shapes = SynthShapes::make();
  PatternNode original = synth::make_synth_pattern(
      synth::SpecLevel::kPositions, 5, 10, 3);

  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    spec::save_pattern(writer, original, *shapes.compound);
    writer.flush();
  }
  io::DataReader reader(sink.bytes());
  PatternNode loaded = spec::load_pattern(reader, *shapes.compound);

  // Equivalence check: both compile to identical plans.
  spec::PlanCompiler compiler;
  auto a = compiler.compile(*shapes.compound, original);
  auto b = compiler.compile(*shapes.compound, loaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].code, b.ops[i].code);
    EXPECT_EQ(a.ops[i].a, b.ops[i].a);
    EXPECT_EQ(a.ops[i].b, b.ops[i].b);
    EXPECT_EQ(a.ops[i].imm, b.ops[i].imm);
  }
}

TEST(PatternIo, WrongShapeRejected) {
  SynthShapes shapes = SynthShapes::make();
  PatternNode pattern = synth::make_synth_pattern(
      synth::SpecLevel::kStructure, 5, 1, 5);
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    spec::save_pattern(writer, pattern, *shapes.compound);
    writer.flush();
  }
  io::DataReader reader(sink.bytes());
  EXPECT_THROW(spec::load_pattern(reader, *shapes.elem), SpecError);
}

TEST(PatternIo, FingerprintsStableAcrossBuilds) {
  SynthShapes a = SynthShapes::make();
  SynthShapes b = SynthShapes::make();
  EXPECT_EQ(spec::shape_fingerprint(*a.compound),
            spec::shape_fingerprint(*b.compound));
  EXPECT_NE(spec::shape_fingerprint(*a.compound),
            spec::shape_fingerprint(*a.elem));
}

TEST(PatternIo, GarbageRejected) {
  SynthShapes shapes = SynthShapes::make();
  std::vector<std::uint8_t> garbage{1, 2, 3, 4};
  io::DataReader reader(garbage);
  EXPECT_THROW(spec::load_pattern(reader, *shapes.compound),
               CorruptionError);
}

// --- adaptive checkpointer ------------------------------------------------------

struct AdaptiveFixture {
  SynthConfig config;
  core::Heap heap;
  std::unique_ptr<SynthWorkload> workload;
  SynthShapes shapes = SynthShapes::make();

  explicit AdaptiveFixture(int mod_lists = 2, bool last_only = true) {
    config.num_structures = 32;
    config.list_length = 5;
    config.values_per_elem = 4;
    config.modified_lists = mod_lists;
    config.last_element_only = last_only;
    config.percent_modified = 70;
    workload = std::make_unique<SynthWorkload>(heap, config);
    workload->reset_flags();
  }

  AdaptiveCheckpointer::Roots roots() {
    return {workload->root_bases(), workload->root_ptrs()};
  }
};

TEST(Adaptive, SwitchesToSpecializedAfterObservation) {
  AdaptiveFixture fx;
  AdaptiveCheckpointer::Options opts;
  opts.observe_epochs = 3;
  AdaptiveCheckpointer adaptive(*fx.shapes.compound, opts);

  for (int epoch = 0; epoch < 6; ++epoch) {
    fx.workload->mutate();
    io::VectorSink sink;
    io::DataWriter writer(sink);
    auto result = adaptive.checkpoint(writer, epoch, fx.roots());
    writer.flush();
    EXPECT_FALSE(result.fell_back);
    if (epoch < 3) {
      EXPECT_EQ(result.stage_used, AdaptiveCheckpointer::Stage::kObserving);
    } else {
      EXPECT_EQ(result.stage_used,
                AdaptiveCheckpointer::Stage::kSpecialized);
    }
  }
  ASSERT_NE(adaptive.plan(), nullptr);
  EXPECT_GT(adaptive.plan()->size(), 0u);
}

TEST(Adaptive, SpecializedOutputMatchesGeneric) {
  AdaptiveFixture fx;
  AdaptiveCheckpointer::Options opts;
  opts.observe_epochs = 2;
  AdaptiveCheckpointer adaptive(*fx.shapes.compound, opts);

  // Warm up through observation.
  for (int epoch = 0; epoch < 2; ++epoch) {
    fx.workload->mutate();
    io::VectorSink sink;
    io::DataWriter writer(sink);
    adaptive.checkpoint(writer, epoch, fx.roots());
    writer.flush();
  }
  ASSERT_EQ(adaptive.stage(), AdaptiveCheckpointer::Stage::kSpecialized);

  fx.workload->mutate();
  auto flags = fx.workload->save_flags();
  auto generic = generic_bytes(*fx.workload, 7);

  fx.workload->restore_flags(flags);
  io::VectorSink sink;
  io::DataWriter writer(sink);
  auto result = adaptive.checkpoint(writer, 7, fx.roots());
  writer.flush();
  EXPECT_EQ(result.stage_used, AdaptiveCheckpointer::Stage::kSpecialized);
  EXPECT_EQ(sink.bytes(), generic);
}

TEST(Adaptive, StructuralDriftFallsBackAndRelearns) {
  AdaptiveFixture fx;
  AdaptiveCheckpointer::Options opts;
  opts.observe_epochs = 2;
  AdaptiveCheckpointer adaptive(*fx.shapes.compound, opts);
  for (int epoch = 0; epoch < 2; ++epoch) {
    fx.workload->mutate();
    io::VectorSink sink;
    io::DataWriter writer(sink);
    adaptive.checkpoint(writer, epoch, fx.roots());
    writer.flush();
  }
  ASSERT_EQ(adaptive.stage(), AdaptiveCheckpointer::Stage::kSpecialized);

  // Drift: grow list 0 of the first structure past the learned length.
  synth::Compound* first = fx.workload->roots()[0];
  synth::ListElem* tail = first->list(0);
  while (tail->next() != nullptr) tail = tail->next();
  synth::ListElem* extra = fx.heap.make<synth::ListElem>(4);
  tail->set_next(extra);

  io::VectorSink sink;
  io::DataWriter writer(sink);
  auto result = adaptive.checkpoint(writer, 9, fx.roots());
  writer.flush();
  EXPECT_TRUE(result.fell_back);
  EXPECT_EQ(adaptive.stage(), AdaptiveCheckpointer::Stage::kObserving);
  EXPECT_EQ(adaptive.fallbacks(), 1u);

  // The fallback checkpoint is a complete, recoverable full checkpoint.
  core::TypeRegistry registry;
  synth::register_types(registry);
  core::Recovery recovery(registry);
  io::DataReader reader(sink.bytes());
  auto header = recovery.apply(reader);
  EXPECT_EQ(header.mode, core::Mode::kFull);
  auto state = recovery.finish();
  EXPECT_EQ(state.by_id.size(), fx.workload->total_objects() + 1);
}

TEST(Adaptive, ZeroObservationEpochsRejected) {
  SynthShapes shapes = SynthShapes::make();
  AdaptiveCheckpointer::Options opts;
  opts.observe_epochs = 0;
  EXPECT_THROW(AdaptiveCheckpointer(*shapes.compound, opts), SpecError);
}

TEST(Adaptive, MismatchedRootSpansRejected) {
  AdaptiveFixture fx;
  AdaptiveCheckpointer adaptive(*fx.shapes.compound);
  AdaptiveCheckpointer::Roots roots{fx.workload->root_bases(), {}};
  io::VectorSink sink;
  io::DataWriter writer(sink);
  EXPECT_THROW(adaptive.checkpoint(writer, 0, roots), SpecError);
}

// --- async log -------------------------------------------------------------------

/// One payload of `n` bytes of `fill` in chunks from `pool`.
io::ChunkSink chunk_payload(io::ChunkPool& pool, std::size_t n,
                            std::uint8_t fill) {
  io::ChunkSink sink(pool);
  const std::vector<std::uint8_t> bytes(n, fill);
  sink.write(bytes.data(), bytes.size());
  return sink;
}

TEST(AsyncLog, AppendsInSubmissionOrder) {
  std::string path = ::testing::TempDir() + "/ickpt_async.log";
  std::remove(path.c_str());
  {
    io::StableStorage storage(path);
    io::ChunkPool pool;
    core::AsyncLog log(storage);
    for (int i = 0; i < 50; ++i)
      log.submit(chunk_payload(pool, static_cast<std::size_t>(i + 1),
                               static_cast<std::uint8_t>(i)));
    log.drain();
    EXPECT_EQ(log.pending(), 0u);
  }
  auto scan = io::StableStorage::scan(path);
  ASSERT_EQ(scan.frames.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(scan.frames[static_cast<std::size_t>(i)].seq,
              static_cast<std::uint64_t>(i));
    EXPECT_EQ(scan.frames[static_cast<std::size_t>(i)].payload.size(),
              static_cast<std::size_t>(i + 1));
  }
  std::remove(path.c_str());
}

TEST(AsyncLog, DestructorDrains) {
  std::string path = ::testing::TempDir() + "/ickpt_async2.log";
  std::remove(path.c_str());
  {
    io::StableStorage storage(path);
    io::ChunkPool pool;
    core::AsyncLog log(storage);
    for (int i = 0; i < 10; ++i) log.submit(chunk_payload(pool, 8, 0x11));
  }  // no explicit drain
  auto scan = io::StableStorage::scan(path);
  EXPECT_EQ(scan.frames.size(), 10u);
  std::remove(path.c_str());
}

TEST(AsyncManager, TakeAndRecoverMatchSynchronous) {
  std::string path = ::testing::TempDir() + "/ickpt_async_mgr.log";
  std::remove(path.c_str());
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  Inner* root = heap.make<Inner>();
  root->set_left(leaf);
  {
    core::ManagerOptions opts;
    opts.async_io = true;
    core::CheckpointManager manager(path, opts);
    for (int i = 1; i <= 5; ++i) {
      leaf->set_i32(i);
      auto take = manager.take(*root);
      EXPECT_EQ(take.seq, take.epoch);
    }
    manager.flush();
  }
  core::TypeRegistry registry;
  register_test_types(registry);
  auto recovered = core::CheckpointManager::recover(path, registry);
  EXPECT_EQ(recovered.state.root_as<Inner>()->left->i32, 5);
  std::remove(path.c_str());
}

// --- compaction -------------------------------------------------------------------

TEST(Compaction, ShrinksLogAndPreservesState) {
  std::string path = ::testing::TempDir() + "/ickpt_compact.log";
  std::remove(path.c_str());
  core::Heap heap;
  Inner* root = heap.make<Inner>();
  Leaf* leaf = heap.make<Leaf>();
  root->set_left(leaf);
  {
    core::ManagerOptions opts;
    opts.full_interval = 2;  // lots of full checkpoints -> bloated log
    core::CheckpointManager manager(path, opts);
    for (int i = 1; i <= 20; ++i) {
      leaf->set_i32(i);
      manager.take(*root);
    }
  }
  core::TypeRegistry registry;
  register_test_types(registry);
  auto result = core::CheckpointManager::compact(path, registry);
  EXPECT_EQ(result.objects, 2u);
  EXPECT_LT(result.bytes_after, result.bytes_before);

  auto scan = io::StableStorage::scan(path);
  EXPECT_EQ(scan.frames.size(), 1u);

  auto recovered = core::CheckpointManager::recover(path, registry);
  EXPECT_EQ(recovered.state.root_as<Inner>()->left->i32, 20);

  // The compacted log accepts further checkpoints.
  {
    core::CheckpointManager manager(path);
    Inner* r = recovered.state.root_as<Inner>();
    r->left->set_i32(21);
    manager.take(*r);
  }
  auto again = core::CheckpointManager::recover(path, registry);
  EXPECT_EQ(again.state.root_as<Inner>()->left->i32, 21);
  std::remove(path.c_str());
}

TEST(Compaction, EmptyLogThrows) {
  std::string path = ::testing::TempDir() + "/ickpt_compact_empty.log";
  std::remove(path.c_str());
  core::TypeRegistry registry;
  EXPECT_THROW(core::CheckpointManager::compact(path, registry),
               CorruptionError);
  EXPECT_FALSE(io::file_exists(path + ".compact"));
}

}  // namespace
}  // namespace ickpt::testing
