// CheckpointManager tests: full/incremental policy, recovery from a log,
// torn-tail recovery, and error paths.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/manager.hpp"
#include "io/file_io.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::ManagerOptions;
using core::Mode;
using core::TypeRegistry;

class ManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_manager_test.log";
    std::remove(path_.c_str());
    register_test_types(registry_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  TypeRegistry registry_;
};

TEST_F(ManagerTest, PolicyTakesFullEveryInterval) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  ManagerOptions opts;
  opts.full_interval = 3;
  CheckpointManager manager(path_, opts);
  std::vector<Mode> modes;
  for (int i = 0; i < 7; ++i) {
    leaf->set_i32(i);
    modes.push_back(manager.take(*leaf).mode);
  }
  EXPECT_EQ(modes, (std::vector<Mode>{Mode::kFull, Mode::kIncremental,
                                      Mode::kIncremental, Mode::kFull,
                                      Mode::kIncremental, Mode::kIncremental,
                                      Mode::kFull}));
}

TEST_F(ManagerTest, ZeroIntervalRejected) {
  ManagerOptions opts;
  opts.full_interval = 0;
  EXPECT_THROW(CheckpointManager(path_, opts), Error);
}

TEST_F(ManagerTest, RecoverReplaysLatestFullPlusDeltas) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  Inner* root = heap.make<Inner>();
  root->set_left(leaf);
  ManagerOptions opts;
  opts.full_interval = 4;
  CheckpointManager manager(path_, opts);
  for (int i = 1; i <= 10; ++i) {
    leaf->set_i32(i);
    root->set_tag(100 + i);
    manager.take(*root);
  }
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_TRUE(result.log_clean);
  // Epochs 0..9; last full at epoch 8, so 8..9 applied: 2 checkpoints.
  EXPECT_EQ(result.checkpoints_applied, 2u);
  Inner* recovered = result.state.root_as<Inner>();
  EXPECT_EQ(recovered->tag, 110);
  EXPECT_EQ(recovered->left->i32, 10);
}

TEST_F(ManagerTest, RecoverAfterTornTailDropsLastCheckpoint) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  {
    ManagerOptions opts;
    opts.full_interval = 100;  // one full + incrementals
    CheckpointManager manager(path_, opts);
    for (int i = 1; i <= 5; ++i) {
      leaf->set_i32(i);
      manager.take(*leaf);
    }
  }
  // Tear the final frame.
  auto bytes = io::read_file(path_);
  bytes.resize(bytes.size() - 7);
  io::write_file(path_, bytes);

  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_FALSE(result.log_clean);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 4);
}

TEST_F(ManagerTest, RecoverEmptyLogThrows) {
  EXPECT_THROW(CheckpointManager::recover(path_, registry_), CorruptionError);
}

TEST_F(ManagerTest, RecoverWithoutFullCheckpointThrows) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  {
    CheckpointManager manager(path_);
    std::vector<core::Checkpointable*> roots{leaf};
    manager.take_with_mode(roots, Mode::kIncremental);
  }
  EXPECT_THROW(CheckpointManager::recover(path_, registry_), CorruptionError);
}

TEST_F(ManagerTest, TakeReportsBytesAndStats) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_);
  auto result = manager.take(*leaf);
  EXPECT_EQ(result.mode, Mode::kFull);
  EXPECT_EQ(result.stats.objects_recorded, 1u);
  EXPECT_GT(result.bytes, 0u);
  EXPECT_EQ(result.epoch, 0u);
  EXPECT_EQ(manager.next_epoch(), 1u);
}

TEST_F(ManagerTest, IncrementalAfterNoChangesIsTiny) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_);
  auto full = manager.take(*leaf);
  auto incr = manager.take(*leaf);  // nothing changed
  EXPECT_EQ(incr.mode, Mode::kIncremental);
  EXPECT_EQ(incr.stats.objects_recorded, 0u);
  EXPECT_LT(incr.bytes, full.bytes);
}

TEST_F(ManagerTest, RecoverStreamsInsteadOfMaterializing) {
  // Regression: recover() used to materialize every frame payload up front
  // via StableStorage::scan. It now streams — one payload-free indexing
  // pass plus one pass per replay attempt, opened at the window's full
  // checkpoint, so a clean log recovers in exactly two passes no matter how
  // many windows it holds.
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  ManagerOptions opts;
  opts.full_interval = 3;
  CheckpointManager manager(path_, opts);
  for (int i = 1; i <= 11; ++i) {  // several full/incremental windows
    leaf->set_i32(i);
    manager.take(*leaf);
  }
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_TRUE(result.log_clean);
  EXPECT_EQ(result.stream_passes, 2u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 11);
}

TEST_F(ManagerTest, RecoverAfterTornTailStillStreams) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  {
    ManagerOptions opts;
    opts.full_interval = 4;
    CheckpointManager manager(path_, opts);
    for (int i = 1; i <= 9; ++i) {
      leaf->set_i32(i);
      manager.take(*leaf);
    }
  }
  auto bytes = io::read_file(path_);
  bytes.resize(bytes.size() - 5);
  io::write_file(path_, bytes);

  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_FALSE(result.log_clean);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 8);
  // One indexing pass plus at least one replay pass — and replays stay
  // bounded by the number of frames the index admitted.
  EXPECT_GE(result.stream_passes, 2u);
  EXPECT_LE(result.stream_passes, 10u);
}

TEST_F(ManagerTest, RecoverZeroLengthLogThrowsActionable) {
  // A zero-length file is what a crash right after open leaves behind. It
  // must be refused with a structured, actionable error — not a crash and
  // not a partial graph.
  io::write_file(path_, {});
  try {
    CheckpointManager::recover(path_, registry_);
    FAIL() << "recover() must throw on a zero-length log";
  } catch (const CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("no recoverable checkpoint"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
        << e.what();
  }
}

TEST_F(ManagerTest, RecoverHeaderOnlyLogThrowsCorruption) {
  // A log holding exactly one valid frame *header* and none of its payload:
  // the torn-final-write worst case. The scan must classify it as a torn
  // tail (zero complete frames), and recovery must refuse.
  std::vector<std::uint8_t> bytes;
  auto be32 = [&](std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8)
      bytes.push_back(static_cast<std::uint8_t>(v >> s));
  };
  be32(0x49434B46);            // frame magic
  for (int i = 0; i < 8; ++i)  // seq 0
    bytes.push_back(0);
  be32(64);          // claimed payload length, never written
  be32(0xDEADBEEF);  // crc (unverifiable without the payload)
  io::write_file(path_, bytes);

  EXPECT_THROW(CheckpointManager::recover(path_, registry_), CorruptionError);
}

TEST_F(ManagerTest, RecoverEmptyWindowFramesThrowActionable) {
  // Frames that decode fine but carry no object records (a checkpoint of an
  // empty root set): nothing to recover, and the error must say so rather
  // than hand back an empty graph as if it were state.
  {
    CheckpointManager manager(path_);
    std::vector<core::Checkpointable*> no_roots;
    manager.take(no_roots);
    manager.take(no_roots);
  }
  try {
    CheckpointManager::recover(path_, registry_);
    FAIL() << "recover() must refuse a record-free log";
  } catch (const CorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("empty checkpoint frames"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ManagerTest, RecoverSurvivesProcessRestartSimulation) {
  // "Crash" = destroy manager and heap; recover into a fresh heap and keep
  // checkpointing from there.
  ObjectId root_id;
  {
    core::Heap heap;
    Inner* root = heap.make<Inner>();
    Leaf* leaf = heap.make<Leaf>();
    root->set_left(leaf);
    leaf->set_i32(41);
    root_id = root->info().id();
    CheckpointManager manager(path_);
    manager.take(*root);
    leaf->set_i32(42);
    manager.take(*root);
  }  // crash

  auto result = CheckpointManager::recover(path_, registry_);
  Inner* root = result.state.root_as<Inner>();
  EXPECT_EQ(root->info().id(), root_id);
  EXPECT_EQ(root->left->i32, 42);

  // Continue checkpointing post-recovery; ids must not collide.
  core::Heap& heap = result.state.heap;
  Leaf* extra = heap.make<Leaf>();
  EXPECT_GT(extra->info().id(), root_id);
  root->set_right(nullptr);
  CheckpointManager manager(path_);
  auto take = manager.take(*root);
  EXPECT_GT(take.epoch, 0u);
}

}  // namespace
}  // namespace ickpt::testing
