// Tests for the operational core tools: recovered-state reachability
// pruning and checkpoint-log inspection.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/log_ops.hpp"
#include "io/file_io.hpp"
#include "core/manager.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

TEST(PruneUnreachable, DropsUnlinkedObjects) {
  std::string path = ::testing::TempDir() + "/ickpt_prune.log";
  std::remove(path.c_str());
  core::Heap heap;
  Inner* root = heap.make<Inner>();
  Leaf* kept = heap.make<Leaf>();
  Leaf* doomed = heap.make<Leaf>();
  kept->set_i32(1);
  doomed->set_i32(2);
  root->set_left(doomed);

  core::CheckpointManager manager(path);
  manager.take(*root);  // full: records root + doomed
  root->set_left(kept);  // unlink doomed; link a new leaf
  manager.take(*root);   // incremental: root + kept

  core::TypeRegistry registry;
  register_test_types(registry);
  auto recovered = core::CheckpointManager::recover(path, registry);
  // The chain still carries the unlinked leaf's record.
  EXPECT_EQ(recovered.state.by_id.size(), 3u);
  EXPECT_NE(recovered.state.find(doomed->info().id()), nullptr);

  std::size_t dropped = recovered.state.prune_unreachable();
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(recovered.state.by_id.size(), 2u);
  EXPECT_EQ(recovered.state.find(doomed->info().id()), nullptr);
  EXPECT_EQ(recovered.state.root_as<Inner>()->left->i32, 1);
  std::remove(path.c_str());
}

TEST(PruneUnreachable, KeepsSharedAndChainedObjects) {
  std::string path = ::testing::TempDir() + "/ickpt_prune2.log";
  std::remove(path.c_str());
  core::Heap heap;
  Inner* a = heap.make<Inner>();
  Inner* b = heap.make<Inner>();
  Leaf* leaf = heap.make<Leaf>();
  a->set_right(b);
  b->set_left(leaf);
  core::CheckpointManager manager(path);
  std::vector<core::Checkpointable*> roots{a};
  manager.take(roots);

  core::TypeRegistry registry;
  register_test_types(registry);
  auto recovered = core::CheckpointManager::recover(path, registry);
  EXPECT_EQ(recovered.state.prune_unreachable(), 0u);
  EXPECT_EQ(recovered.state.by_id.size(), 3u);
  std::remove(path.c_str());
}

TEST(InspectLog, ReportsFramesModesAndRecordCounts) {
  std::string path = ::testing::TempDir() + "/ickpt_inspect.log";
  std::remove(path.c_str());
  core::Heap heap;
  Inner* root = heap.make<Inner>();
  Leaf* leaf = heap.make<Leaf>();
  root->set_left(leaf);
  {
    core::ManagerOptions opts;
    opts.full_interval = 2;
    core::CheckpointManager manager(path, opts);
    manager.take(*root);      // 0: full, 2 records
    leaf->set_i32(5);
    manager.take(*root);      // 1: incr, 1 Leaf record
    manager.take(*root);      // 2: full, 2 records
  }
  core::TypeRegistry registry;
  register_test_types(registry);
  auto report = core::inspect_log(path, registry);
  EXPECT_TRUE(report.clean);
  ASSERT_EQ(report.frames.size(), 3u);
  EXPECT_EQ(report.frames[0].mode, core::Mode::kFull);
  EXPECT_EQ(report.frames[0].records, 2u);
  EXPECT_EQ(report.frames[1].mode, core::Mode::kIncremental);
  EXPECT_EQ(report.frames[1].records, 1u);
  ASSERT_EQ(report.frames[1].records_by_type.size(), 1u);
  EXPECT_EQ(report.frames[1].records_by_type[0].first, "test.Leaf");
  EXPECT_EQ(report.frames[2].records, 2u);
  EXPECT_GT(report.total_bytes, 0u);

  std::string text = report.to_string();
  EXPECT_NE(text.find("test.Leaf:1"), std::string::npos);
  EXPECT_NE(text.find("full"), std::string::npos);
  EXPECT_NE(text.find("incr"), std::string::npos);
  std::remove(path.c_str());
}

TEST(InspectLog, TornTailReported) {
  std::string path = ::testing::TempDir() + "/ickpt_inspect_torn.log";
  std::remove(path.c_str());
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  {
    core::CheckpointManager manager(path);
    manager.take(*leaf);
    leaf->set_i32(9);
    manager.take(*leaf);
  }
  auto bytes = io::read_file(path);
  bytes.resize(bytes.size() - 3);
  io::write_file(path, bytes);

  core::TypeRegistry registry;
  register_test_types(registry);
  auto report = core::inspect_log(path, registry);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.frames.size(), 1u);
  EXPECT_NE(report.to_string().find("dropped"), std::string::npos);
  std::remove(path.c_str());
}

TEST(InspectLog, MissingFileYieldsEmptyReport) {
  core::TypeRegistry registry;
  auto report = core::inspect_log("/nonexistent/ickpt.log", registry);
  EXPECT_TRUE(report.frames.empty());
}

}  // namespace
}  // namespace ickpt::testing
