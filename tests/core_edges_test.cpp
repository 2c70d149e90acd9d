// Edge-case coverage for core primitives: Heap ownership, stream-header
// validation, epoch resume across restart and compaction, and the
// write_child_id null convention.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/manager.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

TEST(Heap, MakeAdoptRetainClear) {
  core::Heap heap;
  Leaf* a = heap.make<Leaf>();
  heap.make<Leaf>();
  EXPECT_EQ(heap.size(), 2u);
  auto extra = std::make_unique<Leaf>();
  Leaf* raw = extra.get();
  EXPECT_EQ(heap.adopt(std::move(extra)), raw);
  EXPECT_EQ(heap.size(), 3u);
  std::size_t dropped = heap.retain_if([&](const core::Checkpointable& obj) {
    return obj.info().id() == a->info().id();
  });
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(heap.size(), 1u);
  heap.clear();
  EXPECT_EQ(heap.size(), 0u);
}

TEST(Heap, MoveTransfersOwnership) {
  core::Heap heap;
  heap.make<Leaf>();
  core::Heap moved(std::move(heap));
  EXPECT_EQ(moved.size(), 1u);
}

TEST(StreamHeader, PeekRejectsBadVersionAndMode) {
  auto make_payload = [](std::uint8_t version, std::uint8_t mode) {
    io::VectorSink sink;
    io::DataWriter w(sink);
    w.write_u8(core::kStreamMagic);
    w.write_u8(version);
    w.write_u8(mode);
    w.write_u64(0);
    w.write_varint(0);
    w.write_u8(core::kEndTag);
    w.flush();
    return sink.take();
  };
  EXPECT_NO_THROW(core::peek_header(make_payload(core::kFormatVersion, 0)));
  EXPECT_THROW(core::peek_header(make_payload(99, 0)), CorruptionError);
  EXPECT_THROW(core::peek_header(make_payload(core::kFormatVersion, 7)),
               CorruptionError);
}

TEST(StreamHeader, NullRootIdAllowedInHeader) {
  // A null root pointer records id 0 in the header; recovery's root_as
  // reports it as missing rather than crashing.
  io::VectorSink sink;
  io::DataWriter w(sink);
  std::vector<core::Checkpointable*> roots{nullptr};
  core::Checkpoint::run(w, 0, roots, {.mode = core::Mode::kFull});
  w.flush();
  auto header = core::peek_header(sink.bytes());
  ASSERT_EQ(header.roots.size(), 1u);
  EXPECT_EQ(header.roots[0], kNullObjectId);
}

TEST(ManagerEpochs, ResumeAfterRestartAndCompaction) {
  std::string path = ::testing::TempDir() + "/ickpt_epochs.log";
  std::remove(path.c_str());
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  core::TypeRegistry registry;
  register_test_types(registry);

  {
    core::CheckpointManager manager(path);
    leaf->set_i32(1);
    EXPECT_EQ(manager.take(*leaf).epoch, 0u);
    leaf->set_i32(2);
    EXPECT_EQ(manager.take(*leaf).epoch, 1u);
  }
  {
    // Restart: epochs continue from the log.
    core::CheckpointManager manager(path);
    EXPECT_EQ(manager.next_epoch(), 2u);
    leaf->set_i32(3);
    EXPECT_EQ(manager.take(*leaf).epoch, 2u);
  }

  core::CheckpointManager::compact(path, registry);
  {
    // After compaction the log holds one frame; a new manager keeps going
    // and recovery still yields the latest state.
    core::CheckpointManager manager(path);
    auto recovered = core::CheckpointManager::recover(path, registry);
    EXPECT_EQ(recovered.state.root_as<Leaf>()->i32, 3);
    Leaf* live = recovered.state.root_as<Leaf>();
    live->set_i32(4);
    manager.take(*live);
  }
  auto final_state = core::CheckpointManager::recover(path, registry);
  EXPECT_EQ(final_state.state.root_as<Leaf>()->i32, 4);
  std::remove(path.c_str());
}

TEST(CycleGuard, SharedSubobjectAcrossRootsRecordedOncePerSession) {
  // The visited set lives for the whole checkpoint session, not per root
  // (see CheckpointOptions::cycle_guard): a Leaf reachable from two roots is
  // recorded under the first root only, and recovery re-links both parents
  // to the single record.
  core::Heap heap;
  Inner* a = heap.make<Inner>();
  Inner* b = heap.make<Inner>();
  Leaf* shared = heap.make<Leaf>();
  a->set_left(shared);
  b->set_left(shared);
  shared->set_i32(41);
  std::vector<core::Checkpointable*> roots{a, b};

  io::VectorSink sink;
  io::DataWriter writer(sink);
  core::CheckpointOptions opts;
  opts.mode = core::Mode::kFull;
  opts.cycle_guard = true;
  auto stats = core::Checkpoint::run(writer, 0, roots, opts);
  writer.flush();
  EXPECT_EQ(stats.objects_visited, 3u);
  EXPECT_EQ(stats.objects_recorded, 3u);

  // Without the guard the shared Leaf is double-recorded.
  io::VectorSink unguarded_sink;
  io::DataWriter unguarded_writer(unguarded_sink);
  opts.cycle_guard = false;
  auto unguarded = core::Checkpoint::run(unguarded_writer, 1, roots, opts);
  EXPECT_EQ(unguarded.objects_recorded, 4u);

  // Recovery of the guarded stream rebuilds the sharing.
  core::TypeRegistry registry;
  register_test_types(registry);
  core::Recovery recovery(registry);
  io::DataReader reader(sink.bytes());
  recovery.apply(reader);
  auto state = recovery.finish();
  EXPECT_EQ(state.by_id.size(), 3u);
  auto* ra = dynamic_cast<Inner*>(state.find(a->info().id()));
  auto* rb = dynamic_cast<Inner*>(state.find(b->info().id()));
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(ra->left, nullptr);
  EXPECT_EQ(ra->left, rb->left);
  EXPECT_EQ(ra->left->i32, 41);
}

TEST(WriteChildId, NullChildEncodesZero) {
  io::VectorSink sink;
  io::DataWriter w(sink);
  core::write_child_id(w, nullptr);
  w.flush();
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.bytes()[0], 0);
}

}  // namespace
}  // namespace ickpt::testing
