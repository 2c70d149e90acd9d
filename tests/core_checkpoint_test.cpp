// Generic checkpoint driver tests (paper Fig. 1 semantics): full vs
// incremental recording, flag reset discipline, dry runs, stats, and the
// stream framing.
#include <gtest/gtest.h>

#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::Checkpoint;
using core::CheckpointOptions;
using core::Mode;

struct Graph {
  core::Heap heap;
  Inner* root = nullptr;
  Inner* mid = nullptr;
  Leaf* leaf_a = nullptr;
  Leaf* leaf_b = nullptr;

  static Graph make() {
    Graph g;
    g.leaf_a = g.heap.make<Leaf>();
    g.leaf_b = g.heap.make<Leaf>();
    g.mid = g.heap.make<Inner>();
    g.root = g.heap.make<Inner>();
    g.leaf_a->set_i32(11);
    g.leaf_b->set_i32(22);
    g.mid->set_left(g.leaf_b);
    g.root->set_left(g.leaf_a);
    g.root->set_right(g.mid);
    return g;
  }

  std::vector<core::Checkpointable*> roots() { return {root}; }

  void reset_flags() {
    for (auto* obj : std::initializer_list<core::Checkpointable*>{
             root, mid, leaf_a, leaf_b})
      obj->info().reset_modified();
  }
};

TEST(CheckpointDriver, FullRecordsEveryObject) {
  Graph g = Graph::make();
  g.reset_flags();  // even clean objects are recorded in full mode
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  auto stats = Checkpoint::run(w, 0, roots, {.mode = Mode::kFull});
  EXPECT_EQ(stats.objects_visited, 4u);
  EXPECT_EQ(stats.objects_recorded, 4u);
}

TEST(CheckpointDriver, IncrementalRecordsOnlyModified) {
  Graph g = Graph::make();
  g.reset_flags();
  g.leaf_b->set_i32(99);
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  auto stats = Checkpoint::run(w, 1, roots, {.mode = Mode::kIncremental});
  EXPECT_EQ(stats.objects_visited, 4u);
  EXPECT_EQ(stats.objects_recorded, 1u);
}

TEST(CheckpointDriver, NewObjectsStartModified) {
  Graph g = Graph::make();
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  auto stats = Checkpoint::run(w, 0, roots, {.mode = Mode::kIncremental});
  // Freshly constructed objects carry a set flag (paper Fig. 1 constructor).
  EXPECT_EQ(stats.objects_recorded, 4u);
}

TEST(CheckpointDriver, RecordingResetsFlags) {
  Graph g = Graph::make();
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  Checkpoint::run(w, 0, roots, {.mode = Mode::kIncremental});
  EXPECT_FALSE(g.root->info().modified());
  EXPECT_FALSE(g.mid->info().modified());
  EXPECT_FALSE(g.leaf_a->info().modified());
  EXPECT_FALSE(g.leaf_b->info().modified());

  // Second incremental checkpoint is records-free.
  io::VectorSink sink2;
  io::DataWriter w2(sink2);
  auto stats = Checkpoint::run(w2, 1, roots, {.mode = Mode::kIncremental});
  EXPECT_EQ(stats.objects_recorded, 0u);
}

TEST(CheckpointDriver, FullModeAlsoResetsFlags) {
  Graph g = Graph::make();
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  Checkpoint::run(w, 0, roots, {.mode = Mode::kFull});
  EXPECT_FALSE(g.root->info().modified());
  EXPECT_FALSE(g.leaf_b->info().modified());
}

TEST(CheckpointDriver, UnmodifiedSubtreeStillTraversed) {
  // Incremental checkpointing must visit clean objects to find dirty ones
  // below them — the overhead the paper's traversal-pruning removes.
  Graph g = Graph::make();
  g.reset_flags();
  g.leaf_b->set_i32(5);  // dirty leaf under clean root/mid
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  auto stats = Checkpoint::run(w, 1, roots, {.mode = Mode::kIncremental});
  EXPECT_EQ(stats.objects_visited, 4u);
  EXPECT_EQ(stats.objects_recorded, 1u);
}

TEST(CheckpointDriver, DryRunWritesNothingAndKeepsFlags) {
  Graph g = Graph::make();
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  CheckpointOptions opts;
  opts.mode = Mode::kIncremental;
  opts.dry_run = true;
  auto stats = Checkpoint::run(w, 0, roots, opts);
  w.flush();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(stats.objects_visited, 4u);
  EXPECT_TRUE(g.root->info().modified());  // flags untouched
}

TEST(CheckpointDriver, StreamHeaderLayout) {
  Graph g = Graph::make();
  auto roots = g.roots();
  io::VectorSink sink;
  io::DataWriter w(sink);
  Checkpoint::run(w, 7, roots, {.mode = Mode::kIncremental});
  w.flush();
  io::DataReader r(sink.bytes());
  EXPECT_EQ(r.read_u8(), core::kStreamMagic);
  EXPECT_EQ(r.read_u8(), core::kFormatVersion);
  EXPECT_EQ(r.read_u8(), static_cast<std::uint8_t>(Mode::kIncremental));
  EXPECT_EQ(r.read_u64(), 7u);
  EXPECT_EQ(r.read_varint(), 1u);  // one root
  EXPECT_EQ(r.read_varint(), g.root->info().id());
}

TEST(CheckpointDriver, EndTagTerminatesStream) {
  Graph g = Graph::make();
  g.reset_flags();
  auto roots = g.roots();
  auto bytes = checkpoint_bytes(roots, 0, Mode::kIncremental);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.back(), core::kEndTag);
}

TEST(CheckpointDriver, MultipleRootsInOrder) {
  core::Heap heap;
  Leaf* a = heap.make<Leaf>();
  Leaf* b = heap.make<Leaf>();
  a->set_i32(1);
  b->set_i32(2);
  std::vector<core::Checkpointable*> roots{a, b};
  io::VectorSink sink;
  io::DataWriter w(sink);
  Checkpoint::run(w, 0, roots, {.mode = Mode::kFull});
  w.flush();
  io::DataReader r(sink.bytes());
  r.read_u8();
  r.read_u8();
  r.read_u8();
  r.read_u64();
  EXPECT_EQ(r.read_varint(), 2u);
  EXPECT_EQ(r.read_varint(), a->info().id());
  EXPECT_EQ(r.read_varint(), b->info().id());
}

TEST(CheckpointDriver, CycleGuardTerminatesOnSharedStructure) {
  core::Heap heap;
  Inner* x = heap.make<Inner>();
  Inner* y = heap.make<Inner>();
  x->set_right(y);
  y->set_right(x);  // cycle
  std::vector<core::Checkpointable*> roots{x};
  io::VectorSink sink;
  io::DataWriter w(sink);
  CheckpointOptions opts;
  opts.mode = Mode::kFull;
  opts.cycle_guard = true;
  auto stats = Checkpoint::run(w, 0, roots, opts);
  EXPECT_EQ(stats.objects_visited, 2u);
  EXPECT_EQ(stats.objects_recorded, 2u);
}

TEST(CheckpointDriver, SharedChildRecordedOnceWithGuard) {
  core::Heap heap;
  Leaf* shared = heap.make<Leaf>();
  Inner* left = heap.make<Inner>();
  Inner* root = heap.make<Inner>();
  left->set_left(shared);
  root->set_left(shared);
  root->set_right(left);
  std::vector<core::Checkpointable*> roots{root};
  io::VectorSink sink;
  io::DataWriter w(sink);
  CheckpointOptions opts;
  opts.mode = Mode::kFull;
  opts.cycle_guard = true;
  auto stats = Checkpoint::run(w, 0, roots, opts);
  EXPECT_EQ(stats.objects_recorded, 3u);
}

// The hook dispatch is bound once at construction (one pointer test per
// hook per visit); this pins down that binding neither drops events nor
// perturbs the walk: hook fire counts match the stats, and the stats and
// bytes are identical with and without hooks installed.
TEST(CheckpointDriver, HooksFireOncePerVisitAndLeaveWalkUnchanged) {
  core::Heap heap;
  Leaf* shared = heap.make<Leaf>();
  Inner* left = heap.make<Inner>();
  Inner* root = heap.make<Inner>();
  left->set_left(shared);
  root->set_left(shared);
  root->set_right(left);
  std::vector<core::Checkpointable*> roots{root};

  CheckpointOptions opts;
  opts.mode = Mode::kFull;
  opts.cycle_guard = true;

  io::VectorSink bare_sink;
  core::CheckpointStats bare;
  {
    io::DataWriter w(bare_sink);
    bare = Checkpoint::run(w, 0, roots, opts);
    w.flush();
  }

  std::size_t enters = 0, leaves = 0, revisits = 0;
  core::VisitHooks hooks;
  hooks.enter = [&](core::Checkpointable&) { ++enters; };
  hooks.leave = [&](core::Checkpointable&) { ++leaves; };
  hooks.revisit = [&](core::Checkpointable&) { ++revisits; };
  opts.hooks = &hooks;
  io::VectorSink hooked_sink;
  core::CheckpointStats hooked;
  {
    io::DataWriter w(hooked_sink);
    hooked = Checkpoint::run(w, 0, roots, opts);
    w.flush();
  }

  // enter/leave fire exactly once per visited object; revisit fires for the
  // one extra edge into the shared leaf.
  EXPECT_EQ(enters, hooked.objects_visited);
  EXPECT_EQ(leaves, hooked.objects_visited);
  EXPECT_EQ(revisits, 1u);
  // Observation must not perturb the walk or the stream.
  EXPECT_EQ(hooked.objects_visited, bare.objects_visited);
  EXPECT_EQ(hooked.objects_recorded, bare.objects_recorded);
  EXPECT_EQ(hooked_sink.bytes(), bare_sink.bytes());

  // A partially populated hook set binds only the hooks that exist.
  core::VisitHooks only_enter;
  std::size_t enters2 = 0;
  only_enter.enter = [&](core::Checkpointable&) { ++enters2; };
  opts.hooks = &only_enter;
  io::VectorSink sink3;
  {
    io::DataWriter w(sink3);
    auto stats = Checkpoint::run(w, 0, roots, opts);
    EXPECT_EQ(enters2, stats.objects_visited);
  }
}

TEST(CheckpointInfo, IdsAreUniqueAndNonNull) {
  core::CheckpointInfo a;
  core::CheckpointInfo b;
  EXPECT_NE(a.id(), kNullObjectId);
  EXPECT_NE(a.id(), b.id());
}

TEST(CheckpointInfo, RestoreConstructorBumpsAllocator) {
  core::CheckpointInfo preserved(core::IdAllocator::next() + 1000);
  core::CheckpointInfo fresh;
  EXPECT_GT(fresh.id(), preserved.id());
}

TEST(CheckpointInfo, ModifiedFlagLifecycle) {
  core::CheckpointInfo info;
  EXPECT_TRUE(info.modified());  // fresh objects are dirty
  info.reset_modified();
  EXPECT_FALSE(info.modified());
  info.set_modified();
  EXPECT_TRUE(info.modified());
}

}  // namespace
}  // namespace ickpt::testing
