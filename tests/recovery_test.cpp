// Recovery tests: full round trips, incremental chains, last-writer-wins,
// link resolution, and corruption/type-error paths.
#include <gtest/gtest.h>

#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::Mode;
using core::RecoveredState;
using core::Recovery;
using core::TypeRegistry;

TypeRegistry make_registry() {
  TypeRegistry registry;
  register_test_types(registry);
  return registry;
}

RecoveredState recover_from(const TypeRegistry& registry,
                            std::span<const std::vector<std::uint8_t>> ckpts) {
  Recovery recovery(registry);
  for (const auto& bytes : ckpts) {
    io::DataReader reader(bytes);
    recovery.apply(reader);
  }
  return recovery.finish();
}

TEST(Recovery, FullRoundTripPreservesStateAndWiring) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  Inner* mid = heap.make<Inner>();
  Inner* root = heap.make<Inner>();
  leaf->set_i32(123);
  leaf->set_i64(-9);
  leaf->set_f64(0.5);
  leaf->set_flag(true);
  mid->set_left(leaf);
  mid->set_tag(7);
  root->set_right(mid);
  root->set_tag(1);

  std::vector<core::Checkpointable*> roots{root};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);

  auto registry = make_registry();
  std::vector<std::vector<std::uint8_t>> ckpts{bytes};
  RecoveredState state = recover_from(registry, ckpts);

  ASSERT_EQ(state.roots.size(), 1u);
  Inner* new_root = state.root_as<Inner>();
  EXPECT_EQ(new_root->info().id(), root->info().id());
  EXPECT_EQ(new_root->tag, 1);
  ASSERT_NE(new_root->right, nullptr);
  EXPECT_EQ(new_root->right->tag, 7);
  EXPECT_EQ(new_root->left, nullptr);
  ASSERT_NE(new_root->right->left, nullptr);
  Leaf* new_leaf = new_root->right->left;
  EXPECT_EQ(new_leaf->info().id(), leaf->info().id());
  EXPECT_TRUE(new_leaf->state_equals(*leaf));
}

TEST(Recovery, IncrementalChainLastWriterWins) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  Inner* root = heap.make<Inner>();
  root->set_left(leaf);
  leaf->set_i32(1);

  std::vector<core::Checkpointable*> roots{root};
  std::vector<std::vector<std::uint8_t>> ckpts;
  ckpts.push_back(checkpoint_bytes(roots, 0, Mode::kFull));

  leaf->set_i32(2);
  ckpts.push_back(checkpoint_bytes(roots, 1, Mode::kIncremental));
  leaf->set_i32(3);
  ckpts.push_back(checkpoint_bytes(roots, 2, Mode::kIncremental));

  auto registry = make_registry();
  RecoveredState state = recover_from(registry, ckpts);
  EXPECT_EQ(state.epoch, 2u);
  EXPECT_EQ(state.root_as<Inner>()->left->i32, 3);
}

TEST(Recovery, ObjectCreatedBetweenCheckpointsMaterializes) {
  core::Heap heap;
  Inner* root = heap.make<Inner>();
  std::vector<core::Checkpointable*> roots{root};
  std::vector<std::vector<std::uint8_t>> ckpts;
  ckpts.push_back(checkpoint_bytes(roots, 0, Mode::kFull));

  Leaf* late = heap.make<Leaf>();  // born dirty
  late->set_i32(77);
  root->set_left(late);
  ckpts.push_back(checkpoint_bytes(roots, 1, Mode::kIncremental));

  auto registry = make_registry();
  RecoveredState state = recover_from(registry, ckpts);
  ASSERT_NE(state.root_as<Inner>()->left, nullptr);
  EXPECT_EQ(state.root_as<Inner>()->left->i32, 77);
}

TEST(Recovery, DeltaThatClearsLinkSupersedesOlderRecord) {
  // The full checkpoint links root->left; a later delta records it null.
  // The newest record of each slot wins, so the old link must not come
  // back, and the untouched right link must survive.
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  Inner* child = heap.make<Inner>();
  Inner* root = heap.make<Inner>();
  root->set_left(leaf);
  root->set_right(child);
  std::vector<core::Checkpointable*> roots{root};
  std::vector<std::vector<std::uint8_t>> ckpts;
  ckpts.push_back(checkpoint_bytes(roots, 0, Mode::kFull));
  root->set_left(nullptr);
  ckpts.push_back(checkpoint_bytes(roots, 1, Mode::kIncremental));

  auto registry = make_registry();
  {
    RecoveredState state = recover_from(registry, ckpts);
    EXPECT_EQ(state.root_as<Inner>()->left, nullptr);
    ASSERT_NE(state.root_as<Inner>()->right, nullptr);
    EXPECT_EQ(state.root_as<Inner>()->right->info().id(), child->info().id());
  }

  // Relinking in a third frame restores the leaf from the full checkpoint.
  root->set_left(leaf);
  ckpts.push_back(checkpoint_bytes(roots, 2, Mode::kIncremental));
  RecoveredState state = recover_from(registry, ckpts);
  ASSERT_NE(state.root_as<Inner>()->left, nullptr);
  EXPECT_EQ(state.root_as<Inner>()->left->info().id(), leaf->info().id());
}

TEST(Recovery, RecoveredFlagsAreClean) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  leaf->set_i32(5);
  std::vector<core::Checkpointable*> roots{leaf};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  auto registry = make_registry();
  std::vector<std::vector<std::uint8_t>> ckpts{bytes};
  RecoveredState state = recover_from(registry, ckpts);
  EXPECT_FALSE(state.root_as<Leaf>()->info().modified());
}

TEST(Recovery, VariableLengthRecords) {
  core::Heap heap;
  Named* named = heap.make<Named>();
  named->set_name("incremental checkpointing of java programs");
  std::vector<core::Checkpointable*> roots{named};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  auto registry = make_registry();
  std::vector<std::vector<std::uint8_t>> ckpts{bytes};
  RecoveredState state = recover_from(registry, ckpts);
  EXPECT_EQ(state.root_as<Named>()->name,
            "incremental checkpointing of java programs");
}

TEST(Recovery, SelfReferentialGraphNeedsNoForwardDeclarations) {
  // A record can reference an object whose record appears later in the same
  // stream; links resolve in finish().
  core::Heap heap;
  Inner* a = heap.make<Inner>();
  Inner* b = heap.make<Inner>();
  a->set_right(b);  // a recorded before b, references b's id
  std::vector<core::Checkpointable*> roots{a};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  auto registry = make_registry();
  std::vector<std::vector<std::uint8_t>> ckpts{bytes};
  RecoveredState state = recover_from(registry, ckpts);
  EXPECT_EQ(state.root_as<Inner>()->right->info().id(), b->info().id());
}

TEST(Recovery, UnregisteredTypeThrows) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  std::vector<core::Checkpointable*> roots{leaf};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  TypeRegistry empty;
  Recovery recovery(empty);
  io::DataReader reader(bytes);
  EXPECT_THROW(recovery.apply(reader), TypeError);
}

TEST(Recovery, TruncatedStreamThrows) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  std::vector<core::Checkpointable*> roots{leaf};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  bytes.resize(bytes.size() - 2);  // drop end tag and a byte
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader reader(bytes);
  EXPECT_THROW(recovery.apply(reader), CorruptionError);
}

TEST(Recovery, TrailingGarbageThrows) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  std::vector<core::Checkpointable*> roots{leaf};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  bytes.push_back(0x42);
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader reader(bytes);
  EXPECT_THROW(recovery.apply(reader), CorruptionError);
}

TEST(Recovery, BadMagicThrows) {
  std::vector<std::uint8_t> bytes{0x00, 0x01, 0x00};
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader reader(bytes);
  EXPECT_THROW(recovery.apply(reader), CorruptionError);
}

TEST(Recovery, MissingRootThrows) {
  auto registry = make_registry();
  Recovery recovery(registry);
  // Handcraft a checkpoint naming a root that has no record: header only.
  io::VectorSink sink;
  {
    io::DataWriter w(sink);
    w.write_u8(core::kStreamMagic);
    w.write_u8(core::kFormatVersion);
    w.write_u8(static_cast<std::uint8_t>(Mode::kFull));
    w.write_u64(0);
    w.write_varint(1);
    w.write_varint(424242);
    w.write_u8(core::kEndTag);
    w.flush();
  }
  io::DataReader reader(sink.bytes());
  recovery.apply(reader);
  auto state = recovery.finish();
  EXPECT_THROW((void)state.root_as<Leaf>(), CorruptionError);
}

TEST(Recovery, FinishWithoutApplyThrows) {
  auto registry = make_registry();
  Recovery recovery(registry);
  EXPECT_THROW(recovery.finish(), Error);
}

TEST(Recovery, RootTypeMismatchThrows) {
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  std::vector<core::Checkpointable*> roots{leaf};
  auto bytes = checkpoint_bytes(roots, 0, Mode::kFull);
  auto registry = make_registry();
  std::vector<std::vector<std::uint8_t>> ckpts{bytes};
  RecoveredState state = recover_from(registry, ckpts);
  EXPECT_THROW((void)state.root_as<Inner>(), TypeError);
}

}  // namespace
}  // namespace ickpt::testing
