// Recovery tests: full round trips, incremental chains, last-writer-wins,
// link resolution, corruption/type-error paths, and round trips whose ids
// are laid out to defeat a careless id table.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "core/checkpoint_format.hpp"
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

/// A hand-written stream: the header naming `root`, whatever `records`
/// writes, and the end tag.
template <class Records>
std::vector<std::uint8_t> handmade_stream(Mode mode, Epoch epoch,
                                          ObjectId root, Records records) {
  io::VectorSink sink;
  io::DataWriter w(sink);
  core::write_stream_header(w, mode, epoch, std::vector<ObjectId>{root},
                            [](ObjectId id) { return id; });
  records(w);
  core::write_end(w);
  w.flush();
  return sink.take();
}

/// An Inner record: tag 0, then its left (Leaf) and right (Inner) child ids.
void write_inner(io::DataWriter& w, ObjectId id, ObjectId left,
                 ObjectId right) {
  core::write_record_header(w, Inner::kTypeId, id);
  w.write_i32(0);
  w.write_varint(left);
  w.write_varint(right);
}

/// A Leaf record with every scalar zero.
void write_leaf(io::DataWriter& w, ObjectId id) {
  core::write_record_header(w, Leaf::kTypeId, id);
  w.write_i32(0);
  w.write_i64(0);
  w.write_f64(0.0);
  w.write_bool(false);
}

TEST(Recovery, ChildIdOfNoObjectThrowsFromFinish) {
  auto bytes = handmade_stream(Mode::kFull, 0, 1, [](io::DataWriter& w) {
    write_inner(w, 1, /*left=*/999, /*right=*/0);
  });
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader reader(bytes);
  recovery.apply(reader);  // links resolve only once every frame is in
  EXPECT_THROW(recovery.finish(), CorruptionError);
}

TEST(Recovery, LinkToObjectOfWrongTypeThrowsTypeError) {
  // Inner 1's left slot holds a Leaf*, but id 2 is an Inner.
  auto bytes = handmade_stream(Mode::kFull, 0, 1, [](io::DataWriter& w) {
    write_inner(w, 1, /*left=*/2, /*right=*/0);
    write_inner(w, 2, 0, 0);
  });
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader reader(bytes);
  recovery.apply(reader);
  EXPECT_THROW(recovery.finish(), TypeError);
}

TEST(Recovery, ObjectChangingTypeBetweenFramesThrowsTypeError) {
  auto full = handmade_stream(Mode::kFull, 0, 1,
                              [](io::DataWriter& w) { write_leaf(w, 1); });
  auto delta = handmade_stream(Mode::kIncremental, 1, 1,
                               [](io::DataWriter& w) {
                                 write_inner(w, 1, 0, 0);
                               });
  auto registry = make_registry();
  Recovery recovery(registry);
  io::DataReader full_reader(full);
  recovery.apply(full_reader);
  io::DataReader delta_reader(delta);
  EXPECT_THROW(recovery.apply(delta_reader), TypeError);
}

TEST(Recovery, LargestObjectIdThrowsBeforeAnyFactoryRuns) {
  // No process hands out 2^64 - 1, and restoring it would wrap IdAllocator
  // past it to the null id, so both modes refuse the record before its
  // factory constructs anything.
  constexpr ObjectId kLargest = std::numeric_limits<ObjectId>::max();
  static_assert(kLargest == core::IdAllocator::kMaxId + 1);
  auto bytes = handmade_stream(Mode::kFull, 0, kLargest,
                               [](io::DataWriter& w) {
                                 write_leaf(w, kLargest);
                               });
  auto registry = make_registry();
  for (Recovery::ApplyMode mode :
       {Recovery::ApplyMode::kMaterialize, Recovery::ApplyMode::kScan}) {
    Recovery recovery(registry, mode);
    io::DataReader reader(bytes);
    EXPECT_THROW(recovery.apply(reader), CorruptionError);
  }
  EXPECT_NE(core::IdAllocator::next(), kNullObjectId);
}

TEST(RecoveryDeathTest, RestoringTheLastIdStopsTheNextAllocation) {
  // 2^64 - 2 is the last id a process may hand out, so a stream may carry
  // it. Restoring it uses the allocator up: the next fresh object aborts
  // the process instead of taking 2^64 - 1, which recovery would reject,
  // or the null id after it. The child process dies; this one's allocator
  // is untouched.
  constexpr ObjectId kLast = core::IdAllocator::kMaxId;
  const auto bytes = handmade_stream(
      Mode::kFull, 0, kLast, [](io::DataWriter& w) { write_leaf(w, kLast); });
  auto registry = make_registry();
  EXPECT_DEATH(
      {
        Recovery recovery(registry);
        io::DataReader reader(bytes);
        recovery.apply(reader);
        const auto state = recovery.finish();
        if (state.find(kLast) == nullptr) return;  // not restored: no death
        (void)core::IdAllocator::next();
      },
      "");
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

// Round trips whose ids are laid out against the id table. Every graph is
// kChains chains of kChainLength Inners, each holding a Leaf, with ids
// handed out in DFS order as `first + k * stride`: dense ids are what a
// real heap records, strides of 2^16, 2^20 and 2^32 put every id in a
// 64-id run of its own, and the last layout packs ids just below 2^64
// (ten-byte varints). Each log is a full frame plus three deltas — new
// scalars, cleared links, then new objects — and each layout must recover
// to the same id-blind digest as the live graph. A table that let these
// ids pile up into one region would take quadratic time and run far past
// the test's ctest TIMEOUT.
constexpr int kChains = 1000;
constexpr int kChainLength = 100;

struct IdLayout {
  const char* name;
  ObjectId first;
  ObjectId stride;
};

/// Everything reachable from the chain roots, blind to ids: each Inner's
/// tag, whether it holds a Leaf, and that Leaf's scalars.
std::uint64_t chain_digest(const std::vector<Inner*>& roots) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Inner* inner : roots) {
    for (; inner != nullptr; inner = inner->right) {
      mix(static_cast<std::uint64_t>(inner->tag));
      mix(inner->left != nullptr ? 1 : 0);
      if (inner->left == nullptr) continue;
      mix(static_cast<std::uint64_t>(inner->left->i32));
      mix(static_cast<std::uint64_t>(inner->left->i64));
    }
    mix(0xC4A1);  // chain boundary
  }
  return h;
}

struct RoundTrip {
  std::uint64_t live_digest = 0;
  std::uint64_t recovered_digest = 0;
  std::size_t objects = 0;    // every object any frame recorded
  std::size_t recovered = 0;  // RecoveredState::by_id.size()
  std::size_t found = 0;      // of `objects`, found by id with their type
};

RoundTrip round_trip_with_ids(const IdLayout& layout) {
  core::Heap heap;
  std::vector<std::pair<ObjectId, TypeId>> made;
  ObjectId next = layout.first;
  auto new_id = [&](TypeId type) {
    made.emplace_back(next, type);
    return std::exchange(next, next + layout.stride);
  };
  std::vector<Inner*> roots;
  std::vector<Inner*> inners;
  for (int c = 0; c < kChains; ++c) {
    Inner* prev = nullptr;
    for (int i = 0; i < kChainLength; ++i) {
      auto* inner =
          heap.make<Inner>(core::RestoreTag{}, new_id(Inner::kTypeId));
      auto* leaf = heap.make<Leaf>(core::RestoreTag{}, new_id(Leaf::kTypeId));
      inner->set_tag(c * kChainLength + i);
      leaf->set_i32(i);
      leaf->set_i64(c);
      inner->set_left(leaf);
      if (prev != nullptr)
        prev->set_right(inner);
      else
        roots.push_back(inner);
      prev = inner;
      inners.push_back(inner);
    }
  }
  const std::vector<core::Checkpointable*> bases(roots.begin(), roots.end());
  std::vector<std::vector<std::uint8_t>> ckpts;
  ckpts.push_back(checkpoint_bytes(bases, 0, Mode::kFull));
  for (std::size_t k = 0; k < inners.size(); k += 3)
    inners[k]->left->set_i32(-1);
  ckpts.push_back(checkpoint_bytes(bases, 1, Mode::kIncremental));
  for (std::size_t k = 0; k < inners.size(); k += 7)
    inners[k]->set_left(nullptr);
  ckpts.push_back(checkpoint_bytes(bases, 2, Mode::kIncremental));
  for (std::size_t k = 0; k < inners.size(); k += 14) {
    auto* late = heap.make<Leaf>(core::RestoreTag{}, new_id(Leaf::kTypeId));
    late->set_i32(7);
    inners[k]->set_left(late);
  }
  ckpts.push_back(checkpoint_bytes(bases, 3, Mode::kIncremental));

  RoundTrip out;
  out.live_digest = chain_digest(roots);
  out.objects = made.size();
  auto registry = make_registry();
  RecoveredState state = recover_from(registry, ckpts);
  out.recovered = state.by_id.size();
  std::vector<Inner*> recovered_roots;
  for (ObjectId id : state.roots)
    recovered_roots.push_back(dynamic_cast<Inner*>(state.find(id)));
  out.recovered_digest = chain_digest(recovered_roots);
  for (const auto& [id, type] : made) {
    const core::Checkpointable* obj = state.find(id);
    if (obj != nullptr && obj->type_id() == type) ++out.found;
  }
  return out;
}

TEST(Recovery, AdversarialIdsRecoverLikeDenseIds) {
  const RoundTrip dense = round_trip_with_ids({"dense", 1, 1});
  ASSERT_EQ(dense.objects,
            2 * kChains * kChainLength + (kChains * kChainLength + 13) / 14);
  EXPECT_EQ(dense.recovered_digest, dense.live_digest);
  EXPECT_EQ(dense.recovered, dense.objects);
  EXPECT_EQ(dense.found, dense.objects);

  // The near-2^64 layout stops 2^32 ids short of the top: recovery bumps
  // the process-wide id counter past every id it restores, and the tests
  // that run after this one still allocate from it.
  const ObjectId top = std::numeric_limits<ObjectId>::max() - (1ULL << 32);
  for (const IdLayout& layout :
       {IdLayout{"stride 2^16", 1, 1ULL << 16},
        IdLayout{"stride 2^20", 1ULL << 20, 1ULL << 20},
        IdLayout{"stride 2^32", 3, 1ULL << 32},
        IdLayout{"just below 2^64", top - (1ULL << 18), 1}}) {
    SCOPED_TRACE(layout.name);
    const RoundTrip trip = round_trip_with_ids(layout);
    EXPECT_EQ(trip.objects, dense.objects);
    EXPECT_EQ(trip.live_digest, dense.live_digest);
    EXPECT_EQ(trip.recovered_digest, dense.recovered_digest);
    EXPECT_EQ(trip.recovered, trip.objects);
    EXPECT_EQ(trip.found, trip.objects);
  }
}

}  // namespace
}  // namespace ickpt::testing
