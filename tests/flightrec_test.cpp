// FlightRecorder: ring semantics, torn-slot safety under concurrent
// writers, the serialized image, and the acceptance property — the recorder
// reconstructs the full event timeline of an induced rotation + rebase
// episode driven through the healing manager, and dumps itself to disk when
// the ladder reaches terminal kFailed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/manager.hpp"
#include "io/fault.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "obs/flightrec.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::Health;
using core::ManagerOptions;
using io::FaultKind;
using io::ScriptedFaultPolicy;
using io::StableStorage;
using obs::FlightEvent;
using obs::FlightEventType;
using obs::FlightRecorder;

TEST(FlightRecorderTest, RetainsTheLastCapacityEvents) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(FlightEventType::kNote, /*epoch=*/i, /*v0=*/i * 100);
  EXPECT_EQ(rec.total_recorded(), 10u);
  std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive the wrap.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, 6 + i);
    EXPECT_EQ(events[i].v0, (6 + i) * 100);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(200).capacity(), 256u);
}

TEST(FlightRecorderTest, DetailIsTruncatedNotOverrun) {
  FlightRecorder rec(4);
  const std::string longdetail(300, 'x');
  rec.record(FlightEventType::kNote, 0, 0, 0, longdetail);
  std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  const std::size_t len = std::string(events[0].detail).size();
  EXPECT_LT(len, FlightEvent::kDetailCap);
  EXPECT_EQ(std::string(events[0].detail), std::string(len, 'x'));
}

/// Every field of a collision-test event derives from v0, the 88-byte
/// detail included, so an event mixing two writers' words is caught
/// wherever the seam falls.
std::string detail_for(std::uint64_t v0) {
  std::string tag = std::to_string(v0) + ':';
  std::string detail;
  while (detail.size() + tag.size() < FlightEvent::kDetailCap) detail += tag;
  return detail;
}

bool coherent(const FlightEvent& e) {
  return e.v1 == e.v0 * 2 && e.epoch == e.v0 % 97 &&
         std::string(e.detail) == detail_for(e.v0);
}

/// Writers lap the ring constantly at small capacities, so two of them
/// regularly land on one slot; a reader snapshots concurrently the whole
/// time and must never get an event that mixes two writers' words.
class FlightRecorderCollisionTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlightRecorderCollisionTest, ConcurrentWritersNeverYieldTornEvents) {
  FlightRecorder rec(GetParam());
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightEvent& e : rec.events())
        if (!coherent(e)) torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w)
      writers.emplace_back([&rec, w] {
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          const std::uint64_t v = static_cast<std::uint64_t>(w) * kPerWriter + i;
          rec.record(FlightEventType::kNote, v % 97, v, v * 2, detail_for(v));
        }
      });
    for (std::thread& t : writers) t.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(rec.total_recorded(), kWriters * kPerWriter);
  // The final snapshot is quiescent: at most a full ring, every event
  // coherent. A writer that lost its slot to a colliding one dropped its
  // event, so the ring can end an event or more short of full.
  std::vector<FlightEvent> events = rec.events();
  EXPECT_LE(events.size(), rec.capacity());
  for (const FlightEvent& e : events) EXPECT_TRUE(coherent(e)) << e.v0;
}

INSTANTIATE_TEST_SUITE_P(Capacities, FlightRecorderCollisionTest,
                         ::testing::Values(1u, 2u, 64u));

TEST(FlightRecorderTest, SerializeRoundTripsThroughDeserialize) {
  FlightRecorder rec(8);
  rec.record(FlightEventType::kEpochBegin, 7, 3, 0, "begin", /*aux=*/1);
  rec.record(FlightEventType::kRotation, 7, 2, 0,
             "/tmp/some.log.quarantine.2");
  rec.record(FlightEventType::kEpochEnd, 7, 12345, 678, nullptr, 1);

  std::vector<std::uint8_t> image = rec.serialize();
  std::uint64_t total = 0;
  std::vector<FlightEvent> events =
      FlightRecorder::deserialize(image.data(), image.size(), &total);
  EXPECT_EQ(total, 3u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FlightEventType::kEpochBegin);
  EXPECT_EQ(events[0].epoch, 7u);
  EXPECT_EQ(events[0].aux, 1);
  EXPECT_EQ(std::string(events[0].detail), "begin");
  EXPECT_EQ(events[1].type, FlightEventType::kRotation);
  EXPECT_EQ(std::string(events[1].detail), "/tmp/some.log.quarantine.2");
  EXPECT_EQ(events[2].v0, 12345u);
  EXPECT_EQ(events[2].v1, 678u);

  // Damage is detected, not misparsed: truncation and a bad magic both
  // throw CorruptionError.
  EXPECT_THROW(
      FlightRecorder::deserialize(image.data(), image.size() - 5),
      CorruptionError);
  std::vector<std::uint8_t> bad = image;
  bad[0] ^= 0xFF;
  EXPECT_THROW(FlightRecorder::deserialize(bad.data(), bad.size()),
               CorruptionError);
}

TEST(FlightRecorderTest, DumpAndLoadFileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/ickpt_flightrec_roundtrip.bin";
  std::remove(path.c_str());
  FlightRecorder rec(8);
  rec.record(FlightEventType::kFault, 3, 100, 4, "torn_write");
  rec.record(FlightEventType::kRetry, 3, 1);
  rec.dump_to_file(path);

  std::uint64_t total = 0;
  std::vector<FlightEvent> events = FlightRecorder::load_file(path, &total);
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, FlightEventType::kFault);
  EXPECT_EQ(std::string(events[0].detail), "torn_write");
  EXPECT_EQ(events[1].type, FlightEventType::kRetry);

  const std::string timeline = FlightRecorder::render_timeline(events, total);
  EXPECT_NE(timeline.find("fault"), std::string::npos);
  EXPECT_NE(timeline.find("retry"), std::string::npos);
  EXPECT_NE(timeline.find("torn_write"), std::string::npos);
  std::remove(path.c_str());
}

// --- the acceptance property: timeline of a healing episode ---------------

class FlightRecorderManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_flightrec_mgr_test.log";
    clean_chain();
    register_test_types(registry_);
  }
  void TearDown() override { clean_chain(); }

  void clean_chain() {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove(FlightRecorder::default_path(path_).c_str());
    for (unsigned n = 1; n <= 8; ++n) {
      const std::string q = StableStorage::quarantine_path(path_, n);
      std::remove(q.c_str());
      std::remove((q + ".bak").c_str());
    }
  }

  static ManagerOptions heal_opts(io::FaultPolicy* fault) {
    ManagerOptions opts;
    opts.full_interval = 3;
    opts.fault_policy = fault;
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff = std::chrono::microseconds{0};
    opts.heal.enabled = true;
    opts.heal.reheal_after = 2;
    opts.heal.append_retries = 1;
    opts.heal.rotate_attempts = 3;
    return opts;
  }

  std::uint64_t calibrate(int takes) {
    clean_chain();
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(nullptr));
    for (int i = 0; i < takes; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    const std::uint64_t size = io::read_file(path_).size();
    clean_chain();
    return size;
  }

  static std::size_t count(const std::vector<FlightEvent>& events,
                           FlightEventType type) {
    std::size_t n = 0;
    for (const FlightEvent& e : events)
      if (e.type == type) ++n;
    return n;
  }

  static std::size_t first_index(const std::vector<FlightEvent>& events,
                                 FlightEventType type) {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].type == type) return i;
    return events.size();
  }

  std::string path_;
  core::TypeRegistry registry_;
};

TEST_F(FlightRecorderManagerTest, ReconstructsARotationRebaseEpisode) {
  const std::uint64_t size2 = calibrate(2);
  // Same schedule as the health tests: epoch 2's append hits persistent
  // ENOSPC, in-place retries burn out, the ladder rotates + rebases, and
  // two clean epochs reheal.
  ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_, heal_opts(&policy));
  for (int i = 0; i < 5; ++i) {
    leaf->set_i32(10 + i);
    manager.take(*leaf);
  }
  ASSERT_EQ(manager.health(), Health::kHealthy);

  const std::vector<FlightEvent> events = manager.flight_recorder().events();
  // Nothing wrapped: the whole episode is on the timeline.
  EXPECT_EQ(manager.flight_recorder().total_recorded(), events.size());

  // Every epoch bracketed, in order, with matching epoch numbers.
  EXPECT_EQ(count(events, FlightEventType::kEpochBegin), 5u);
  EXPECT_EQ(count(events, FlightEventType::kEpochEnd), 5u);
  std::uint64_t next_epoch = 0;
  for (const FlightEvent& e : events)
    if (e.type == FlightEventType::kEpochBegin) {
      EXPECT_EQ(e.epoch, next_epoch);
      ++next_epoch;
    }

  // The episode itself: faults recorded by the sink, the in-place retry,
  // exactly one rotation and one rebase, the reheal, and the health walk
  // healthy -> degraded (-> rebasing -> degraded) -> healthy.
  EXPECT_GE(count(events, FlightEventType::kFault), 1u);
  EXPECT_GE(count(events, FlightEventType::kRetry), 1u);
  EXPECT_EQ(count(events, FlightEventType::kRotation), 1u);
  EXPECT_EQ(count(events, FlightEventType::kRebase), 1u);
  EXPECT_EQ(count(events, FlightEventType::kReheal), 1u);
  EXPECT_GE(count(events, FlightEventType::kHealthTransition), 3u);

  const std::size_t i_retry = first_index(events, FlightEventType::kRetry);
  const std::size_t i_rot = first_index(events, FlightEventType::kRotation);
  const std::size_t i_reb = first_index(events, FlightEventType::kRebase);
  const std::size_t i_heal = first_index(events, FlightEventType::kReheal);
  EXPECT_LT(i_retry, i_rot);
  EXPECT_LT(i_rot, i_reb);
  EXPECT_LT(i_reb, i_heal);

  // The rotation and rebase name the quarantined generation.
  EXPECT_EQ(std::string(events[i_rot].detail),
            StableStorage::quarantine_path(path_, 1));
  // Timestamps are monotone non-decreasing (events() is oldest-first).
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns) << "event " << i;

  // And the on-demand dump round-trips the same timeline through disk.
  manager.dump_flight_recorder();
  std::uint64_t total = 0;
  std::vector<FlightEvent> loaded =
      FlightRecorder::load_file(manager.flightrec_path(), &total);
  ASSERT_GE(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].type, events[i].type) << "event " << i;
    EXPECT_EQ(loaded[i].epoch, events[i].epoch) << "event " << i;
  }
}

TEST_F(FlightRecorderManagerTest, TerminalFailureDumpsTheRecorder) {
  // A bottomless ENOSPC from byte 0 exhausts in-place retries and all three
  // rotation attempts: the manager lands in kFailed — and before throwing
  // it serializes the flight recorder next to the log, so the post-mortem
  // survives the process.
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, ENOSPC, 100000);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_, heal_opts(&policy));
  leaf->set_i32(10);
  EXPECT_THROW(manager.take(*leaf), IoError);
  ASSERT_EQ(manager.health(), Health::kFailed);

  const std::string frpath = manager.flightrec_path();
  ASSERT_TRUE(io::file_exists(frpath)) << frpath;
  std::vector<FlightEvent> events = FlightRecorder::load_file(frpath);
  EXPECT_GE(count(events, FlightEventType::kRotation), 3u);
  EXPECT_EQ(count(events, FlightEventType::kDump), 1u);
  // The terminal transition (-> kFailed) is on the dumped timeline.
  bool failed_seen = false;
  for (const FlightEvent& e : events)
    if (e.type == FlightEventType::kHealthTransition &&
        e.v1 == static_cast<std::uint64_t>(Health::kFailed))
      failed_seen = true;
  EXPECT_TRUE(failed_seen);
}

}  // namespace
}  // namespace ickpt::testing
