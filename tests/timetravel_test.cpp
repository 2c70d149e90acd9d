// Epoch-history oracle for time-travel recovery.
//
// A randomized synthetic workload mutates and relinks an Inner-chain graph
// and records the *entire* live state, shape included, at every epoch it
// checkpoints. The oracle then proves, state-for-state, that
// recover_to_epoch(N) reproduces exactly the recorded snapshot for every
// epoch still on the log — across sync, async, and parallel capture, before
// and after each binomial compaction, and across a process restart. Epochs
// the retention policy dropped must fail with EpochNotRetainedError naming
// the nearest retained neighbors — a wrong-state success anywhere here is
// the one unforgivable outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/retention.hpp"
#include "io/file_io.hpp"
#include "io/frame_index.hpp"
#include "obs/metrics.hpp"
#include "tests/test_types.hpp"
#include "verify/fsck.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::CompactOptions;
using core::CompactPolicy;
using core::EpochNotRetainedError;
using core::ManagerOptions;
using core::Mode;
using core::RetentionManifest;
using core::RetentionPolicy;
using core::TypeRegistry;

constexpr std::size_t kInners = 6;

/// Everything observable about the graph reachable from the root at one
/// moment: the Inner right-chain in order, each chain Inner's leaf (or
/// none), and every field. Ids survive recovery, so they record the shape.
struct Snapshot {
  std::vector<ObjectId> chain;
  std::vector<ObjectId> lefts;  ///< kNullObjectId where the leaf is unlinked
  std::vector<std::int32_t> tags;
  std::vector<std::int32_t> i32s;  ///< linked leaves only, in chain order
  std::vector<std::int64_t> i64s;
  std::vector<double> f64s;
  std::vector<bool> flags;

  bool operator==(const Snapshot&) const = default;
};

/// Snapshot the graph reachable from `root` by walking the Inner
/// right-chain — the same walk for the live workload and a recovered graph.
/// The walk stops past 2 * kInners nodes, so a recovered cycle shows up as
/// a mismatch instead of a hang.
Snapshot snap_chain(const Inner* root) {
  Snapshot s;
  for (const Inner* inner = root;
       inner != nullptr && s.chain.size() <= 2 * kInners;
       inner = inner->right) {
    s.chain.push_back(inner->info().id());
    s.tags.push_back(inner->tag);
    const Leaf* leaf = inner->left;
    s.lefts.push_back(leaf != nullptr ? leaf->info().id() : kNullObjectId);
    if (leaf == nullptr) continue;
    s.i32s.push_back(leaf->i32);
    s.i64s.push_back(leaf->i64);
    s.f64s.push_back(leaf->f64);
    s.flags.push_back(leaf->flag);
  }
  return s;
}

/// The synthetic workload: a right-chain of Inners, each holding one Leaf.
/// Every step mutates fields and may reshape the graph: clear an Inner's
/// leaf or give it a new one, unlink an Inner from the chain, or link a new
/// one in. Unlinked objects stay garbage; every relink uses a fresh object,
/// which is born modified and so reaches the next incremental checkpoint.
struct Workload {
  core::Heap heap;
  std::vector<Inner*> chain;  ///< the Inners on the root's chain, root first

  Workload() {
    for (std::size_t i = 0; i < kInners; ++i) {
      Inner* inner = heap.make<Inner>();
      inner->set_left(heap.make<Leaf>());
      if (!chain.empty()) chain.back()->set_right(inner);
      chain.push_back(inner);
    }
  }

  /// Carry on with a recovered graph: it stays owned by its RecoveredState,
  /// and objects linked in from now on come from this heap.
  explicit Workload(Inner* root) {
    for (Inner* inner = root; inner != nullptr; inner = inner->right)
      chain.push_back(inner);
  }

  Inner* root() { return chain.front(); }

  /// Mutate a random nonempty subset of the graph, then maybe reshape it.
  void mutate(std::mt19937_64& rng) {
    bool touched = false;
    for (Inner* inner : chain) {
      if ((rng() & 3) == 0) {
        inner->set_tag(static_cast<std::int32_t>(rng() % 100000));
        touched = true;
      }
      Leaf* leaf = inner->left;
      if (leaf != nullptr && (rng() & 1) == 0) {
        leaf->set_i32(static_cast<std::int32_t>(rng()));
        leaf->set_i64(static_cast<std::int64_t>(rng()));
        leaf->set_f64(static_cast<double>(rng() % 100000) / 13.0);
        leaf->set_flag((rng() & 1) != 0);
        touched = true;
      }
    }
    if (!touched) root()->set_tag(static_cast<std::int32_t>(rng() % 100000));
    reshape(rng);
  }

  void reshape(std::mt19937_64& rng) {
    for (Inner* inner : chain) {
      if (rng() % 8 != 0) continue;
      inner->set_left(inner->left != nullptr ? nullptr : fresh_leaf(rng));
    }
    if (rng() % 4 == 0 && chain.size() > 2) {
      const std::size_t i = 1 + rng() % (chain.size() - 1);
      chain[i - 1]->set_right(chain[i]->right);
      chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (rng() % 4 == 0 && chain.size() < 2 * kInners) {
      const std::size_t i = rng() % chain.size();
      Inner* inner = heap.make<Inner>();
      inner->set_tag(static_cast<std::int32_t>(rng() % 100000));
      if ((rng() & 1) == 0) inner->set_left(fresh_leaf(rng));
      inner->set_right(chain[i]->right);
      chain[i]->set_right(inner);
      chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(i) + 1, inner);
    }
  }

  Leaf* fresh_leaf(std::mt19937_64& rng) {
    Leaf* leaf = heap.make<Leaf>();
    leaf->set_i32(static_cast<std::int32_t>(rng()));
    return leaf;
  }

  Snapshot snap() const { return snap_chain(chain.front()); }
};

using Oracle = std::map<Epoch, Snapshot>;

/// [magic][seq][length][crc] ahead of every payload (io/stable_storage.hpp).
constexpr std::size_t kFrameHeaderBytes = 20;

io::FrameIndex index_of(const std::string& path) {
  return io::index_frames(path, {.salvage = true}, core::stream_header_probe());
}

/// Installs a metrics registry for the scope of one measurement.
struct InstalledRegistry {
  obs::Registry registry;
  InstalledRegistry() { obs::Registry::install(&registry); }
  ~InstalledRegistry() { obs::Registry::install(nullptr); }
  InstalledRegistry(const InstalledRegistry&) = delete;
  InstalledRegistry& operator=(const InstalledRegistry&) = delete;
};

class TimeTravelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_timetravel_test.log";
    clean_files();
    register_test_types(registry_);
  }
  void TearDown() override { clean_files(); }

  void clean_files() {
    std::remove(path_.c_str());
    std::remove((path_ + ".retain").c_str());
    std::remove((path_ + ".compact").c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove((path_ + ".orig").c_str());
    for (int i = 0; i < 8; ++i)
      std::remove((path_ + ".quarantine." + std::to_string(i)).c_str());
  }

  /// Run `epochs` checkpoints of a fresh workload, recording the oracle.
  Oracle run_workload(Workload& w, ManagerOptions opts, unsigned epochs,
                      std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Oracle oracle;
    CheckpointManager manager(path_, opts);
    for (unsigned i = 0; i < epochs; ++i) {
      w.mutate(rng);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
    manager.flush();
    return oracle;
  }

  /// recover_to_epoch(e) must reproduce oracle[e] exactly — state equality,
  /// the frame's own epoch, never a neighbor's state.
  void expect_epoch_matches(Epoch e, const Oracle& oracle) {
    auto result = CheckpointManager::recover_to_epoch(path_, registry_, e);
    ASSERT_EQ(result.state.epoch, e);
    ASSERT_TRUE(oracle.count(e)) << "oracle has no snapshot for epoch " << e;
    EXPECT_EQ(snap_chain(result.state.root_as<Inner>()), oracle.at(e))
        << "state mismatch at epoch " << e;
  }

  /// Binomial-compact a damaged log and hold the result to a copy of the
  /// log taken just before: the kept and dropped epochs together are
  /// exactly the schedule's epochs present on the log, every kept epoch
  /// recovers to what the copy gives for it (and to the oracle), and every
  /// dropped one fails on the copy although it is present there.
  core::CompactResult compact_against_copy(const Oracle& oracle) {
    const std::string copy = path_ + ".orig";
    io::write_file(copy, io::read_file(path_));
    const std::vector<Epoch> present = index_of(path_).epochs();
    std::vector<Epoch> scheduled;
    for (Epoch e : RetentionPolicy::schedule(present.back()))
      if (std::binary_search(present.begin(), present.end(), e))
        scheduled.push_back(e);

    auto compacted = CheckpointManager::compact(
        path_, registry_, CompactOptions{CompactPolicy::kBinomial});
    EXPECT_TRUE(std::includes(scheduled.begin(), scheduled.end(),
                              compacted.retained.begin(),
                              compacted.retained.end()));
    EXPECT_EQ(compacted.retained.size() + compacted.epochs_dropped,
              scheduled.size());
    for (Epoch e : scheduled) {
      if (std::binary_search(compacted.retained.begin(),
                             compacted.retained.end(), e)) {
        auto before = CheckpointManager::recover_to_epoch(copy, registry_, e);
        auto after = CheckpointManager::recover_to_epoch(path_, registry_, e);
        const Snapshot kept = snap_chain(after.state.root_as<Inner>());
        EXPECT_EQ(kept, snap_chain(before.state.root_as<Inner>()))
            << "epoch " << e;
        EXPECT_EQ(kept, oracle.at(e)) << "epoch " << e;
        continue;
      }
      try {
        CheckpointManager::recover_to_epoch(copy, registry_, e);
        ADD_FAILURE() << "dropped epoch " << e << " recovers before compaction";
      } catch (const EpochNotRetainedError& err) {
        ADD_FAILURE() << "scheduled epoch " << e << " was present: "
                      << err.what();
      } catch (const CorruptionError&) {
      }
    }
    std::remove(copy.c_str());
    return compacted;
  }

  std::string path_;
  TypeRegistry registry_;
};

// --- every epoch, every capture mode ---------------------------------------

// Before any compaction the whole history is on the log: every epoch ever
// taken must recover to exactly its oracle snapshot. Run under all three
// capture pipelines — the retention machinery must not care how the frames
// were produced.
TEST_F(TimeTravelTest, EveryEpochMatchesOracleSyncCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 20, 0x71ABE001);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

TEST_F(TimeTravelTest, EveryEpochMatchesOracleAsyncCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 5;
  opts.async_io = true;
  Oracle oracle = run_workload(w, opts, 17, 0x71ABE002);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

TEST_F(TimeTravelTest, EveryEpochMatchesOracleParallelCapture) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 3;
  opts.capture_threads = 4;
  Oracle oracle = run_workload(w, opts, 15, 0x71ABE003);
  for (const auto& entry : oracle) expect_epoch_matches(entry.first, oracle);
}

// --- compaction -------------------------------------------------------------

// After a binomial compaction, every *retained* epoch still matches its
// oracle snapshot, every dropped epoch fails with EpochNotRetainedError
// naming the nearest retained neighbors, and fsck finds a log that honors
// its own declaration.
TEST_F(TimeTravelTest, PolicyCompactionPreservesRetainedHistory) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 24, 0x71ABE004);
  const Epoch newest = oracle.rbegin()->first;

  auto compacted = CheckpointManager::compact(
      path_, registry_, CompactOptions{CompactPolicy::kBinomial});
  EXPECT_EQ(compacted.epochs_dropped, 0u);
  EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));

  // The manifest is published and declares exactly what was written.
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->newest, newest);
  EXPECT_EQ(manifest->epochs, compacted.retained);

  for (Epoch e = 0; e <= newest; ++e) {
    if (RetentionPolicy::retained(e, newest)) {
      expect_epoch_matches(e, oracle);
    } else {
      try {
        CheckpointManager::recover_to_epoch(path_, registry_, e);
        FAIL() << "dropped epoch " << e << " recovered — wrong-state success";
      } catch (const EpochNotRetainedError& err) {
        EXPECT_EQ(err.target(), e);
        // Nearest neighbors straight off the schedule.
        const auto& sched = compacted.retained;
        auto above = std::upper_bound(sched.begin(), sched.end(), e);
        ASSERT_NE(above, sched.begin());
        ASSERT_NE(above, sched.end());
        ASSERT_TRUE(err.below().has_value());
        ASSERT_TRUE(err.above().has_value());
        EXPECT_EQ(*err.below(), *(above - 1));
        EXPECT_EQ(*err.above(), *above);
        EXPECT_NE(std::string(err.what()).find("not retained"),
                  std::string::npos)
            << err.what();
      }
    }
  }

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// Retention survives *repeated* compaction with live epochs in between:
// monotonicity guarantees compaction N+1 finds every epoch it wants still
// present after compaction N.
TEST_F(TimeTravelTest, RepeatedCompactionStaysConsistentWithOracle) {
  Workload w;
  std::mt19937_64 rng(0x71ABE005);
  Oracle oracle;
  ManagerOptions opts;
  opts.full_interval = 4;
  Epoch newest = 0;
  for (int round = 0; round < 3; ++round) {
    {
      CheckpointManager manager(path_, opts);
      for (int i = 0; i < 9; ++i) {
        w.mutate(rng);
        auto take = manager.take(*w.root());
        oracle[take.epoch] = w.snap();
        newest = take.epoch;
      }
    }
    auto compacted = CheckpointManager::compact(
        path_, registry_, CompactOptions{CompactPolicy::kBinomial});
    EXPECT_EQ(compacted.epochs_dropped, 0u)
        << "round " << round << ": an epoch the schedule wanted was missing";
    EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));
    for (Epoch e : compacted.retained) expect_epoch_matches(e, oracle);
    auto report = verify::fsck_log(path_, registry_);
    EXPECT_TRUE(report.clean()) << report.to_string();
  }
}

// The epoch counter must keep advancing across a compaction: retained
// frames carry seq == epoch, so a fresh manager resumes after the newest.
TEST_F(TimeTravelTest, EpochsResumeAfterCompaction) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 10, 0x71ABE006);
  const Epoch newest = oracle.rbegin()->first;
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  CheckpointManager manager(path_, opts);
  EXPECT_EQ(manager.next_epoch(), newest + 1);
  w.root()->set_tag(777);
  EXPECT_EQ(manager.take(*w.root()).epoch, newest + 1);
}

// Compaction indexes the log once and recovers every retained epoch against
// that index, so the scans one binomial compaction publishes do not grow
// with the history it compacts: the same count at 24 epochs as at 200.
TEST_F(TimeTravelTest, PolicyCompactionScansDoNotGrowWithHistory) {
  struct Compaction {
    std::uint64_t scans = 0;
    std::size_t retained = 0;
  };
  auto compact_once = [this](unsigned epochs) {
    clean_files();
    Workload w;
    ManagerOptions opts;
    opts.full_interval = 4;
    run_workload(w, opts, epochs, 0x71ABE010);
    InstalledRegistry metrics;
    auto compacted = CheckpointManager::compact(
        path_, registry_, CompactOptions{CompactPolicy::kBinomial});
    EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(epochs - 1));
    return Compaction{
        metrics.registry.snapshot().counter_sum("ickpt_scans_total"),
        compacted.retained.size()};
  };
  const Compaction small = compact_once(24);
  const Compaction large = compact_once(200);
  EXPECT_LT(small.retained, large.retained);
  EXPECT_GT(small.scans, 0u);
  EXPECT_EQ(small.scans, large.scans);
}

// --- compaction of a damaged log ------------------------------------------

// A bit flip in epoch 21's frame (full_interval 4): salvage resyncs past
// it, so epochs 22 and 23 sit in a segment with no full checkpoint, and
// compaction keeps {0, 8, 16, 20} and drops those two.
TEST_F(TimeTravelTest, PolicyCompactionOfBitFlippedLogDropsStrandedEpochs) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 24, 0x71ABE011);
  const io::FrameIndex index = index_of(path_);
  const io::IndexedFrame& victim =
      index.frames.at(index.find_epoch(21).value());
  std::vector<std::uint8_t> bytes = io::read_file(path_);
  bytes.at(victim.offset + kFrameHeaderBytes + victim.payload_bytes / 2) ^=
      0x40;
  io::write_file(path_, bytes);

  auto compacted = compact_against_copy(oracle);
  EXPECT_EQ(compacted.retained, (std::vector<Epoch>{0, 8, 16, 20}));
  EXPECT_EQ(compacted.epochs_dropped, 2u);
}

// A frame with a valid CRC whose payload is no checkpoint stream, in place
// of epoch 17 and so inside the windows of scheduled epochs 18 and 19: no
// window reaches either, and compaction keeps {0, 8, 12, 16}.
TEST_F(TimeTravelTest, PolicyCompactionDropsEpochsBehindForeignFrame) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  std::mt19937_64 rng(0x71ABE012);
  Oracle oracle;
  auto take_epochs = [&](int n) {
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < n; ++i) {
      w.mutate(rng);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
  };
  take_epochs(17);  // epochs 0..16
  {
    io::StableStorage storage(path_);
    ASSERT_EQ(storage.append(std::vector<std::uint8_t>(64, 0xEE)), 17u);
  }
  take_epochs(2);  // epochs 18 and 19, on top of full 16 and the frame

  auto compacted = compact_against_copy(oracle);
  EXPECT_EQ(compacted.retained, (std::vector<Epoch>{0, 8, 12, 16}));
  EXPECT_EQ(compacted.epochs_dropped, 2u);
}

// --- restart ----------------------------------------------------------------

// Kill the process (destroy manager + heap), recover the newest state into
// a fresh heap, keep checkpointing, compact — the oracle must hold across
// the whole lifetime, including epochs taken before the restart.
TEST_F(TimeTravelTest, OracleHoldsAcrossRestartAndCompaction) {
  std::mt19937_64 rng(0x71ABE007);
  Oracle oracle;
  ManagerOptions opts;
  opts.full_interval = 4;
  {
    Workload w;
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < 13; ++i) {
      w.mutate(rng);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
  }  // crash

  // Second life: recover newest, mutate the recovered graph directly.
  auto recovered = CheckpointManager::recover(path_, registry_);
  Inner* root = recovered.state.root_as<Inner>();
  ASSERT_EQ(snap_chain(root), oracle.rbegin()->second);
  {
    CheckpointManager manager(path_, opts);
    Workload w(root);
    std::mt19937_64 rng2(0x71ABE008);
    for (int i = 0; i < 8; ++i) {
      w.mutate(rng2);
      auto take = manager.take(*w.root());
      oracle[take.epoch] = w.snap();
    }
  }

  // Pre-restart epochs are still addressable...
  for (Epoch e : {Epoch{0}, Epoch{5}, Epoch{12}}) expect_epoch_matches(e, oracle);
  // ...and stay addressable (when retained) after a policy compaction.
  const Epoch newest = oracle.rbegin()->first;
  auto compacted = CheckpointManager::compact(
      path_, registry_, CompactOptions{CompactPolicy::kBinomial});
  EXPECT_EQ(compacted.epochs_dropped, 0u);
  for (Epoch e : compacted.retained) expect_epoch_matches(e, oracle);
  EXPECT_EQ(compacted.retained, RetentionPolicy::schedule(newest));
}

// --- history ----------------------------------------------------------------

TEST_F(TimeTravelTest, HistoryListsEveryEpochThenOnlyRetained) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 12, 0x71ABE009);
  const Epoch newest = oracle.rbegin()->first;

  auto history = CheckpointManager::history(path_);
  ASSERT_EQ(history.size(), oracle.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].epoch, static_cast<Epoch>(i));
    EXPECT_TRUE(history[i].live);
    EXPECT_FALSE(history[i].resync);
    EXPECT_EQ(history[i].mode,
              i % opts.full_interval == 0 ? Mode::kFull : Mode::kIncremental);
  }

  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  history = CheckpointManager::history(path_);
  std::vector<Epoch> listed;
  for (const auto& entry : history) {
    listed.push_back(entry.epoch);
    EXPECT_EQ(entry.mode, Mode::kFull) << "epoch " << entry.epoch;
    EXPECT_EQ(entry.seq, entry.epoch) << "epoch " << entry.epoch;
  }
  EXPECT_EQ(listed, RetentionPolicy::schedule(newest));
}

// --- fsck: a half-applied policy is damage, not tidiness --------------------

// Doctor the manifest to declare a *subset* of what the log carries: fsck
// must flag every undeclared epoch (retention-undeclared, error), because a
// policy compaction that died halfway looks exactly like this.
TEST_F(TimeTravelTest, FsckFlagsUndeclaredEpochs) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  run_workload(w, opts, 12, 0x71ABE00A);

  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_GE(manifest->epochs.size(), 3u);
  // Drop one interior declared epoch: the frame is now "undeclared".
  const Epoch dropped = manifest->epochs[1];
  manifest->epochs.erase(manifest->epochs.begin() + 1);
  manifest->save(path_);

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  const auto* finding = report.first("retention-undeclared");
  ASSERT_NE(finding, nullptr) << report.to_string();
  EXPECT_EQ(finding->severity, verify::Severity::kError);
  EXPECT_NE(finding->message.find(std::to_string(dropped)),
            std::string::npos)
      << finding->message;
}

// The converse damage: the manifest declares an epoch the log lost.
TEST_F(TimeTravelTest, FsckFlagsMissingDeclaredEpochs) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  run_workload(w, opts, 12, 0x71ABE00B);
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  auto manifest = RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  // Declare an epoch that is on the schedule for `newest` but (being on the
  // schedule already) exists — so instead declare one off-schedule: both
  // retention-policy and retention-missing must fire.
  manifest->epochs.insert(
      std::upper_bound(manifest->epochs.begin(), manifest->epochs.end(),
                       Epoch{3}),
      Epoch{3});
  manifest->save(path_);

  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.first("retention-missing"), nullptr) << report.to_string();
}

// An unparseable manifest is itself a finding, not an excuse to skip the
// audit silently.
TEST_F(TimeTravelTest, FsckFlagsGarbageManifest) {
  Workload w;
  ManagerOptions opts;
  run_workload(w, opts, 6, 0x71ABE00C);
  io::write_file(path_ + ".retain", {'j', 'u', 'n', 'k', '\n'});
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.first("retention-policy"), nullptr) << report.to_string();
}

// --- manifest round-trip ----------------------------------------------------

TEST_F(TimeTravelTest, ManifestRoundTrips) {
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
  RetentionManifest m;
  m.newest = 24;
  m.epochs = RetentionPolicy::schedule(24);
  m.save(path_);
  auto loaded = RetentionManifest::load(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->newest, m.newest);
  EXPECT_EQ(loaded->epochs, m.epochs);
  EXPECT_TRUE(loaded->declares(24));
  EXPECT_TRUE(loaded->declares(0));
  EXPECT_FALSE(loaded->declares(21));
  RetentionManifest::remove(path_);
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
}

// A squash compaction drops the history — and must drop the declaration
// with it, or fsck would flag the squashed log as damaged.
TEST_F(TimeTravelTest, SquashCompactionRemovesManifest) {
  Workload w;
  ManagerOptions opts;
  opts.full_interval = 4;
  Oracle oracle = run_workload(w, opts, 10, 0x71ABE00D);
  CheckpointManager::compact(path_, registry_,
                             CompactOptions{CompactPolicy::kBinomial});
  ASSERT_TRUE(RetentionManifest::load(path_).has_value());
  CheckpointManager::compact(path_, registry_);  // kSquashAll shorthand
  EXPECT_FALSE(RetentionManifest::load(path_).has_value());
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // Newest state survives the squash.
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(snap_chain(result.state.root_as<Inner>()),
            oracle.rbegin()->second);
}

}  // namespace
}  // namespace ickpt::testing
