// The degradation ladder in isolation: healthy -> degraded -> rebasing ->
// failed, each transition driven by a scripted fault and observed through
// health()/health_status(), the generation chain on disk, and the metrics
// registry. The chaos soak (chaos_soak_test.cpp) exercises the same ladder
// under random fault schedules; these tests pin each rung deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/manager.hpp"
#include "io/fault.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "obs/metrics.hpp"
#include "tests/test_types.hpp"
#include "verify/fsck.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::Health;
using core::ManagerOptions;
using core::Mode;
using core::TypeRegistry;
using io::FaultKind;
using io::ScriptedFaultPolicy;
using io::StableStorage;

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_health_test.log";
    clean_chain();
    register_test_types(registry_);
  }
  void TearDown() override { clean_chain(); }

  void clean_chain() {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    for (unsigned n = 1; n <= 8; ++n) {
      const std::string q = StableStorage::quarantine_path(path_, n);
      std::remove(q.c_str());
      std::remove((q + ".bak").c_str());
    }
  }

  /// Healing options every test starts from: fast retries (no backoff
  /// sleeping), one in-place retry, three rotation attempts, reheal after
  /// two clean epochs.
  static ManagerOptions heal_opts(io::FaultPolicy* fault,
                                  unsigned full_interval = 3) {
    ManagerOptions opts;
    opts.full_interval = full_interval;
    opts.fault_policy = fault;
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff = std::chrono::microseconds{0};
    opts.heal.enabled = true;
    opts.heal.reheal_after = 2;
    opts.heal.append_retries = 1;
    opts.heal.rotate_attempts = 3;
    return opts;
  }

  /// Byte size of the log after `takes` clean epochs of the reference
  /// workload (leaf->i32 = 10 + epoch) — used to aim scripted faults at a
  /// specific epoch's append.
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

  std::string path_;
  TypeRegistry registry_;
};

TEST_F(HealthTest, HealDisabledKeepsFailStopSemantics) {
  const std::uint64_t size2 = calibrate(2);
  ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 100);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  ManagerOptions opts = heal_opts(&policy);
  opts.heal.enabled = false;
  CheckpointManager manager(path_, opts);
  for (int i = 0; i < 2; ++i) {
    leaf->set_i32(10 + i);
    manager.take(*leaf);
  }
  leaf->set_i32(12);
  EXPECT_THROW(manager.take(*leaf), IoError);
  // The ladder never engages: no rotation, no quarantine, still "healthy"
  // (the manager simply rethrows, exactly the seed behavior).
  EXPECT_EQ(manager.health(), Health::kHealthy);
  EXPECT_FALSE(io::file_exists(StableStorage::quarantine_path(path_, 1)));
}

TEST_F(HealthTest, PersistentAppendFailureRotatesAndQuarantines) {
  const std::uint64_t size2 = calibrate(2);
  // Budget = initial append (max_attempts+1 = 3 decisions) + one in-place
  // retry (3 more); the rebase then writes at the front of the fresh
  // generation, below the trigger, and succeeds.
  ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_, heal_opts(&policy));
  core::TakeResult last{};
  for (int i = 0; i < 3; ++i) {
    leaf->set_i32(10 + i);
    last = manager.take(*leaf);
  }
  EXPECT_TRUE(policy.fired());
  // Epoch 2 would have been incremental; the rotation rebased it to a full
  // so the new generation stands alone.
  EXPECT_EQ(last.epoch, 2u);
  EXPECT_EQ(last.mode, Mode::kFull);
  EXPECT_EQ(manager.health(), Health::kDegraded);

  auto status = manager.health_status();
  EXPECT_EQ(status.rotations, 1u);
  EXPECT_EQ(status.reheals, 0u);
  EXPECT_TRUE(status.any_settled);
  EXPECT_EQ(status.last_settled_epoch, 2u);
  EXPECT_TRUE(io::file_exists(StableStorage::quarantine_path(path_, 1)));

  // Two clean epochs re-arm the configured pipeline.
  for (int i = 3; i < 5; ++i) {
    leaf->set_i32(10 + i);
    manager.take(*leaf);
  }
  EXPECT_EQ(manager.health(), Health::kHealthy);
  status = manager.health_status();
  EXPECT_EQ(status.reheals, 1u);
  EXPECT_EQ(status.degraded_epochs, 3u);  // epochs 2, 3, 4

  // The chain fscks clean: quarantine holds epochs 0..1, the live log
  // starts with the rebase full at epoch 2.
  auto chain = verify::fsck_chain(path_, registry_);
  EXPECT_TRUE(chain.clean()) << chain.to_string();
  ASSERT_EQ(chain.generations.size(), 2u);
  EXPECT_FALSE(chain.generations[0].live);
  EXPECT_EQ(chain.generations[0].last_epoch, 1u);
  EXPECT_TRUE(chain.generations[1].live);
  EXPECT_TRUE(chain.generations[1].starts_full);
  EXPECT_EQ(chain.generations[1].first_epoch, 2u);

  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(result.state.epoch, 4u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 14);
  EXPECT_EQ(result.recovered_path, path_);
}

TEST_F(HealthTest, AsyncPoisonDegradesToSyncThenReheals) {
  const std::uint64_t size2 = calibrate(2);
  ScriptedFaultPolicy policy(FaultKind::kTornWrite, size2 + 10);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  ManagerOptions opts = heal_opts(&policy);
  opts.async_io = true;
  CheckpointManager manager(path_, opts);
  std::vector<Health> seen;
  for (int i = 0; i < 7; ++i) {
    leaf->set_i32(10 + i);
    manager.take(*leaf);
    manager.flush();  // surface the background failure deterministically
    seen.push_back(manager.health());
  }
  EXPECT_TRUE(policy.fired());
  // Epoch 2's background append tore and poisoned the log; the flush after
  // it degraded the manager instead of leaving it wedged, the next take
  // rebased with a sync full, and two clean epochs re-armed async I/O.
  EXPECT_EQ(seen[1], Health::kHealthy);
  EXPECT_EQ(seen[2], Health::kDegraded);
  EXPECT_EQ(manager.health(), Health::kHealthy);

  auto status = manager.health_status();
  EXPECT_TRUE(status.async_armed);
  EXPECT_EQ(status.lost_epochs, 1u);  // exactly the poisoned epoch
  EXPECT_EQ(status.rotations, 0u);    // poisoning heals without rotation
  EXPECT_EQ(status.reheals, 1u);

  manager.flush();
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(result.state.epoch, 6u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 16);
  EXPECT_EQ(result.generations_tried, 1u);
}

TEST_F(HealthTest, RotationExhaustionEntersFailedState) {
  // Every write fails from byte 0 with a bottomless ENOSPC: the in-place
  // retries and all three rotation rebases burn out.
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, ENOSPC, 100000);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  CheckpointManager manager(path_, heal_opts(&policy));
  leaf->set_i32(10);
  try {
    manager.take(*leaf);
    FAIL() << "take() must throw once the ladder is exhausted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("rotation attempt"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(manager.health(), Health::kFailed);
  EXPECT_EQ(manager.health_status().rotations, 3u);
  EXPECT_FALSE(manager.health_status().any_settled);

  // A failed manager refuses further work with an actionable error instead
  // of corrupting the chain.
  try {
    manager.take(*leaf);
    FAIL() << "take() must refuse in the failed state";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("failed state"), std::string::npos)
        << e.what();
  }
}

TEST_F(HealthTest, ReopenOfNonEmptyLogForcesFullRebase) {
  {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(nullptr, 100));
    for (int i = 0; i < 2; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
  }
  // A healing manager reopening an existing log cannot know the on-disk
  // tail matches the caller's in-memory state, so its first checkpoint is a
  // full one even though policy says incremental.
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  leaf->set_i32(12);
  CheckpointManager manager(path_, heal_opts(nullptr, 100));
  EXPECT_EQ(manager.next_epoch(), 2u);
  auto result = manager.take(*leaf);
  EXPECT_EQ(result.epoch, 2u);
  EXPECT_EQ(result.mode, Mode::kFull);
  // Policy resumes afterwards.
  EXPECT_EQ(manager.take(*leaf).mode, Mode::kIncremental);
}

TEST_F(HealthTest, EpochsNeverReuseAcrossQuarantinedGenerations) {
  const std::uint64_t size2 = calibrate(2);
  {
    ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(&policy));
    for (int i = 0; i < 3; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    ASSERT_EQ(manager.health_status().rotations, 1u);
  }
  // Live log holds epoch 2 only; the quarantine holds 0..1. A reopened
  // manager must resume past ALL of them — epoch numbers are never reused
  // anywhere on the chain.
  {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(nullptr));
    EXPECT_EQ(manager.next_epoch(), 3u);
    leaf->set_i32(13);
    EXPECT_EQ(manager.take(*leaf).epoch, 3u);

    auto chain = verify::fsck_chain(path_, registry_);
    EXPECT_TRUE(chain.clean()) << chain.to_string();
  }

  // Epochs run ahead of sequence numbers once async poisoning drops
  // frames, and the newest generation can be empty (a crash right after a
  // rotation). Generation 1 holds epochs 0 and 5 at seqs 0 and 1;
  // generation 2 and the live log are empty. The epoch resume walks past
  // the empty generation, as the sequence resume does.
  clean_chain();
  {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    std::vector<core::Checkpointable*> roots{leaf};
    StableStorage gen1(StableStorage::quarantine_path(path_, 1));
    gen1.append(checkpoint_bytes(roots, 0, Mode::kFull));
    gen1.append(checkpoint_bytes(roots, 5, Mode::kIncremental));
  }
  io::write_file(StableStorage::quarantine_path(path_, 2), {});
  io::write_file(path_, {});
  CheckpointManager manager(path_, heal_opts(nullptr));
  EXPECT_EQ(manager.next_epoch(), 6u);
}

TEST_F(HealthTest, LadderFeedsMetricsRegistry) {
  const std::uint64_t size2 = calibrate(2);
  obs::Registry registry;
  obs::Registry::install(&registry);
  {
    ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(&policy));
    for (int i = 0; i < 5; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    EXPECT_EQ(manager.health(), Health::kHealthy);
  }
  auto snapshot = registry.snapshot();
  obs::Registry::install(nullptr);
  EXPECT_EQ(snapshot.counter_sum("ickpt_log_rotations_total"), 1u);
  EXPECT_EQ(snapshot.counter_sum("ickpt_reheals_total"), 1u);
  EXPECT_EQ(snapshot.counter_sum("ickpt_degraded_epochs_total"), 3u);
  const auto* health = snapshot.find("ickpt_health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->gauge_value, 0);  // back to kHealthy
}

TEST_F(HealthTest, RecoverFallsBackAcrossGenerations) {
  const std::uint64_t size2 = calibrate(2);
  {
    ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(&policy));
    for (int i = 0; i < 3; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
  }
  // Wreck the live (post-rotation) log beyond use: the chain walk must
  // surface the quarantined generation's state instead of failing.
  io::write_file(path_, std::vector<std::uint8_t>(64, 0xEE));
  auto result = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(result.recovered_path, StableStorage::quarantine_path(path_, 1));
  EXPECT_EQ(result.generations_tried, 2u);
  EXPECT_FALSE(result.log_clean);
  EXPECT_EQ(result.state.epoch, 1u);
  EXPECT_EQ(result.state.root_as<Leaf>()->i32, 11);
}

// Compaction reads only the live log, under both policies. recover() falls
// back to a quarantined generation when the live log is wrecked; a
// compaction that did the same would silently replace the live log with an
// older generation's state. Instead it fails, and no file on the chain
// changes.
TEST_F(HealthTest, CompactionNeverReadsQuarantinedGenerations) {
  const std::uint64_t size2 = calibrate(2);
  {
    ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(&policy));
    for (int i = 0; i < 3; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
  }
  io::write_file(path_, std::vector<std::uint8_t>(64, 0xEE));
  const std::string quarantined = StableStorage::quarantine_path(path_, 1);
  ASSERT_EQ(CheckpointManager::recover(path_, registry_).recovered_path,
            quarantined);

  auto chain_files = [&] {
    std::map<std::string, std::vector<std::uint8_t>> files;
    for (const std::string& base : {path_, quarantined})
      for (const char* suffix : {"", ".bak", ".retain"})
        if (io::file_exists(base + suffix))
          files[base + suffix] = io::read_file(base + suffix);
    return files;
  };
  const auto before = chain_files();
  for (const core::CompactPolicy policy :
       {core::CompactPolicy::kSquashAll, core::CompactPolicy::kBinomial}) {
    SCOPED_TRACE(policy == core::CompactPolicy::kBinomial ? "binomial"
                                                          : "squash");
    EXPECT_THROW(
        CheckpointManager::compact(path_, registry_, {.policy = policy}),
        CorruptionError);
    EXPECT_EQ(chain_files(), before);
    EXPECT_FALSE(io::file_exists(path_ + ".compact"));
    EXPECT_FALSE(io::file_exists(path_ + ".retain"));
  }
}

/// Delivers one scripted decision per physical write once armed, then none.
class SequenceFaultPolicy final : public io::FaultPolicy {
 public:
  explicit SequenceFaultPolicy(std::vector<io::FaultDecision> script)
      : script_(std::move(script)) {}

  io::FaultDecision on_write(std::uint64_t, std::size_t) override {
    if (!armed || next_ == script_.size()) return {};
    return script_[next_++];
  }

  bool armed = false;

 private:
  std::vector<io::FaultDecision> script_;
  std::size_t next_ = 0;
};

// The ladder's append capacity under the chaos soak's options: the first
// append, one in-place retry and six rotation rebases make 8 attempts. An
// attempt fails after retry.max_attempts + 1 = 4 transient decisions on one
// write, but a torn write ends it at once — so a torn write costs a whole
// attempt, and the soak must charge it that much against its budget.
TEST_F(HealthTest, TornWritesCostWholeAppendAttempts) {
  auto third_take = [this](unsigned enospc) {
    clean_chain();
    std::vector<io::FaultDecision> script(
        enospc, io::FaultDecision{FaultKind::kTransient, 0, ENOSPC});
    script.insert(script.end(), 4,
                  io::FaultDecision{FaultKind::kTornWrite, 5});
    SequenceFaultPolicy policy(std::move(script));
    ManagerOptions opts = heal_opts(&policy);
    opts.retry.max_attempts = 3;
    opts.heal.rotate_attempts = 6;
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < 2; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    policy.armed = true;
    leaf->set_i32(12);
    bool taken = true;
    try {
      EXPECT_EQ(manager.take(*leaf).epoch, 2u);
    } catch (const IoError&) {
      taken = false;
    }
    EXPECT_EQ(manager.health_status().rotations, 6u);
    std::remove(manager.flightrec_path().c_str());
    return std::make_pair(taken, manager.health());
  };

  // 16 ENOSPC decisions end four attempts; four torn writes end the rest.
  EXPECT_EQ(third_take(16), std::make_pair(false, Health::kFailed));

  // One decision fewer: the fourth attempt's write absorbs three ENOSPC and
  // then tears, three more attempts tear, and the eighth lands the epoch.
  EXPECT_EQ(third_take(15), std::make_pair(true, Health::kDegraded));
  const auto recovered = CheckpointManager::recover(path_, registry_);
  EXPECT_EQ(recovered.state.epoch, 2u);
  EXPECT_EQ(recovered.state.root_as<Leaf>()->i32, 12);
}

}  // namespace
}  // namespace ickpt::testing
