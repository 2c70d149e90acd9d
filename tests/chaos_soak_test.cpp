// Chaos soak: a seeded PRNG schedules continuous random faults — transient
// EINTR, short writes, torn writes, bit flips, ENOSPC bursts, and crash
// points — against a long mutating workload across the sync, async, and
// parallel capture pipelines, with the self-healing ladder enabled.
//
// After every epoch the harness asserts liveness and recoverability:
//
//   liveness        — the manager either completes the epoch or rotates
//                     within its bounded ladder; any exception other than
//                     the injected CrashFault is a wedge and fails the
//                     test. The fault schedule caps each epoch's faults,
//                     weighted by the append attempts they can cost, below
//                     the ladder's append capacity, so a non-crash wedge is
//                     always a product bug.
//   recoverability  — at every (simulated) process death and every planned
//                     restart, CheckpointManager::recover over the
//                     generation chain must return some epoch E whose
//                     recovered values equal the shadow history the
//                     harness kept for E, with E at or above the settled
//                     watermark (bit flips freeze the watermark until the
//                     next clean full-checkpoint window whose full frame
//                     settled, because silent corruption can strand the
//                     epochs behind it).
//
// One mt19937_64 seed per pipeline drives every fault decision, so the
// fault schedule is a function of the sequence of writes. The sync and
// parallel pipelines write on the test thread, in an order the seed fixes,
// and replay exactly. The async pipeline does not: when a background append
// fails, how many queued frames it discards, and which later take observes
// the poison and appends synchronously, follow thread timing. Two async
// runs with one seed can diverge from the first failed background append
// on, so a failure there is chased by rerunning long soaks, not replayed.
// ICKPT_CHAOS_ITERS scales the per-mode epoch count for long soaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <random>
#include <string>
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
using io::FaultDecision;
using io::FaultKind;
using io::StableStorage;

constexpr int kLeaves = 8;

/// The ladder's per-epoch append capacity with the options below: the
/// initial append + 1 in-place retry + 6 rotation rebases = 8 attempts. An
/// attempt fails after retry.max_attempts+1 = 4 transient decisions on one
/// write, but a torn write ends it at once (pinned by
/// HealthTest.TornWritesCostWholeAppendAttempts). So the schedule charges a
/// torn write kTornWriteCost budget units and every other fault 1 (a short
/// write or a bit flip ends no attempt), and stops injecting once an epoch
/// has spent kMaxFaultsPerEpoch units: at most 25 + 4 = 29 units, below the
/// 8 × 4 = 32 that exhaust the ladder, so it can always finish an epoch.
constexpr unsigned kMaxFaultsPerEpoch = 26;
constexpr unsigned kTornWriteCost = 4;  // retry.max_attempts + 1

/// Seeded random fault schedule. on_write may run on the AsyncLog worker
/// thread while the harness polls the counters from the test thread, so
/// every counter is an atomic (the PRNG itself is only touched inside
/// on_write, and only one thread appends at a time).
class ChaosPolicy final : public io::FaultPolicy {
 public:
  ChaosPolicy(std::uint64_t seed, bool allow_crash)
      : rng_(seed), allow_crash_(allow_crash) {}

  FaultDecision on_write(std::uint64_t, std::size_t n) override {
    consults_.fetch_add(1, std::memory_order_relaxed);
    if (!armed_.load(std::memory_order_relaxed)) return {};
    if (budget_spent_.load(std::memory_order_relaxed) -
            epoch_base_.load(std::memory_order_relaxed) >=
        kMaxFaultsPerEpoch)
      return {};
    // A pending ENOSPC burst ("device full") drains before anything else.
    if (enospc_left_.load(std::memory_order_relaxed) > 0) {
      enospc_left_.fetch_sub(1, std::memory_order_relaxed);
      return fault({FaultKind::kTransient, 0, ENOSPC});
    }
    const std::uint32_t roll = static_cast<std::uint32_t>(rng_() % 1000);
    if (roll < 120) return fault({FaultKind::kTransient, 0, EINTR});
    if (roll < 170 && n >= 2) return fault({FaultKind::kShortWrite, n / 2});
    if (roll < 200)
      return fault({FaultKind::kTornWrite, n / 3}, kTornWriteCost);
    if (roll < 220 && n > 0) {
      flips_.fetch_add(1, std::memory_order_relaxed);
      return fault({FaultKind::kBitFlip, rng_() % n});
    }
    if (roll < 235) {
      // Persistent ENOSPC: 3..24 consecutive failing decisions, below the
      // ladder capacity but often past the in-place retries => rotation.
      enospc_left_.store(2 + rng_() % 22, std::memory_order_relaxed);
      return fault({FaultKind::kTransient, 0, ENOSPC});
    }
    if (roll < 250 && allow_crash_)
      return fault({FaultKind::kCrash, rng_() % (n + 1)});
    return {};
  }

  /// Rebase the per-epoch budget on the cumulative spend instead of
  /// resetting a counter: an AsyncLog-worker fault landing between the
  /// harness's post-take read and the next begin_epoch() is never lost — it
  /// stays in the cumulative fault total, which the harness consumes
  /// through a seen-cursor delta.
  void begin_epoch() {
    epoch_base_.store(budget_spent_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t faults_total() const {
    return faults_total_.load(std::memory_order_relaxed);
  }
  /// Budget units this epoch has spent.
  [[nodiscard]] std::uint64_t budget_this_epoch() const {
    return budget_spent_.load(std::memory_order_relaxed) -
           epoch_base_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t flips_total() const {
    return flips_.load(std::memory_order_relaxed);
  }

 private:
  FaultDecision fault(FaultDecision d, unsigned cost = 1) {
    faults_total_.fetch_add(1, std::memory_order_relaxed);
    budget_spent_.fetch_add(cost, std::memory_order_relaxed);
    return d;
  }

  std::mt19937_64 rng_;
  const bool allow_crash_;
  std::atomic<bool> armed_{true};
  std::atomic<std::uint64_t> consults_{0};
  std::atomic<std::uint64_t> flips_{0};
  std::atomic<std::uint64_t> faults_total_{0};
  std::atomic<std::uint64_t> budget_spent_{0};
  std::atomic<std::uint64_t> epoch_base_{0};
  std::atomic<std::uint64_t> enospc_left_{0};
};

int chaos_iters() {
  if (const char* env = std::getenv("ICKPT_CHAOS_ITERS")) {
    const int iters = std::atoi(env);
    if (iters > 0) return iters;
  }
  return 200;
}

struct SoakStats {
  int epochs = 0;
  int faulted_epochs = 0;
  int crashes = 0;
  int restarts = 0;
  int recover_checks = 0;
  int timetravel_checks = 0;
  int timetravel_damaged = 0;
};

class ChaosSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_test_types(registry_);
    obs::Registry::install(&metrics_);
  }
  void TearDown() override { obs::Registry::install(nullptr); }

  static void clean_chain(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + ".bak").c_str());
    for (unsigned n = 1;; ++n) {
      const std::string q = StableStorage::quarantine_path(path, n);
      const bool had = io::file_exists(q);
      std::remove(q.c_str());
      std::remove((q + ".bak").c_str());
      if (!had) break;
    }
  }

  static ManagerOptions chaos_opts(ChaosPolicy* policy, bool async_io,
                                   unsigned capture_threads) {
    ManagerOptions opts;
    opts.full_interval = 4;
    opts.async_io = async_io;
    opts.capture_threads = capture_threads;
    opts.fault_policy = policy;
    opts.retry.max_attempts = 3;
    opts.retry.initial_backoff = std::chrono::microseconds{0};
    opts.retry.jitter_seed = 0xC0FFEE;
    opts.heal.enabled = true;
    opts.heal.reheal_after = 2;
    opts.heal.append_retries = 1;
    opts.heal.rotate_attempts = 6;
    return opts;
  }

  /// One mode-run of the soak. `seed` fixes the fault schedule; crashes are
  /// only scheduled for the synchronous pipelines (a background "crash"
  /// would be absorbed as poison, which the torn-write class already
  /// covers).
  void soak(const char* mode_name, std::uint64_t seed, bool async_io,
            unsigned capture_threads, SoakStats& stats) {
    SCOPED_TRACE(mode_name);
    const std::string path = ::testing::TempDir() + "/ickpt_chaos_" +
                             mode_name + "_test.log";
    clean_chain(path);
    ChaosPolicy policy(seed, /*allow_crash=*/!async_io);

    // Shadow oracle: values[j] the workload holds now, history[e] the
    // snapshot checkpointed at epoch e. History entries are only ever
    // overwritten for epochs that never reached disk (the manager resumes
    // epoch numbering past everything on the generation chain), so any
    // recovered epoch E must match history[E] exactly.
    std::vector<int> values(kLeaves, 0);
    std::map<Epoch, std::vector<int>> history;
    Epoch watermark = 0;
    bool any_settled = false;
    // The policy's flip count when each full take began, by epoch. The
    // watermark may advance to a settled epoch S only while no flip has
    // landed since the newest full at or below S: that full opens S's
    // window and settled with it. A full whose async frame was lost never
    // qualifies, because the take that observes the poison rebases with a
    // synchronous full, and nothing between the two settles.
    std::map<Epoch, std::uint64_t> flips_at_full;
    auto window_clean = [&](Epoch settled) {
      auto it = flips_at_full.upper_bound(settled);
      return it != flips_at_full.begin() &&
             policy.flips_total() == std::prev(it)->second;
    };
    // Seen-cursor over the policy's cumulative fault count: every injected
    // fault is attributed to exactly one faulted epoch, including faults an
    // async worker lands after the harness's previous read.
    std::uint64_t faults_seen = 0;

    core::Heap heap;
    std::vector<Leaf*> leaves;
    std::vector<core::Checkpointable*> roots;
    std::unique_ptr<CheckpointManager> manager;

    auto build = [&] {
      policy.arm(false);  // construction-time repair never wedges
      heap = core::Heap();
      leaves.clear();
      roots.clear();
      for (int j = 0; j < kLeaves; ++j) {
        leaves.push_back(heap.make<Leaf>());
        leaves.back()->set_i32(values[j]);
        roots.push_back(leaves.back());
      }
      manager = std::make_unique<CheckpointManager>(
          path, chaos_opts(&policy, async_io, capture_threads));
      policy.arm(true);
    };

    // Recover the chain and check the core invariant: some epoch at or
    // above the watermark, whose values are exactly the shadow history's.
    auto check_recoverable = [&](const char* why) -> Epoch {
      ++stats.recover_checks;
      policy.arm(false);
      core::RecoverResult result;
      try {
        result = CheckpointManager::recover(path, registry_);
      } catch (const Error& e) {
        ADD_FAILURE() << why << ": chain not recoverable: " << e.what();
        return watermark;
      }
      const Epoch e = result.state.epoch;
      EXPECT_GE(e, watermark)
          << why << "\n"
          << verify::fsck_chain(path, registry_).to_string();
      auto it = history.find(e);
      if (it == history.end()) {
        ADD_FAILURE() << why << ": recovered unknown epoch " << e;
        return e;
      }
      EXPECT_EQ(result.state.roots.size(),
                static_cast<std::size_t>(kLeaves))
          << why;
      for (int j = 0; j < kLeaves; ++j)
        EXPECT_EQ(result.state.root_as<Leaf>(j)->i32, it->second[j])
            << why << ": epoch " << e << " leaf " << j;
      return e;
    };

    // Fuzz `recover --epoch` against the shadow oracle: a few random epochs
    // off the chain's history listing must time-travel to exactly the
    // shadow snapshot (or fail with CorruptionError under damage — never
    // succeed with some other epoch's state), and a target that is not on
    // the chain must fail with EpochNotRetainedError naming the nearest
    // present neighbors.
    std::mt19937_64 tt_rng(seed ^ 0x77AB3175ULL);
    auto check_time_travel = [&](const char* why) {
      policy.arm(false);
      const auto listing = CheckpointManager::history(path);
      std::vector<Epoch> present;
      for (const auto& entry : listing)
        if (present.empty() || present.back() != entry.epoch)
          present.push_back(entry.epoch);
      std::vector<Epoch> candidates;
      for (Epoch e : present)
        if (history.count(e) != 0) candidates.push_back(e);
      for (int k = 0; k < 3 && !candidates.empty(); ++k) {
        const Epoch e = candidates[tt_rng() % candidates.size()];
        ++stats.timetravel_checks;
        try {
          auto result =
              CheckpointManager::recover_to_epoch(path, registry_, e);
          ASSERT_EQ(result.state.epoch, e) << why;
          ASSERT_EQ(result.state.roots.size(),
                    static_cast<std::size_t>(kLeaves))
              << why << ": epoch " << e;
          const auto& shadow = history.at(e);
          for (int j = 0; j < kLeaves; ++j)
            EXPECT_EQ(result.state.root_as<Leaf>(j)->i32, shadow[j])
                << why << ": epoch " << e << " leaf " << j;
        } catch (const core::EpochNotRetainedError& err) {
          ADD_FAILURE() << why << ": epoch " << e
                        << " is on the history listing but recover_to_epoch"
                           " claims it is not retained: "
                        << err.what();
        } catch (const CorruptionError&) {
          // Acceptable: the epoch's window sits behind injected damage.
          // What would NOT be acceptable is returning some other state.
          ++stats.timetravel_damaged;
        }
      }
      // A target that was never on the chain: past the newest epoch, and —
      // when a crash left one — a gap inside the range. Both must name the
      // nearest present neighbors and must never "succeed".
      std::vector<Epoch> absent;
      if (!present.empty()) absent.push_back(present.back() + 100);
      for (Epoch e = 0; !present.empty() && e < present.back(); ++e)
        if (!std::binary_search(present.begin(), present.end(), e)) {
          absent.push_back(e);
          break;
        }
      for (Epoch target : absent) {
        ++stats.timetravel_checks;
        try {
          CheckpointManager::recover_to_epoch(path, registry_, target);
          ADD_FAILURE() << why << ": absent epoch " << target
                        << " recovered — wrong-state success";
        } catch (const core::EpochNotRetainedError& err) {
          EXPECT_EQ(err.target(), target) << why;
          auto above =
              std::upper_bound(present.begin(), present.end(), target);
          if (above != present.begin()) {
            ASSERT_TRUE(err.below().has_value()) << why << " " << err.what();
            EXPECT_EQ(*err.below(), *(above - 1)) << why;
          }
          if (above != present.end()) {
            ASSERT_TRUE(err.above().has_value()) << why << " " << err.what();
            EXPECT_EQ(*err.above(), *above) << why;
          }
          EXPECT_NE(std::string(err.what()).find("not retained"),
                    std::string::npos)
              << why << " " << err.what();
        }
      }
    };

    auto note_faults = [&] {
      const std::uint64_t total = policy.faults_total();
      if (total != faults_seen) {
        ++stats.faulted_epochs;
        faults_seen = total;
      }
    };

    // Simulated process death: recover, rewind the workload to the
    // recovered state, and continue with a fresh manager (which rebases
    // with a forced full checkpoint, so the incremental chain never spans
    // the restart).
    auto restart_from_chain = [&](const char* why) {
      manager.reset();
      const Epoch e = check_recoverable(why);
      check_time_travel(why);
      if (auto it = history.find(e); it != history.end()) values = it->second;
      build();
    };

    const int iters = chaos_iters();
    build();
    for (int i = 0; i < iters; ++i) {
      // Mutate a deterministic subset, always at least one leaf.
      for (int j = 0; j < kLeaves; ++j)
        if (j == i % kLeaves || (i * 31 + j) % 4 == 0) {
          values[j] = i * 100 + j;
          leaves[j]->set_i32(values[j]);
        }

      policy.begin_epoch();
      const std::uint64_t flips_before = policy.flips_total();
      // Recorded before the take: a crash can land every byte of the
      // in-flight frame, and recovery then rightly returns this epoch.
      history[manager->next_epoch()] = values;
      core::TakeResult taken;
      try {
        taken = manager->take(roots);
      } catch (const io::CrashFault&) {
        ++stats.crashes;
        ++stats.epochs;
        note_faults();
        restart_from_chain("post-crash");
        continue;
      }
      // Liveness: anything else escaping take() — IoError included — means
      // the ladder wedged below its fault budget. There is deliberately no
      // catch-all: such an exception propagates and fails the test.
      ++stats.epochs;
      if (std::getenv("ICKPT_CHAOS_TRACE"))
        std::printf("take e=%llu mode=%d seq=%llu budget=%llu flips=%llu "
                    "health=%d\n",
                    (unsigned long long)taken.epoch, (int)taken.mode,
                    (unsigned long long)taken.seq,
                    (unsigned long long)policy.budget_this_epoch(),
                    (unsigned long long)policy.flips_total(),
                    (int)manager->health());
      // After a restart, epochs whose frames never reached the chain are
      // taken again, so an incremental may reuse the epoch of a lost full.
      if (taken.mode == Mode::kFull)
        flips_at_full[taken.epoch] = flips_before;
      else
        flips_at_full.erase(taken.epoch);
      note_faults();

      if (async_io) {
        if (i % 5 == 4) {
          manager->flush();  // absorbs poison via the ladder, never throws
          const auto status = manager->health_status();
          if (status.any_settled && window_clean(status.last_settled_epoch)) {
            watermark = status.last_settled_epoch;
            any_settled = true;
          }
        }
      } else if (window_clean(taken.epoch)) {
        // Synchronous pipelines settle on return from take().
        watermark = taken.epoch;
        any_settled = true;
      }

      ASSERT_NE(manager->health(), Health::kFailed)
          << "ladder exhausted below its fault budget at epoch "
          << taken.epoch;

      // Planned (non-crash) restart: exercise recover-and-resume while the
      // pipeline is live and possibly degraded.
      if (i % 41 == 40) {
        manager->flush();
        ++stats.restarts;
        restart_from_chain("planned restart");
      }
    }
    manager->flush();
    // Faults the final flush absorbed land after the loop's last read;
    // attribute them to one last faulted epoch instead of dropping them.
    note_faults();
    manager.reset();
    (void)any_settled;
    check_recoverable("end of run");
    check_time_travel("end of run");

    // The chain the soak leaves behind must carry zero fsck errors
    // (quarantined generations may be damaged — that is what quarantine
    // means — so only chain-level structure is asserted here).
    auto chain = verify::fsck_chain(path, registry_);
    for (const auto& finding : chain.report.findings)
      EXPECT_NE(finding.code, "generation-order") << finding.message;

    clean_chain(path);
  }

  TypeRegistry registry_;
  obs::Registry metrics_;
};

TEST_F(ChaosSoakTest, SurvivesRandomFaultScheduleAcrossAllPipelines) {
  SoakStats stats;
  soak("sync", 0x5EED0001, /*async_io=*/false, /*capture_threads=*/1, stats);
  soak("async", 0x5EED0002, /*async_io=*/true, /*capture_threads=*/1, stats);
  soak("parallel", 0x5EED0003, /*async_io=*/false, /*capture_threads=*/3,
       stats);

  // The soak only proves something if the schedule actually bit: demand a
  // substantial share of fault-bearing epochs, at least one rotation, and
  // at least one reheal across the run.
  EXPECT_GE(stats.epochs, 3 * chaos_iters() - 3);
  EXPECT_GE(stats.faulted_epochs, stats.epochs / 3);
  EXPECT_GE(stats.faulted_epochs, std::min(200, stats.epochs * 2 / 3));
  const auto snapshot = metrics_.snapshot();
  EXPECT_GE(snapshot.counter_sum("ickpt_log_rotations_total"), 1u);
  EXPECT_GE(snapshot.counter_sum("ickpt_reheals_total"), 1u);
  // The time-travel fuzz only proves something if it actually sampled.
  EXPECT_GT(stats.timetravel_checks, 0);
  std::printf(
      "chaos soak: %d epochs, %d faulted, %d crashes, %d planned restarts, "
      "%d recover checks, %d time-travel probes (%d hit damage), "
      "%llu rotations, %llu reheals\n",
      stats.epochs, stats.faulted_epochs, stats.crashes, stats.restarts,
      stats.recover_checks, stats.timetravel_checks, stats.timetravel_damaged,
      (unsigned long long)snapshot.counter_sum("ickpt_log_rotations_total"),
      (unsigned long long)snapshot.counter_sum("ickpt_reheals_total"));
}

}  // namespace
}  // namespace ickpt::testing
