// Crash matrix: sweep every injected fault point across a multi-checkpoint
// run and assert that recovery always yields a consistent prefix.
//
// The consistency oracle: the leaf is set to 10+i before the take at epoch
// i, so ANY consistent recovered state satisfies leaf->i32 == 10 + epoch.
// For crash-at-offset during append the matrix demands more: everything
// fully appended before the crash survives (epoch == completed - 1). For a
// crash during compact() the original log must recover identically — a
// crash anywhere inside compaction loses at most the compaction itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/async_log.hpp"
#include "core/manager.hpp"
#include "core/retention.hpp"
#include "io/byte_sink.hpp"
#include "io/fault.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "synth/structures.hpp"
#include "synth/workload.hpp"
#include "tests/test_types.hpp"
#include "verify/fsck.hpp"

namespace ickpt::testing {
namespace {

using core::CheckpointManager;
using core::ManagerOptions;
using core::TypeRegistry;
using io::FaultKind;
using io::ScriptedFaultPolicy;
using io::StableStorage;

constexpr int kTakes = 8;
constexpr unsigned kFullInterval = 3;  // fulls at epochs 0, 3, 6
constexpr std::uint64_t kChunk = io::ChunkPool::kChunkBytes;
constexpr std::uint64_t kFrameHeader = 20;

/// `bytes` in chunks from `pool`.
io::ChunkSink chunks_of(io::ChunkPool& pool,
                        const std::vector<std::uint8_t>& bytes) {
  io::ChunkSink sink(pool);
  sink.write(bytes.data(), bytes.size());
  return sink;
}

/// Fault offsets around the chunk boundaries of a payload starting at
/// file offset `payload_at` and `size` bytes long: its frame header, its
/// first byte, one before, on and after every chunk boundary, its last.
std::vector<std::uint64_t> offsets_around_chunks(std::uint64_t payload_at,
                                                 std::uint64_t size) {
  std::vector<std::uint64_t> out{payload_at - kFrameHeader,
                                 payload_at - kFrameHeader + 7, payload_at - 1,
                                 payload_at, payload_at + 1};
  for (std::uint64_t b = kChunk; b < size; b += kChunk)
    out.insert(out.end(), {payload_at + b - 1, payload_at + b,
                           payload_at + b + 1});
  out.push_back(payload_at + size - 1);
  return out;
}

/// One fault to script: its kind, and for transients the errno and count.
struct FaultCase {
  const char* name;
  FaultKind kind;
  int transient_errno = EINTR;
  unsigned transient_count = 1;
};

const FaultCase kFaultCases[] = {
    {"torn", FaultKind::kTornWrite},
    {"short", FaultKind::kShortWrite},
    {"bitflip", FaultKind::kBitFlip},
    {"eintr-retried", FaultKind::kTransient, EINTR, 3},
    {"enospc-retried", FaultKind::kTransient, ENOSPC, 3},
    {"enospc-exhausted", FaultKind::kTransient, ENOSPC, 20},
    {"crash", FaultKind::kCrash},
};

/// What one faulted run left: how it ended, and the file.
struct Outcome {
  std::string ended;  ///< "ok", "io-error" or "crash"
  std::vector<std::uint8_t> file;
};

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_crash_matrix_test.log";
    clean_files();
    register_test_types(registry_);
  }
  void TearDown() override { clean_files(); }

  void clean_files() {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
    std::remove((path_ + ".compact").c_str());
    std::remove((path_ + ".retain").c_str());
    for (unsigned n = 1; n <= 4; ++n) {
      const std::string q = StableStorage::quarantine_path(path_, n);
      std::remove(q.c_str());
      std::remove((q + ".bak").c_str());
      std::remove((q + ".retain").c_str());
    }
  }

  /// Run the reference workload; returns the number of takes that returned
  /// (all of them when `fault` is null). CrashFaults escape to the caller.
  int run_workload(io::FaultPolicy* fault,
                   bool swallow_io_errors = false) {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    ManagerOptions opts;
    opts.full_interval = kFullInterval;
    opts.fault_policy = fault;
    CheckpointManager manager(path_, opts);
    int completed = 0;
    for (int i = 0; i < kTakes; ++i) {
      leaf->set_i32(10 + i);
      try {
        manager.take(*leaf);
      } catch (const IoError&) {
        if (!swallow_io_errors) throw;
        continue;  // rolled back; the log is still clean
      }
      ++completed;
    }
    return completed;
  }

  /// The oracle: a recovered state is consistent iff the leaf carries the
  /// value written at the recovered epoch.
  static void expect_consistent(const core::RecoverResult& result,
                                const std::string& context) {
    EXPECT_LT(result.state.epoch, static_cast<Epoch>(kTakes)) << context;
    EXPECT_EQ(result.state.root_as<Leaf>()->i32,
              10 + static_cast<int>(result.state.epoch))
        << context;
  }

  std::string path_;
  TypeRegistry registry_;
};

TEST_F(CrashMatrixTest, CrashAtEveryOffsetDuringAppend) {
  const std::uint64_t total = [&] {
    run_workload(nullptr);
    return io::read_file(path_).size();
  }();
  ASSERT_GT(total, 0u);

  for (std::uint64_t off = 0; off < total; off += 3) {
    clean_files();
    const std::string context = "crash offset " + std::to_string(off);
    ScriptedFaultPolicy policy(FaultKind::kCrash, off);
    bool crashed = false;
    try {
      run_workload(&policy);
    } catch (const io::CrashFault&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << context;
    // Takes that finished before the crash == complete frames on disk (the
    // frame containing `off` is torn, everything before it is intact).
    const int completed =
        static_cast<int>(StableStorage::scan(path_).frames.size());

    // Post-crash protocol: repair the tail, then fsck must report zero
    // errors, then recovery must surface exactly the pre-crash prefix.
    StableStorage::repair(path_);
    auto report = verify::fsck_log(path_, registry_);
    EXPECT_TRUE(report.clean()) << context << "\n" << report.to_string();

    if (completed == 0) {
      EXPECT_THROW(CheckpointManager::recover(path_, registry_),
                   CorruptionError)
          << context;
      continue;
    }
    auto result = CheckpointManager::recover(path_, registry_);
    expect_consistent(result, context);
    EXPECT_EQ(result.state.epoch, static_cast<Epoch>(completed - 1))
        << context;
  }
}

// The sharded-capture variant of the append sweep: capture_threads=3 over a
// multi-root set drives every frame through the shard-merge + append path.
// The crash-consistency argument must be unchanged — the manager only
// appends fully merged payloads, so a crash mid-append tears at most one
// frame and repair/fsck/recover behave exactly as in the serial matrix.
TEST_F(CrashMatrixTest, CrashAtEveryOffsetWithShardedCapture) {
  constexpr int kRoots = 6;
  auto run_parallel_workload = [&](io::FaultPolicy* fault) {
    core::Heap heap;
    std::vector<Leaf*> leaves;
    std::vector<core::Checkpointable*> roots;
    for (int j = 0; j < kRoots; ++j) {
      leaves.push_back(heap.make<Leaf>());
      roots.push_back(leaves.back());
    }
    ManagerOptions opts;
    opts.full_interval = kFullInterval;
    opts.fault_policy = fault;
    opts.capture_threads = 3;
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < kTakes; ++i) {
      for (int j = 0; j < kRoots; ++j) leaves[j]->set_i32(10 + i + j);
      manager.take(roots);
    }
  };
  // Oracle: every root j carries the value written at the recovered epoch.
  auto expect_consistent_multi = [&](const core::RecoverResult& result,
                                     const std::string& context) {
    EXPECT_LT(result.state.epoch, static_cast<Epoch>(kTakes)) << context;
    ASSERT_EQ(result.state.roots.size(), static_cast<std::size_t>(kRoots))
        << context;
    for (int j = 0; j < kRoots; ++j)
      EXPECT_EQ(result.state.root_as<Leaf>(j)->i32,
                10 + static_cast<int>(result.state.epoch) + j)
          << context << " root " << j;
  };

  const std::uint64_t total = [&] {
    run_parallel_workload(nullptr);
    return io::read_file(path_).size();
  }();
  ASSERT_GT(total, 0u);

  for (std::uint64_t off = 0; off < total; off += 5) {
    clean_files();
    const std::string context =
        "sharded crash offset " + std::to_string(off);
    ScriptedFaultPolicy policy(FaultKind::kCrash, off);
    bool crashed = false;
    try {
      run_parallel_workload(&policy);
    } catch (const io::CrashFault&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << context;
    const int completed =
        static_cast<int>(StableStorage::scan(path_).frames.size());

    StableStorage::repair(path_);
    auto report = verify::fsck_log(path_, registry_);
    EXPECT_TRUE(report.clean()) << context << "\n" << report.to_string();

    if (completed == 0) {
      EXPECT_THROW(CheckpointManager::recover(path_, registry_),
                   CorruptionError)
          << context;
      continue;
    }
    auto result = CheckpointManager::recover(path_, registry_);
    expect_consistent_multi(result, context);
    EXPECT_EQ(result.state.epoch, static_cast<Epoch>(completed - 1))
        << context;
  }
}

TEST_F(CrashMatrixTest, TornWriteAtEveryOffsetDuringAppend) {
  const std::uint64_t total = [&] {
    run_workload(nullptr);
    return io::read_file(path_).size();
  }();

  for (std::uint64_t off = 0; off < total; off += 7) {
    clean_files();
    const std::string context = "torn-write offset " + std::to_string(off);
    ScriptedFaultPolicy policy(FaultKind::kTornWrite, off);
    int completed = run_workload(&policy, /*swallow_io_errors=*/true);
    EXPECT_TRUE(policy.fired()) << context;
    EXPECT_EQ(completed, kTakes - 1) << context;

    // A torn write in a surviving process is rolled back: the log never
    // even needs repair.
    auto scan = StableStorage::scan(path_);
    EXPECT_TRUE(scan.clean) << context;
    auto report = verify::fsck_log(path_, registry_);
    EXPECT_TRUE(report.clean()) << context << "\n" << report.to_string();
    expect_consistent(CheckpointManager::recover(path_, registry_), context);
  }
}

TEST_F(CrashMatrixTest, BitFlipAtEveryOffsetOfACompleteLog) {
  run_workload(nullptr);
  const auto pristine = io::read_file(path_);

  for (std::size_t pos = 0; pos < pristine.size(); pos += 5) {
    const std::string context = "bit flip at byte " + std::to_string(pos);
    auto bytes = pristine;
    bytes[pos] ^= 0x04;
    io::write_file(path_, bytes);
    std::remove((path_ + ".bak").c_str());

    // fsck must terminate with a report (damaged, but never crash) ...
    auto report = verify::fsck_log(path_, registry_);
    (void)report;
    // ... and recovery either salvages a consistent prefix or refuses with
    // a structured error — never a partial or inconsistent graph.
    try {
      auto result = CheckpointManager::recover(path_, registry_);
      expect_consistent(result, context);
    } catch (const CorruptionError&) {
      // acceptable: the flip may take out the only usable full checkpoint
    }
  }
}

// Rotation crash points: kill the "process" between each step of a log
// rotation (before the quarantine rename, after it, after the fresh
// generation is opened, and after the rebase full landed) and prove a crash
// mid-rotation loses at most the in-flight epoch — the generation chain
// always recovers a consistent settled prefix, and a restarted healing
// manager resumes with fresh epoch numbers and a clean chain.
TEST_F(CrashMatrixTest, CrashAtEveryRotationStage) {
  // Calibrate: log size after two clean epochs, so a scripted ENOSPC lands
  // inside epoch 2's append and drives the ladder into rotation.
  auto heal_opts = [](io::FaultPolicy* fault) {
    ManagerOptions opts;
    opts.full_interval = kFullInterval;
    opts.fault_policy = fault;
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff = std::chrono::microseconds{0};
    opts.heal.enabled = true;
    opts.heal.append_retries = 1;
    opts.heal.rotate_attempts = 3;
    return opts;
  };
  const std::uint64_t size2 = [&] {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(nullptr));
    for (int i = 0; i < 2; ++i) {
      leaf->set_i32(10 + i);
      manager.take(*leaf);
    }
    return io::read_file(path_).size();
  }();

  struct Case {
    io::RotateStage stage;
    const char* name;
    Epoch recovered_epoch;  // the settled prefix a crash here leaves behind
  };
  const Case kCases[] = {
      // Epoch 2 was in flight and never reached disk: at most it is lost.
      {io::RotateStage::kBeforeQuarantine, "before-quarantine", 1},
      {io::RotateStage::kAfterQuarantine, "after-quarantine", 1},
      {io::RotateStage::kAfterReopen, "after-reopen", 1},
      // The rebase full settled before this point fires: nothing is lost.
      {io::RotateStage::kAfterRebase, "after-rebase", 2},
  };

  for (const Case& c : kCases) {
    clean_files();
    const std::string context = std::string("rotation crash ") + c.name;

    // Budget: initial append (3 decisions) + one in-place retry (3) fail;
    // the rotation rebase writes below the trigger and would succeed.
    ScriptedFaultPolicy policy(FaultKind::kTransient, size2 + 10, ENOSPC, 6);
    ManagerOptions opts = heal_opts(&policy);
    opts.heal.rotate_hook = [&](io::RotateStage stage) {
      if (stage == c.stage)
        throw io::CrashFault(std::string("rotation stage ") + c.name);
    };
    bool crashed = false;
    try {
      core::Heap heap;
      Leaf* leaf = heap.make<Leaf>();
      CheckpointManager manager(path_, opts);
      for (int i = 0; i < kTakes; ++i) {
        leaf->set_i32(10 + i);
        manager.take(*leaf);
      }
    } catch (const io::CrashFault&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << context;

    // The chain recovers exactly the settled prefix.
    auto result = CheckpointManager::recover(path_, registry_);
    expect_consistent(result, context);
    EXPECT_EQ(result.state.epoch, c.recovered_epoch) << context;

    // Restart protocol: a fresh healing manager resumes past every epoch on
    // the chain (never reusing a number that reached disk), rebases with a
    // full, and leaves a chain with zero fsck errors.
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    CheckpointManager manager(path_, heal_opts(nullptr));
    EXPECT_EQ(manager.next_epoch(), c.recovered_epoch + 1) << context;
    leaf->set_i32(10 + static_cast<int>(c.recovered_epoch) + 1);
    auto take = manager.take(*leaf);
    EXPECT_EQ(take.mode, core::Mode::kFull) << context;
    EXPECT_EQ(take.epoch, c.recovered_epoch + 1) << context;

    auto chain = verify::fsck_chain(path_, registry_);
    EXPECT_TRUE(chain.clean()) << context << "\n" << chain.to_string();
  }
}

TEST_F(CrashMatrixTest, CrashAtEveryOffsetDuringCompact) {
  run_workload(nullptr);
  const auto pristine = io::read_file(path_);
  const auto reference = CheckpointManager::recover(path_, registry_);
  ASSERT_EQ(reference.state.epoch, static_cast<Epoch>(kTakes - 1));

  std::uint64_t off = 0;
  int crashes = 0;
  for (;; off += 3) {
    io::write_file(path_, pristine);
    const std::string context = "compact crash offset " + std::to_string(off);
    ScriptedFaultPolicy policy(FaultKind::kCrash, off);
    bool crashed = false;
    try {
      CheckpointManager::compact(path_, registry_,
                                 core::CompactOptions{.fault = &policy});
    } catch (const io::CrashFault&) {
      crashed = true;
    }
    if (!crashed) {
      // The offset lies beyond everything compaction writes: done sweeping.
      // (Note the previous iteration left a stale .compact behind, so this
      // pass also proves a crashed compaction does not block the next one.)
      EXPECT_FALSE(policy.fired()) << context;
      break;
    }
    ++crashes;
    // A crash inside compact loses at most the compaction: the original
    // log's bytes are untouched and recover identically.
    EXPECT_EQ(io::read_file(path_), pristine) << context;
    auto result = CheckpointManager::recover(path_, registry_);
    EXPECT_EQ(result.state.epoch, reference.state.epoch) << context;
    expect_consistent(result, context);
  }
  EXPECT_GT(crashes, 0);

  // The sweep ends on a successful compaction: same state, single full
  // frame, clean fsck.
  auto compacted = CheckpointManager::recover(path_, registry_);
  EXPECT_TRUE(compacted.log_clean);
  EXPECT_EQ(compacted.checkpoints_applied, 1u);
  EXPECT_EQ(compacted.state.epoch, reference.state.epoch);
  expect_consistent(compacted, "after successful compact");
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// The schedule-driven variant: crash at every offset of a *policy*
// compaction (kBinomial rewrites O(log n) full frames plus a manifest, so
// it has many more write fault points than the single-frame squash). The
// invariant is strictly stronger than "newest state survives": the entire
// pre-compaction history — every epoch, since nothing was ever dropped —
// must still be recoverable to exactly its oracle value after the crash.
// The old log or its untouched bytes win; a half-rewritten history never
// becomes visible.
TEST_F(CrashMatrixTest, CrashAtEveryOffsetDuringPolicyCompact) {
  run_workload(nullptr);
  const auto pristine = io::read_file(path_);

  std::uint64_t off = 0;
  int crashes = 0;
  for (;; off += 3) {
    io::write_file(path_, pristine);
    std::remove((path_ + ".retain").c_str());
    const std::string context =
        "policy compact crash offset " + std::to_string(off);
    ScriptedFaultPolicy policy(FaultKind::kCrash, off);
    bool crashed = false;
    try {
      CheckpointManager::compact(
          path_, registry_,
          core::CompactOptions{core::CompactPolicy::kBinomial, &policy});
    } catch (const io::CrashFault&) {
      crashed = true;
    }
    if (!crashed) {
      EXPECT_FALSE(policy.fired()) << context;
      break;
    }
    ++crashes;
    // The original log is byte-for-byte untouched, no manifest was
    // published (it only lands after the rename), and every pre-crash
    // epoch still time-travels to its oracle state.
    EXPECT_EQ(io::read_file(path_), pristine) << context;
    auto manifest = core::RetentionManifest::load(path_);
    EXPECT_FALSE(manifest.has_value()) << context;
    for (int e = 0; e < kTakes; ++e) {
      auto result = CheckpointManager::recover_to_epoch(
          path_, registry_, static_cast<Epoch>(e));
      EXPECT_EQ(result.state.epoch, static_cast<Epoch>(e)) << context;
      EXPECT_EQ(result.state.root_as<Leaf>()->i32, 10 + e)
          << context << " epoch " << e;
    }
  }
  EXPECT_GT(crashes, 0);

  // The sweep ends on a successful policy compaction: the retained set is
  // exactly the schedule, every retained epoch matches the oracle, and the
  // rewritten log + manifest pass fsck (including the retention audit).
  const Epoch newest = static_cast<Epoch>(kTakes - 1);
  const auto schedule = core::RetentionPolicy::schedule(newest);
  auto manifest = core::RetentionManifest::load(path_);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->newest, newest);
  EXPECT_EQ(manifest->epochs, schedule);
  for (Epoch e : schedule) {
    auto result = CheckpointManager::recover_to_epoch(path_, registry_, e);
    EXPECT_EQ(result.state.epoch, e);
    EXPECT_EQ(result.state.root_as<Leaf>()->i32, 10 + static_cast<int>(e));
  }
  auto report = verify::fsck_log(path_, registry_);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// A frame whose payload spans several chunks reaches the file as one write
// per chunk. Every fault, at offsets before, on and after each chunk
// boundary, must leave exactly the file a contiguous append of the same
// bytes leaves: the same rollback to the frame boundary, the same torn
// tail, the same repaired file on the next open.
TEST_F(CrashMatrixTest, FaultsAcrossChunkBoundariesMatchAContiguousAppend) {
  std::vector<std::uint8_t> small(100);
  std::vector<std::uint8_t> big(2 * kChunk + kChunk / 2);
  for (std::size_t i = 0; i < small.size(); ++i)
    small[i] = static_cast<std::uint8_t>(i * 7);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 13 + (i >> 20));
  io::ChunkPool pool;
  ASSERT_GE(chunks_of(pool, big).chunks(), 3u);
  const std::uint64_t payload_at = 2 * kFrameHeader + small.size();

  // One faulted run: a small frame, then `big` as chunks or as one vector.
  auto run = [&](bool gather, const FaultCase& fc, std::uint64_t offset) {
    clean_files();
    ScriptedFaultPolicy policy(fc.kind, offset, fc.transient_errno,
                               fc.transient_count);
    Outcome out{"ok", {}};
    {
      StableStorage storage(
          path_, io::StorageOptions{
                     .fault = &policy,
                     .retry = io::RetryPolicy{
                         .initial_backoff = std::chrono::microseconds{0}}});
      storage.append(small);
      const io::ChunkSink chunks = chunks_of(pool, big);
      try {
        if (gather)
          storage.append(chunks.ranges());
        else
          storage.append(big);
      } catch (const io::CrashFault&) {
        out.ended = "crash";
      } catch (const IoError&) {
        out.ended = "io-error";
      }
    }
    out.file = io::read_file(path_);
    return out;
  };

  int cases = 0;
  for (const FaultCase& fc : kFaultCases) {
    for (const std::uint64_t offset :
         offsets_around_chunks(payload_at, big.size())) {
      const std::string context =
          std::string(fc.name) + " at offset " + std::to_string(offset);
      const Outcome contiguous = run(false, fc, offset);
      const Outcome gathered = run(true, fc, offset);
      EXPECT_EQ(gathered.ended, contiguous.ended) << context;
      EXPECT_TRUE(gathered.file == contiguous.file) << context;
      // Only the faults that fail the append leave less than the frame;
      // a rolled-back one leaves exactly the small frame.
      if (contiguous.ended == "io-error") {
        EXPECT_EQ(contiguous.file.size(), payload_at - kFrameHeader)
            << context;
      }
      // The next open repairs a torn tail the same way for both.
      { StableStorage reopened(path_); }
      const std::vector<std::uint8_t> repaired = io::read_file(path_);
      io::write_file(path_, contiguous.file);
      std::remove((path_ + ".bak").c_str());
      { StableStorage reopened(path_); }
      EXPECT_TRUE(io::read_file(path_) == repaired) << context;
      ++cases;
    }
  }
  EXPECT_GT(cases, 0);
}

// The compaction variant: a rewrite whose payload spans several chunks,
// faulted at offsets before, on and after each chunk boundary of the
// replacement log. The replacement holds exactly what a contiguous append
// of the rewrite's bytes would: a crash leaves the prefix up to the fault
// and the original log untouched, a torn write rolls the replacement back
// and leaves the original log untouched, and a fault the sink absorbs
// publishes the same log a clean compaction does.
TEST_F(CrashMatrixTest, FaultsAcrossChunkBoundariesDuringCompact) {
  TypeRegistry registry;
  synth::register_types(registry);
  {
    core::Heap heap;
    synth::SynthConfig config;
    config.num_structures = 2000;  // a 2.6 MB full frame
    synth::SynthWorkload workload(heap, config);
    ManagerOptions opts;
    opts.full_interval = kFullInterval;
    CheckpointManager manager(path_, opts);
    for (int i = 0; i < 4; ++i) {
      if (i > 0) workload.mutate();
      manager.take(workload.root_bases());
    }
  }
  const std::vector<std::uint8_t> pristine = io::read_file(path_);
  CheckpointManager::compact(path_, registry);
  const std::vector<std::uint8_t> compacted = io::read_file(path_);
  const std::uint64_t payload_size = compacted.size() - kFrameHeader;
  ASSERT_GT(payload_size, 2 * kChunk) << "the rewrite spans 3 chunks";
  const std::string tmp = path_ + ".compact";

  int cases = 0;
  for (const FaultCase& fc : kFaultCases) {
    for (const std::uint64_t offset :
         offsets_around_chunks(kFrameHeader, payload_size)) {
      const std::string context =
          std::string(fc.name) + " at offset " + std::to_string(offset);
      io::write_file(path_, pristine);
      std::remove(tmp.c_str());
      ScriptedFaultPolicy policy(fc.kind, offset, fc.transient_errno,
                                 fc.transient_count);
      std::string ended = "ok";
      try {
        CheckpointManager::compact(path_, registry,
                                   core::CompactOptions{.fault = &policy});
      } catch (const io::CrashFault&) {
        ended = "crash";
      } catch (const IoError&) {
        ended = "io-error";
      }
      ++cases;
      if (ended == "ok") {
        // The sink absorbed the fault (short write, retried transient) or
        // it flipped one bit of the published frame.
        std::vector<std::uint8_t> expected = compacted;
        if (fc.kind == FaultKind::kBitFlip) expected[offset] ^= 0x01;
        EXPECT_TRUE(io::read_file(path_) == expected) << context;
        continue;
      }
      EXPECT_TRUE(io::read_file(path_) == pristine) << context;
      const std::vector<std::uint8_t> left = io::read_file(tmp);
      if (ended == "crash") {
        // Torn bytes stay: exactly the rewrite's first `offset` bytes.
        const std::vector<std::uint8_t> prefix(
            compacted.begin(),
            compacted.begin() + static_cast<std::ptrdiff_t>(offset));
        EXPECT_TRUE(left == prefix) << context;
      } else {
        EXPECT_TRUE(left.empty()) << context << ": rolled back";
        EXPECT_NE(fc.kind, FaultKind::kShortWrite) << context;
      }
    }
  }
  EXPECT_GT(cases, 0);
  std::remove(tmp.c_str());
}

/// Blocks the first write until released, then tears it: holds an async
/// append in flight while the test queues more payloads behind it.
class GatedTornWrite final : public io::FaultPolicy {
 public:
  io::FaultDecision on_write(std::uint64_t, std::size_t) override {
    if (fired_) return {};
    fired_ = true;
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
    return {FaultKind::kTornWrite, 3};
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

 private:
  bool fired_ = false;  // the async worker is the only caller
};

// An AsyncLog poisoned while multi-chunk payloads wait behind the failing
// one drops them and counts them, as for any payload, and every chunk of
// the failed and the dropped payloads goes back to the pool.
TEST_F(CrashMatrixTest, PoisonedAsyncLogReturnsEveryChunk) {
  GatedTornWrite fault;
  io::ChunkPool pool;
  const std::vector<std::uint8_t> bytes(2 * kChunk + 1, 0x5A);
  {
    StableStorage storage(path_, io::StorageOptions{.fault = &fault});
    core::AsyncLog log(storage);
    log.submit(chunks_of(pool, bytes));
    while (!fault.entered.load(std::memory_order_acquire))
      std::this_thread::yield();
    log.submit(chunks_of(pool, bytes));
    log.submit(chunks_of(pool, bytes));
    EXPECT_EQ(pool.mapped_bytes(), 9 * kChunk) << "3 payloads x 3 chunks";
    fault.release.store(true, std::memory_order_release);
    EXPECT_THROW(log.drain(), IoError);
    EXPECT_TRUE(log.poisoned());
    EXPECT_EQ(log.dropped(), 2u);
    EXPECT_EQ(pool.kept_chunks(), 9u) << "every chunk is back in the pool";
    EXPECT_EQ(pool.mapped_bytes(), 9 * kChunk);
  }
  EXPECT_TRUE(StableStorage::scan(path_).frames.empty());
}

}  // namespace
}  // namespace ickpt::testing
