// Fault-injected I/O: every FaultKind exercised against FileSink /
// StableStorage / the async manager path, asserting the write-path
// contract — transient failures are retried with backoff, torn writes are
// rolled back to a frame boundary, bit flips are silent until the CRC,
// crashes leave the torn bytes on disk, and a failed background append
// surfaces from flush() with the lost frame's seq in the message.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/manager.hpp"
#include "io/fault.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using io::FaultKind;
using io::ScriptedFaultPolicy;
using io::StableStorage;
using io::StorageOptions;

// 16-byte payloads => every frame is exactly 20 + 16 = 36 bytes.
constexpr std::size_t kFrameBytes = 36;

std::vector<std::uint8_t> payload_of(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

class FaultIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_fault_io_test.log";
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".bak").c_str());
  }

  std::string path_;
};

TEST_F(FaultIoTest, TornWriteRollsBackToFrameBoundary) {
  ScriptedFaultPolicy policy(FaultKind::kTornWrite, kFrameBytes + 4);
  StableStorage storage(path_, StorageOptions{.fault = &policy});
  storage.append(payload_of(0xA0));

  try {
    storage.append(payload_of(0xA1));
    FAIL() << "torn write must surface as IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("torn write"), std::string::npos);
  }
  EXPECT_TRUE(policy.fired());

  // The partial frame was truncated away: the log is clean and the next
  // append lands on the frame boundary with the *retried* seq.
  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 1u);

  EXPECT_EQ(storage.append(payload_of(0xA2)), 1u);
  scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[1].payload, payload_of(0xA2));
  EXPECT_EQ(scan.frames[1].offset, kFrameBytes);
}

TEST_F(FaultIoTest, TransientFailureIsRetriedWithBackoff) {
  // Two consecutive EINTR-style failures, well under max_attempts.
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, EINTR,
                             /*transient_count=*/2);
  StableStorage storage(path_, StorageOptions{.fault = &policy});
  EXPECT_EQ(storage.append(payload_of(0xB0)), 0u);
  EXPECT_TRUE(policy.fired());

  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].payload, payload_of(0xB0));
}

TEST_F(FaultIoTest, TransientFailureExhaustsBoundedRetries) {
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, ENOSPC,
                             /*transient_count=*/100);
  io::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::microseconds(1);
  retry.max_backoff = std::chrono::microseconds(4);
  StableStorage storage(path_,
                        StorageOptions{.fault = &policy, .retry = retry});

  try {
    storage.append(payload_of(0xC0));
    FAIL() << "exhausted retries must surface as IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("attempt"), std::string::npos)
        << e.what();
  }
  // Nothing was ever written; the log is empty and clean, and the seq was
  // not consumed.
  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(storage.next_seq(), 0u);
}

TEST_F(FaultIoTest, ShortWriteContinuesWithRemainder) {
  // 10 bytes land, then the sink re-consults the (now spent) policy and
  // writes the rest; the caller never notices.
  ScriptedFaultPolicy policy(FaultKind::kShortWrite, 10);
  StableStorage storage(path_, StorageOptions{.fault = &policy});
  EXPECT_EQ(storage.append(payload_of(0xD0)), 0u);
  EXPECT_TRUE(policy.fired());

  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].payload, payload_of(0xD0));
}

TEST_F(FaultIoTest, BitFlipIsSilentUntilTheCrc) {
  // Flip a bit inside frame 0's payload: the append succeeds (silent
  // corruption), the plain scan stops at byte 0, and a salvage scan
  // resynchronizes on frame 1.
  ScriptedFaultPolicy policy(FaultKind::kBitFlip, 20 + 3);
  StableStorage storage(path_, StorageOptions{.fault = &policy});
  EXPECT_EQ(storage.append(payload_of(0xE0)), 0u);  // no throw
  EXPECT_EQ(storage.append(payload_of(0xE1)), 1u);
  EXPECT_TRUE(policy.fired());

  auto scan = StableStorage::scan(path_);
  EXPECT_FALSE(scan.clean);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.stop_offset, 0u);
  EXPECT_NE(scan.stop_reason.find("CRC"), std::string::npos)
      << scan.stop_reason;

  auto salvaged = StableStorage::scan(path_, {.salvage = true});
  ASSERT_EQ(salvaged.frames.size(), 1u);
  EXPECT_EQ(salvaged.frames[0].seq, 1u);
  EXPECT_TRUE(salvaged.frames[0].resync);
  EXPECT_EQ(salvaged.regions_skipped, 1u);
  EXPECT_EQ(salvaged.bytes_skipped, kFrameBytes);
}

TEST_F(FaultIoTest, CrashFaultLeavesTornBytesOnDisk) {
  ScriptedFaultPolicy policy(FaultKind::kCrash, kFrameBytes + 4);
  {
    StableStorage storage(path_, StorageOptions{.fault = &policy});
    storage.append(payload_of(0xF0));
    try {
      storage.append(payload_of(0xF1));
      FAIL() << "crash fault must surface as CrashFault";
    } catch (const io::CrashFault& e) {
      EXPECT_NE(std::string(e.what()).find("crash"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    }
  }
  // Unlike a torn write, nothing is rolled back: the file holds one clean
  // frame plus 4 torn bytes — exactly the state recovery has to handle.
  auto bytes = io::read_file(path_);
  EXPECT_EQ(bytes.size(), kFrameBytes + 4);
  auto scan = StableStorage::scan(path_);
  EXPECT_FALSE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.stop_offset, kFrameBytes);
  EXPECT_EQ(scan.valid_prefix_bytes, kFrameBytes);
}

TEST_F(FaultIoTest, CrashFaultIsNotAnIoError) {
  // Rollback/retry paths key on IoError; a simulated crash must never be
  // caught by them.
  try {
    throw io::CrashFault("boom");
  } catch (const IoError&) {
    FAIL() << "CrashFault must not convert to IoError";
  } catch (const Error&) {
    SUCCEED();
  }
}

TEST_F(FaultIoTest, ReopenAfterCrashRepairsTornTail) {
  ScriptedFaultPolicy policy(FaultKind::kCrash, kFrameBytes + 4);
  {
    StableStorage storage(path_, StorageOptions{.fault = &policy});
    storage.append(payload_of(0x10));
    EXPECT_THROW(storage.append(payload_of(0x11)), io::CrashFault);
  }
  // Reopening truncates the torn tail (saving it to .bak) so the next
  // append starts on a frame boundary.
  StableStorage reopened(path_);
  EXPECT_EQ(reopened.next_seq(), 1u);
  EXPECT_EQ(reopened.append(payload_of(0x12)), 1u);

  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[1].payload, payload_of(0x12));
  EXPECT_EQ(io::read_file(path_ + ".bak").size(), 4u);
}

TEST_F(FaultIoTest, BackoffDelayNeverOverflowsAtHighAttempts) {
  // Regression guard: the exponential used to be computed as
  // initial << attempt before the max_backoff cap, which is undefined
  // behavior from attempt 32 onwards. The delay must saturate instead.
  io::RetryPolicy retry;
  retry.initial_backoff = std::chrono::microseconds{100};
  retry.max_backoff = std::chrono::microseconds{250'000};
  EXPECT_EQ(io::backoff_delay(retry, 0).count(), 100);
  EXPECT_EQ(io::backoff_delay(retry, 1).count(), 200);
  // 100 * 2^11 = 204800 still fits; 2^12 crosses the cap.
  EXPECT_EQ(io::backoff_delay(retry, 11).count(), 204'800);
  EXPECT_EQ(io::backoff_delay(retry, 12).count(), 250'000);
  for (unsigned attempt = 0; attempt < 80; ++attempt) {
    const auto delay = io::backoff_delay(retry, attempt);
    EXPECT_GE(delay.count(), 100) << "attempt " << attempt;
    EXPECT_LE(delay.count(), 250'000) << "attempt " << attempt;
  }
  // Degenerate policies stay sane too.
  retry.max_backoff = std::chrono::microseconds{0};  // cap below initial
  EXPECT_EQ(io::backoff_delay(retry, 70).count(), 100);
  retry.initial_backoff = std::chrono::microseconds{0};
  EXPECT_EQ(io::backoff_delay(retry, 70).count(), 0);
}

TEST_F(FaultIoTest, SixtyFourRetryAttemptsExhaustWithoutOverflow) {
  // max_attempts = 64 drives the backoff shift far past the width of the
  // delay type; the append must fail cleanly after the 65th consultation,
  // not hit undefined behavior (UBSan is the real assertion here).
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, ENOSPC,
                             /*transient_count=*/1000);
  io::RetryPolicy retry;
  retry.max_attempts = 64;
  retry.initial_backoff = std::chrono::microseconds(1);
  retry.max_backoff = std::chrono::microseconds(8);
  StableStorage storage(path_,
                        StorageOptions{.fault = &policy, .retry = retry});
  EXPECT_THROW(storage.append(payload_of(0xC1)), IoError);
  auto scan = StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(storage.next_seq(), 0u);
}

TEST_F(FaultIoTest, BackoffJitterIsDeterministicPerSeedAndBounded) {
  io::RetryPolicy plain;
  plain.initial_backoff = std::chrono::microseconds{100};
  plain.max_backoff = std::chrono::microseconds{250'000};
  io::RetryPolicy seeded = plain;
  seeded.jitter_seed = 42;
  io::RetryPolicy other = plain;
  other.jitter_seed = 43;

  bool seeds_diverge = false;
  for (unsigned attempt = 0; attempt < 40; ++attempt) {
    const auto base = io::backoff_delay(plain, attempt);
    const auto jittered = io::backoff_delay(seeded, attempt);
    // Decorrelated into [base/2, base]: never longer than the classic
    // schedule (liveness bounds hold), never below half (backoff still
    // backs off).
    EXPECT_LE(jittered.count(), base.count()) << "attempt " << attempt;
    EXPECT_GE(jittered.count(), base.count() / 2) << "attempt " << attempt;
    // Same seed, same attempt => same delay, every time.
    EXPECT_EQ(jittered.count(), io::backoff_delay(seeded, attempt).count());
    if (io::backoff_delay(other, attempt) != jittered) seeds_diverge = true;
  }
  EXPECT_TRUE(seeds_diverge) << "distinct seeds must decorrelate";
}

TEST_F(FaultIoTest, ManagerPlumbsJitterSeedIntoRetries) {
  // The manager's retry.jitter_seed reaches the storage retry path: two
  // transient failures are absorbed exactly as with the classic schedule
  // (the jitter only shortens the waits — it must never turn a retryable
  // failure into a hard one).
  core::TypeRegistry registry;
  register_test_types(registry);
  ScriptedFaultPolicy policy(FaultKind::kTransient, 0, EINTR,
                             /*transient_count=*/2);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  core::ManagerOptions opts;
  opts.fault_policy = &policy;
  opts.retry.initial_backoff = std::chrono::microseconds{1};
  opts.retry.jitter_seed = 0x5EED;
  core::CheckpointManager manager(path_, opts);
  leaf->set_i32(7);
  EXPECT_EQ(manager.take(*leaf).seq, 0u);
  EXPECT_TRUE(policy.fired());
  EXPECT_EQ(core::CheckpointManager::recover(path_, registry).state.epoch,
            0u);
}

// Acceptance criterion: with async_io, an injected append failure surfaces
// as an exception from flush() carrying the failed frame's seq.
TEST_F(FaultIoTest, AsyncManagerAppendFailureSurfacesFromFlush) {
  core::TypeRegistry registry;
  register_test_types(registry);

  // Dry run to learn the deterministic frame layout (fresh heap => same
  // object ids => identical bytes).
  std::uint64_t second_frame_offset = 0;
  {
    core::Heap heap;
    Leaf* leaf = heap.make<Leaf>();
    core::CheckpointManager manager(path_);
    leaf->set_i32(1);
    manager.take(*leaf);
    leaf->set_i32(2);
    manager.take(*leaf);
    auto scan = io::StableStorage::scan(path_);
    ASSERT_EQ(scan.frames.size(), 2u);
    second_frame_offset = scan.frames[1].offset;
  }
  std::remove(path_.c_str());

  ScriptedFaultPolicy policy(FaultKind::kTornWrite, second_frame_offset + 4);
  core::Heap heap;
  Leaf* leaf = heap.make<Leaf>();
  core::ManagerOptions opts;
  opts.async_io = true;
  opts.fault_policy = &policy;
  core::CheckpointManager manager(path_, opts);
  leaf->set_i32(1);
  manager.take(*leaf);
  leaf->set_i32(2);
  manager.take(*leaf);

  try {
    manager.flush();
    FAIL() << "flush() must rethrow the background append failure";
  } catch (const IoError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("seq 1"), std::string::npos) << what;
    EXPECT_NE(what.find("torn write"), std::string::npos) << what;
  }
  // The failed append was rolled back by StableStorage, so the surviving
  // log is the clean one-frame prefix.
  auto scan = io::StableStorage::scan(path_);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.frames.size(), 1u);
}

}  // namespace
}  // namespace ickpt::testing
