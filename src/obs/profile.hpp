// CaptureProfile: per-capture stage attribution for checkpoint profiling.
//
// The paper's argument is a cost model — which parts of a checkpoint are
// worth skipping — and BENCH_parallel.json showed sharded capture losing to
// serial with nobody able to say where the time went. This accumulator
// attributes capture wall/CPU time to stages (root walk, dirty test,
// serialize, claim-table arbitration, merge, write, fsync) and counts the
// contention events the parallel path pays for (claim CAS retries, lost
// claims, visited-set probes).
//
// Threading model: a CaptureProfile is a plain, non-atomic struct. Exactly
// one thread writes a given instance at a time — the serial walker writes
// the caller's profile directly; sharded capture gives every shard its own
// instance and merges them with add() after the pool joins. Passing the
// same instance to two concurrent walkers is a data race by contract.
//
// Cost model: every hook is gated on a nullable CaptureProfile* — when no
// profile is attached the hot paths pay one pointer test (the same
// zero-cost rule as the metric handles, docs/OBSERVABILITY.md). When a
// profile is attached, the walker pays 2-4 steady_clock reads per object;
// profiling is a diagnosis mode, not an always-on tax.
//
// The sum invariant (checked by bench_profile and tests/profile_test.cpp):
// stage_total_ns() == busy_ns up to clock-read noise, by construction —
// ScopedWalk attributes every walked nanosecond either to an inner stage
// (dirty test / serialize / claim) or to the kRootWalk residual, and the
// write/fsync/merge stages are added together with their busy interval.
// busy_ns is *attributable* time: serial sections plus the sum of
// per-worker busy wall. For a sharded capture on real cores it exceeds the
// coordinator's elapsed wall — per-shard walks overlap — which is exactly
// why the invariant is stated against busy_ns and not wall clock.
#pragma once

#include <cstdint>
#include <string>

namespace ickpt::obs {

struct CaptureProfile {
  enum Stage : std::uint8_t {
    kRootWalk = 0,   ///< traversal residual: fold loop, virtual dispatch
    kDirtyTest,      ///< modified-flag tests
    kSerialize,      ///< record() field writes (and whole plan runs)
    kClaim,          ///< visited-set insert + cross-shard claim arbitration
    kMerge,          ///< after the join: the stream header, the splice of
                     ///< the items' chunk chains, the end tag
    kMergeWait,      ///< coordinator wall waiting for the last workers to
                     ///< finish after its own work ran dry
    kWrite,          ///< stable-storage append minus its fsync
    kFsync,          ///< durable_flush fsync wall
    kStageCount
  };

  std::uint64_t stage_ns[kStageCount] = {};

  // Contention and volume counters.
  std::uint64_t visited_probes = 0;   ///< cycle-guard visited-set lookups
  std::uint64_t claim_attempts = 0;   ///< cross-shard ClaimTable::claim calls
  std::uint64_t claims_lost = 0;      ///< claims another shard won
  std::uint64_t claim_cas_retries = 0;  ///< claim CASes that lost their race
                                        ///< (a real cross-shard collision on
                                        ///< one slot); replaces the striped
                                        ///< table's lock-wait counter
  std::uint64_t plan_tests = 0;       ///< flag tests performed by plan runs
  std::uint64_t objects = 0;          ///< objects visited under profiling
  std::uint64_t records = 0;          ///< objects recorded under profiling
  std::uint64_t epochs = 0;           ///< captures merged into this profile
  std::uint64_t shards = 0;           ///< shard walks merged in

  /// Attributable busy wall: serial sections plus the sum of per-worker walk
  /// intervals (overlapping wall counted once per worker; see header).
  std::uint64_t busy_ns = 0;
  /// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) inside walks; 0 where the
  /// platform has no thread CPU clock.
  std::uint64_t cpu_ns = 0;

  /// Merge another profile in (shard into capture, capture into session).
  void add(const CaptureProfile& o) noexcept;
  void reset() noexcept { *this = CaptureProfile{}; }

  [[nodiscard]] std::uint64_t stage_total_ns() const noexcept;

  [[nodiscard]] static const char* stage_name(Stage s) noexcept;

  /// Human-readable per-stage table (ickptctl / test diagnostics).
  [[nodiscard]] std::string render() const;
  /// One JSON object: {"stages":{...},"counters":{...},...}.
  [[nodiscard]] std::string to_json() const;
};

/// CLOCK_THREAD_CPUTIME_ID in nanoseconds; 0 when unsupported.
std::uint64_t thread_cpu_now_ns() noexcept;

/// RAII residual attribution for one walk (one serial capture or one shard):
/// on destruction, adds the elapsed wall to busy_ns, the elapsed thread CPU
/// to cpu_ns, and the portion of the elapsed wall that no inner stage
/// (dirty test / serialize / claim) claimed to the kRootWalk residual — so
/// the stage sum stays exact by construction. Inert when `p` is null.
class ScopedWalk {
 public:
  explicit ScopedWalk(CaptureProfile* p) noexcept;
  ~ScopedWalk();
  ScopedWalk(const ScopedWalk&) = delete;
  ScopedWalk& operator=(const ScopedWalk&) = delete;

 private:
  CaptureProfile* p_;
  std::uint64_t t0_ = 0;
  std::uint64_t cpu0_ = 0;
  std::uint64_t inner0_ = 0;
};

}  // namespace ickpt::obs
