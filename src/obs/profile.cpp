#include "obs/profile.hpp"

#include <cstdio>

#include "obs/trace.hpp"

#ifdef __unix__
#include <time.h>
#endif

namespace ickpt::obs {

void CaptureProfile::add(const CaptureProfile& o) noexcept {
  for (std::size_t i = 0; i < kStageCount; ++i) stage_ns[i] += o.stage_ns[i];
  visited_probes += o.visited_probes;
  claim_attempts += o.claim_attempts;
  claims_lost += o.claims_lost;
  claim_cas_retries += o.claim_cas_retries;
  plan_tests += o.plan_tests;
  objects += o.objects;
  records += o.records;
  epochs += o.epochs;
  shards += o.shards;
  busy_ns += o.busy_ns;
  cpu_ns += o.cpu_ns;
}

std::uint64_t CaptureProfile::stage_total_ns() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kStageCount; ++i) total += stage_ns[i];
  return total;
}

const char* CaptureProfile::stage_name(Stage s) noexcept {
  switch (s) {
    case kRootWalk:
      return "root_walk";
    case kDirtyTest:
      return "dirty_test";
    case kSerialize:
      return "serialize";
    case kClaim:
      return "claim";
    case kMerge:
      return "merge";
    case kMergeWait:
      return "merge_wait";
    case kWrite:
      return "write";
    case kFsync:
      return "fsync";
    case kStageCount:
      break;
  }
  return "?";
}

namespace {

void append_kv_u64(std::string& out, const char* key, std::uint64_t v,
                   bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

std::string fmt_ns(std::uint64_t ns) {
  char buf[48];
  if (ns >= 1000000000ull)
    std::snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(ns) / 1e9);
  else if (ns >= 1000000ull)
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  else
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

std::string CaptureProfile::render() const {
  const std::uint64_t total = stage_total_ns();
  std::string out;
  out += "capture profile: " + std::to_string(epochs) + " epoch(s), " +
         std::to_string(shards) + " shard walk(s), " +
         std::to_string(records) + "/" + std::to_string(objects) +
         " object(s) recorded\n";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(stage_ns[i]) /
                         static_cast<double>(total);
    char line[128];
    std::snprintf(line, sizeof(line), "  %-10s %12s  %5.1f%%\n",
                  stage_name(static_cast<Stage>(i)),
                  fmt_ns(stage_ns[i]).c_str(), pct);
    out += line;
  }
  out += "  busy " + fmt_ns(busy_ns) + ", cpu " + fmt_ns(cpu_ns) +
         " (stage sum " + fmt_ns(total) + ")\n";
  out += "  contention: " + std::to_string(claim_attempts) + " claim(s), " +
         std::to_string(claims_lost) + " lost, " +
         std::to_string(claim_cas_retries) + " cas retr(ies); " +
         std::to_string(visited_probes) + " visited probe(s)\n";
  return out;
}

std::string CaptureProfile::to_json() const {
  std::string out = "{\"stages_ns\":{";
  bool first = true;
  for (std::size_t i = 0; i < kStageCount; ++i)
    append_kv_u64(out, stage_name(static_cast<Stage>(i)), stage_ns[i], first);
  out += "},\"counters\":{";
  first = true;
  append_kv_u64(out, "visited_probes", visited_probes, first);
  append_kv_u64(out, "claim_attempts", claim_attempts, first);
  append_kv_u64(out, "claims_lost", claims_lost, first);
  append_kv_u64(out, "claim_cas_retries", claim_cas_retries, first);
  append_kv_u64(out, "plan_tests", plan_tests, first);
  append_kv_u64(out, "objects", objects, first);
  append_kv_u64(out, "records", records, first);
  out += "},";
  first = true;
  append_kv_u64(out, "epochs", epochs, first);
  append_kv_u64(out, "shards", shards, first);
  append_kv_u64(out, "busy_ns", busy_ns, first);
  append_kv_u64(out, "cpu_ns", cpu_ns, first);
  append_kv_u64(out, "stage_total_ns", stage_total_ns(), first);
  out += '}';
  return out;
}

std::uint64_t thread_cpu_now_ns() noexcept {
#if defined(__unix__) && defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

ScopedWalk::ScopedWalk(CaptureProfile* p) noexcept : p_(p) {
  if (p_ == nullptr) return;
  inner0_ = p_->stage_ns[CaptureProfile::kDirtyTest] +
            p_->stage_ns[CaptureProfile::kSerialize] +
            p_->stage_ns[CaptureProfile::kClaim];
  cpu0_ = thread_cpu_now_ns();
  t0_ = trace_now_ns();
}

ScopedWalk::~ScopedWalk() {
  if (p_ == nullptr) return;
  const std::uint64_t elapsed = trace_now_ns() - t0_;
  const std::uint64_t inner = p_->stage_ns[CaptureProfile::kDirtyTest] +
                              p_->stage_ns[CaptureProfile::kSerialize] +
                              p_->stage_ns[CaptureProfile::kClaim] -
                              inner0_;
  // Inner stages can (rarely) exceed the walk wall because each stage pays
  // its own clock-read quantization; clamp so the residual never underflows.
  p_->stage_ns[CaptureProfile::kRootWalk] +=
      elapsed > inner ? elapsed - inner : 0;
  p_->busy_ns += elapsed;
  const std::uint64_t cpu = thread_cpu_now_ns();
  if (cpu > cpu0_) p_->cpu_ns += cpu - cpu0_;
  p_->shards += 1;
}

}  // namespace ickpt::obs
