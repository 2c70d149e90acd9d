#include "spec/executor.hpp"

#include <cstring>

#include "common/error.hpp"
#include "core/checkpoint_info.hpp"
#include "core/parallel_checkpoint.hpp"
#include "core/segment_merge.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ickpt::spec {

namespace {

constexpr std::size_t kMaxStack = 256;

template <class T>
T load(const char* base, std::uint32_t offset) {
  T v;
  std::memcpy(&v, base + offset, sizeof(T));
  return v;
}

core::CheckpointInfo& info_at(char* base, std::uint32_t offset) {
  return *reinterpret_cast<core::CheckpointInfo*>(base + offset);
}

/// Stream-header projection for the plan's roots: each root's id sits at
/// the plan's root_info_offset.
auto root_id(const Plan& plan) {
  return [offset = plan.root_info_offset](void* root) {
    return reinterpret_cast<const core::CheckpointInfo*>(
               static_cast<const char*>(root) + offset)
        ->id();
  };
}

}  // namespace

PlanExecutor::PlanExecutor(const Plan& plan)
    : plan_(&plan),
      obs_runs_(obs::counter("ickpt_plan_runs_total",
                             {{"plan", plan.shape_name}})),
      obs_tests_performed_(obs::counter("ickpt_plan_tests_performed_total",
                                        {{"plan", plan.shape_name}})),
      obs_tests_elided_(obs::counter("ickpt_plan_tests_elided_total",
                                     {{"plan", plan.shape_name}})) {
  if (plan.max_depth + 1 >= kMaxStack)
    throw SpecError("plan nests deeper than the executor stack (" +
                    std::to_string(plan.max_depth) + ")");
  if (plan.ops.empty() || plan.ops.back().code != OpCode::kEnd)
    throw SpecError("malformed plan: missing end op");
  for (const Op& op : plan.ops)
    if (op.code == OpCode::kTestSkip) ++tests_per_run_;
  if (plan.nodes_covered > tests_per_run_)
    elided_per_run_ = plan.nodes_covered - tests_per_run_;
}

void PlanExecutor::run(void* root, io::DataWriter& d) const {
  const Op* ops = plan_->ops.data();
  char* cur = static_cast<char*>(root);
  char* stack[kMaxStack];
  std::size_t sp = 0;
  std::size_t ip = 0;
  for (;;) {
    const Op& op = ops[ip++];
    switch (op.code) {
      case OpCode::kTestSkip:
        if (!info_at(cur, op.a).modified()) ip += op.b;
        break;
      case OpCode::kWriteHeader:
        // Lazy operands: imm and the id are loaded after the tag is
        // buffered, so neither is held across the buffer check. `cur` is
        // captured by value so its address is never taken.
        core::write_record_header(
            d, [&op] { return op.imm; },
            [&op, cur] { return info_at(cur, op.a).id(); });
        break;
      case OpCode::kWriteU8:
        d.write_u8(load<std::uint8_t>(cur, op.a));
        break;
      case OpCode::kWriteBool:
        d.write_bool(load<bool>(cur, op.a));
        break;
      case OpCode::kWriteI32:
        d.write_i32(load<std::int32_t>(cur, op.a));
        break;
      case OpCode::kWriteI32Var:
        d.write_varint_i64(load<std::int32_t>(cur, op.a));
        break;
      case OpCode::kWriteI64:
        d.write_i64(load<std::int64_t>(cur, op.a));
        break;
      case OpCode::kWriteU64:
        d.write_u64(load<std::uint64_t>(cur, op.a));
        break;
      case OpCode::kWriteF32:
        d.write_f32(load<float>(cur, op.a));
        break;
      case OpCode::kWriteF64:
        d.write_f64(load<double>(cur, op.a));
        break;
      case OpCode::kWriteI32ArrayFixed: {
        const char* base = cur + op.a;
        for (std::uint32_t i = 0; i < op.b; ++i)
          d.write_i32(load<std::int32_t>(base, i * 4));
        break;
      }
      case OpCode::kWriteI32Run:
        d.write_i32_run(reinterpret_cast<const std::int32_t*>(cur + op.a),
                        op.b);
        break;
      case OpCode::kWriteI32ArrayRuntime: {
        const std::int32_t count = load<std::int32_t>(cur, op.b);
        const char* base = cur + op.a;
        for (std::int32_t i = 0; i < count; ++i)
          d.write_i32(load<std::int32_t>(base,
                                         static_cast<std::uint32_t>(i) * 4));
        break;
      }
      case OpCode::kWriteChildId: {
        char* child = load<char*>(cur, op.a);
        d.write_varint(child != nullptr ? info_at(child, op.b).id()
                                        : kNullObjectId);
        break;
      }
      case OpCode::kResetFlag:
        info_at(cur, op.a).reset_modified();
        break;
      case OpCode::kPushChild: {
        char* child = load<char*>(cur, op.a);
        if (child == nullptr) {
          ip += op.b;
        } else {
          stack[sp++] = cur;
          cur = child;
        }
        break;
      }
      case OpCode::kPop:
        cur = stack[--sp];
        break;
      case OpCode::kFollow:
        for (std::uint32_t i = 0; i < op.b; ++i) {
          cur = load<char*>(cur, op.a);
          if (cur == nullptr)
            throw SpecError(
                "structure violates pattern: chain shorter than declared "
                "(plan for " +
                plan_->shape_name + ")");
        }
        break;
      case OpCode::kAssertNull:
        if (load<void*>(cur, op.a) != nullptr)
          throw SpecError(
              "structure violates pattern: child declared absent is present "
              "(plan for " +
              plan_->shape_name + ")");
        break;
      case OpCode::kEnd:
        obs_runs_.inc();
        obs_tests_performed_.inc(tests_per_run_);
        obs_tests_elided_.inc(elided_per_run_);
        return;
    }
  }
}

void PlanExecutor::run(void* root, io::DataWriter& d,
                       obs::CaptureProfile* prof) const {
  if (prof == nullptr) {
    run(root, d);
    return;
  }
  using P = obs::CaptureProfile;
  const std::uint64_t t0 = obs::trace_now_ns();
  run(root, d);
  const std::uint64_t elapsed = obs::trace_now_ns() - t0;
  prof->stage_ns[P::kSerialize] += elapsed;
  prof->busy_ns += elapsed;
  prof->plan_tests += tests_per_run_;
  prof->objects += plan_->nodes_covered;
}

void PlanExecutor::rebind_metrics() noexcept {
  obs_runs_ =
      obs::counter("ickpt_plan_runs_total", {{"plan", plan_->shape_name}});
  obs_tests_performed_ = obs::counter("ickpt_plan_tests_performed_total",
                                      {{"plan", plan_->shape_name}});
  obs_tests_elided_ = obs::counter("ickpt_plan_tests_elided_total",
                                   {{"plan", plan_->shape_name}});
}

void PlanExecutor::run_dry(void* root) const {
  const Op* ops = plan_->ops.data();
  char* cur = static_cast<char*>(root);
  char* stack[kMaxStack];
  std::size_t sp = 0;
  std::size_t ip = 0;
  for (;;) {
    const Op& op = ops[ip++];
    switch (op.code) {
      case OpCode::kTestSkip:
        if (!info_at(cur, op.a).modified()) ip += op.b;
        break;
      case OpCode::kPushChild: {
        char* child = load<char*>(cur, op.a);
        if (child == nullptr) {
          ip += op.b;
        } else {
          stack[sp++] = cur;
          cur = child;
        }
        break;
      }
      case OpCode::kPop:
        cur = stack[--sp];
        break;
      case OpCode::kFollow:
        for (std::uint32_t i = 0; i < op.b; ++i) {
          cur = load<char*>(cur, op.a);
          if (cur == nullptr)
            throw SpecError("structure violates pattern: chain shorter than "
                            "declared (dry run)");
        }
        break;
      case OpCode::kEnd:
        return;
      default:
        break;  // writes and resets are suppressed in a dry run
    }
  }
}

void run_plan_checkpoint(io::DataWriter& d, Epoch epoch,
                         std::span<void* const> roots,
                         const PlanExecutor& exec, core::Mode mode,
                         obs::CaptureProfile* profile) {
  core::write_stream(d, mode, epoch, roots, root_id(exec.plan()),
                     [&](void* root) { exec.run(root, d, profile); });
  if (profile != nullptr) profile->epochs += 1;
}

void run_plan_checkpoint_parallel(io::ChunkSink& out, Epoch epoch,
                                  std::span<void* const> roots,
                                  const PlanExecutor& exec, unsigned threads,
                                  core::Mode mode,
                                  obs::CaptureProfile* profile) {
  const std::size_t nroots = roots.size();
  if (static_cast<std::size_t>(threads) > nroots)
    threads = static_cast<unsigned>(nroots == 0 ? 1 : nroots);
  if (threads <= 1) {
    io::DataWriter d(out);
    run_plan_checkpoint(d, epoch, roots, exec, mode, profile);
    d.flush();
    return;
  }

  // Work items finer than the worker count (the generic driver's
  // granularity) so a skewed root range cannot strand one worker with most
  // of the records. Plans describe trees, so item-order concatenation
  // reproduces the serial layout byte for byte.
  const auto ranges = core::root_ranges(
      nroots, threads * core::ParallelCheckpoint::kItemsPerThread);
  core::ShardRunOptions ropts;
  ropts.threads = threads;
  core::run_sharded_capture(
      out,
      [&](io::DataWriter& w) {
        core::write_stream_header(w, mode, epoch, roots, root_id(exec.plan()));
      },
      ranges.size(), ropts, profile,
      [&](std::size_t i, io::DataWriter& w, obs::CaptureProfile* prof) {
        if (prof != nullptr) prof->shards = 1;
        for (std::size_t r = ranges[i].first; r < ranges[i].second; ++r)
          exec.run(roots[r], w, prof);
      });
}

}  // namespace ickpt::spec
