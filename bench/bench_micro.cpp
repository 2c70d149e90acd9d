// Micro-benchmarks (google-benchmark) backing the analysis in the paper
// reproduction: stream encoding throughput, CRC, per-object cost of each
// execution engine, flag maintenance, and the cycle-guard overhead that
// justifies keeping it off by default.
#include <benchmark/benchmark.h>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "io/crc32.hpp"
#include "io/data_writer.hpp"
#include "spec/compiler.hpp"
#include "spec/executor.hpp"
#include "synth/residual_dispatch.hpp"
#include "synth/shapes.hpp"
#include "synth/workload.hpp"

namespace {

using namespace ickpt;

void BM_WriteI32(benchmark::State& state) {
  io::CountingSink sink;
  io::DataWriter writer(sink);
  std::int32_t v = 0;
  for (auto _ : state) {
    writer.write_i32(v++);
  }
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_WriteI32);

void BM_WriteVarint(benchmark::State& state) {
  io::CountingSink sink;
  io::DataWriter writer(sink);
  std::uint64_t v = 0;
  for (auto _ : state) {
    writer.write_varint(v++ & 0xFFFFF);
  }
}
BENCHMARK(BM_WriteVarint);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::Crc32::compute(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 63 B never reaches the folded kernel; 4 KiB is an analysis frame; 32 MiB
// (a synth full frame) runs far past L2.
BENCHMARK(BM_Crc32)
    ->Arg(63)
    ->Arg(1 << 10)
    ->Arg(4 << 10)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Arg(32 << 20);

void BM_SetModified(benchmark::State& state) {
  core::CheckpointInfo info;
  for (auto _ : state) {
    info.set_modified();
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_SetModified);

struct EngineFixtureState {
  core::Heap heap;
  std::unique_ptr<synth::SynthWorkload> workload;
  synth::SynthShapes shapes = synth::SynthShapes::make();
  std::vector<bool> flags;

  EngineFixtureState() {
    synth::SynthConfig config;
    config.num_structures = 1000;
    config.list_length = 5;
    config.values_per_elem = 10;
    config.percent_modified = 50;
    workload = std::make_unique<synth::SynthWorkload>(heap, config);
    workload->reset_flags();
    workload->mutate();
    flags = workload->save_flags();
  }

  static EngineFixtureState& instance() {
    static EngineFixtureState state;
    return state;
  }
};

void BM_EngineVirtual(benchmark::State& state) {
  auto& fx = EngineFixtureState::instance();
  for (auto _ : state) {
    fx.workload->restore_flags(fx.flags);
    io::CountingSink sink;
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kIncremental;
    core::Checkpoint::run(writer, 0, fx.workload->root_bases(), opts);
    writer.flush();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.workload->total_objects()));
}
BENCHMARK(BM_EngineVirtual);

void BM_EngineVirtualCycleGuard(benchmark::State& state) {
  auto& fx = EngineFixtureState::instance();
  for (auto _ : state) {
    fx.workload->restore_flags(fx.flags);
    io::CountingSink sink;
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kIncremental;
    opts.cycle_guard = true;
    core::Checkpoint::run(writer, 0, fx.workload->root_bases(), opts);
    writer.flush();
  }
}
BENCHMARK(BM_EngineVirtualCycleGuard);

void BM_EnginePlan(benchmark::State& state) {
  auto& fx = EngineFixtureState::instance();
  spec::Plan plan = spec::PlanCompiler().compile(
      *fx.shapes.compound,
      synth::make_synth_pattern(synth::SpecLevel::kStructure, 5, 10, 5));
  spec::PlanExecutor exec(plan);
  for (auto _ : state) {
    fx.workload->restore_flags(fx.flags);
    io::CountingSink sink;
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, 0, fx.workload->root_ptrs(), exec);
    writer.flush();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.workload->total_objects()));
}
BENCHMARK(BM_EnginePlan);

void BM_EngineInlined(benchmark::State& state) {
  auto& fx = EngineFixtureState::instance();
  auto fn = synth::residual::uniform_fn(5, 10);
  for (auto _ : state) {
    fx.workload->restore_flags(fx.flags);
    io::CountingSink sink;
    io::DataWriter writer(sink);
    synth::residual::run_residual_checkpoint(
        writer, 0, fx.workload->roots(),
        [fn](synth::Compound& c, io::DataWriter& d) { fn(c, d); });
    writer.flush();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fx.workload->total_objects()));
}
BENCHMARK(BM_EngineInlined);

void BM_PlanCompilation(benchmark::State& state) {
  auto& fx = EngineFixtureState::instance();
  for (auto _ : state) {
    spec::Plan plan = spec::PlanCompiler().compile(
        *fx.shapes.compound,
        synth::make_synth_pattern(synth::SpecLevel::kPositions, 5, 10, 3));
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCompilation);

}  // namespace

BENCHMARK_MAIN();
