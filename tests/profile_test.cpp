// Capture profiler: stage attribution across every layer that can feed it.
//
// The invariant under test everywhere: the mark-based attribution makes the
// per-stage times sum to the busy time (the root-walk stage is the
// residual), so `stage_total_ns()` lands within 10% of `busy_ns` for the
// serial walker, the sharded driver, the plan executor, and the full
// manager pipeline — and a profiled capture emits byte-identical output to
// an unprofiled one (the profiler observes, never steers). The
// handle-lifetime regression tests pin the rebind_metrics() contract: obs
// handles bind at construction, a registry installed later sees nothing
// until rebind.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/parallel_checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "io/data_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tests/synth_helpers.hpp"

namespace ickpt::testing {
namespace {

using obs::CaptureProfile;
using P = CaptureProfile;

/// |sum(stages) - busy| <= 10% busy — the acceptance tolerance; in practice
/// the residual construction keeps it near exact.
void expect_stages_cover_busy(const CaptureProfile& p, const char* what) {
  ASSERT_GT(p.busy_ns, 0u) << what;
  const auto sum = static_cast<double>(p.stage_total_ns());
  const auto busy = static_cast<double>(p.busy_ns);
  EXPECT_NEAR(sum / busy, 1.0, 0.10)
      << what << ": stages " << p.stage_total_ns() << "ns vs busy "
      << p.busy_ns << "ns";
}

synth::SynthConfig small_config() {
  synth::SynthConfig config;
  config.num_structures = 64;
  config.percent_modified = 50;
  return config;
}

TEST(CaptureProfileTest, SerialWalkerAttributesEveryStage) {
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());

  CaptureProfile prof;
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kIncremental;
    opts.profile = &prof;
    core::Checkpoint::run(writer, 0, workload.root_bases(), opts);
    writer.flush();
  }

  expect_stages_cover_busy(prof, "serial incremental");
  EXPECT_GT(prof.stage_ns[P::kDirtyTest], 0u);
  EXPECT_GT(prof.stage_ns[P::kSerialize], 0u);
  EXPECT_GT(prof.objects, 0u);
  EXPECT_GT(prof.records, 0u);
  EXPECT_GT(prof.cpu_ns, 0u);
  EXPECT_EQ(prof.epochs, 1u);
  // No sharded machinery engaged on the serial path: one walk, no merge,
  // no claim arbitration.
  EXPECT_EQ(prof.stage_ns[P::kMerge], 0u);
  EXPECT_EQ(prof.stage_ns[P::kClaim], 0u);
  EXPECT_EQ(prof.shards, 1u);
}

TEST(CaptureProfileTest, ProfiledCaptureIsByteIdenticalToUnprofiled) {
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());
  auto flags = workload.save_flags();

  std::vector<std::uint8_t> plain = generic_bytes(workload, 0);
  workload.restore_flags(flags);

  CaptureProfile prof;
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kIncremental;
    opts.profile = &prof;
    core::Checkpoint::run(writer, 0, workload.root_bases(), opts);
    writer.flush();
  }
  EXPECT_EQ(sink.take(), plain);
  EXPECT_GT(prof.busy_ns, 0u);

  // Same property for the sharded driver against its own unprofiled run.
  workload.restore_flags(flags);
  io::ChunkPool pool;
  io::ChunkSink par_plain(pool);
  {
    core::ParallelOptions opts;
    opts.mode = core::Mode::kIncremental;
    opts.threads = 3;
    core::ParallelCheckpoint::run(par_plain, 0, workload.root_bases(), opts);
  }
  workload.restore_flags(flags);
  CaptureProfile par_prof;
  io::ChunkSink par_sink(pool);
  {
    core::ParallelOptions opts;
    opts.mode = core::Mode::kIncremental;
    opts.threads = 3;
    opts.profile = &par_prof;
    core::ParallelCheckpoint::run(par_sink, 0, workload.root_bases(), opts);
  }
  EXPECT_EQ(par_sink.to_vector(), par_plain.to_vector());
  EXPECT_GT(par_prof.busy_ns, 0u);
}

TEST(CaptureProfileTest, ShardedCaptureFoldsShardProfilesAndMerge) {
  core::Heap heap;
  synth::SynthConfig config = small_config();
  config.num_structures = 256;
  synth::SynthWorkload workload(heap, config);

  CaptureProfile prof;
  io::ChunkPool pool;
  io::ChunkSink sink(pool);
  {
    core::ParallelOptions opts;
    opts.mode = core::Mode::kFull;
    opts.threads = 4;
    opts.profile = &prof;
    core::ParallelCheckpoint::run(sink, 0, workload.root_bases(), opts);
  }

  expect_stages_cover_busy(prof, "sharded full");
  EXPECT_GT(prof.shards, 1u) << "shard profiles were folded in";
  // The splice after the join: header, item chains, end tag.
  EXPECT_GT(prof.stage_ns[P::kMerge], 0u);
  EXPECT_GT(sink.size(), 0u);
  EXPECT_GT(prof.objects, 0u);
  EXPECT_EQ(prof.epochs, 1u);
}

TEST(CaptureProfileTest, CycleGuardAccountsClaimArbitration) {
  core::Heap heap;
  synth::SynthConfig config = small_config();
  config.num_structures = 256;
  synth::SynthWorkload workload(heap, config);

  CaptureProfile prof;
  io::ChunkPool pool;
  io::ChunkSink sink(pool);
  {
    core::ParallelOptions opts;
    opts.mode = core::Mode::kFull;
    opts.threads = 4;
    opts.cycle_guard = true;
    opts.profile = &prof;
    core::ParallelCheckpoint::run(sink, 0, workload.root_bases(), opts);
  }

  expect_stages_cover_busy(prof, "sharded cycle-guard");
  EXPECT_GT(prof.claim_attempts, 0u);
  // Synth structures are disjoint trees: every claim is won.
  EXPECT_EQ(prof.claims_lost, 0u);
  EXPECT_GT(prof.visited_probes, 0u);
}

TEST(CaptureProfileTest, PlanExecutorAttributesSerializeAndCounts) {
  core::Heap heap;
  synth::SynthConfig config = small_config();
  synth::SynthWorkload workload(heap, config);
  synth::SynthShapes shapes = synth::SynthShapes::make();
  spec::Plan plan =
      compile_synth_plan(shapes, config, synth::SpecLevel::kStructure);
  spec::PlanExecutor exec(plan);
  // The plan resets modified flags as it serializes; snapshot them so the
  // sharded run below sees the identical dirty state.
  auto flags = workload.save_flags();

  CaptureProfile prof;
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, 0, workload.root_ptrs(), exec,
                              core::Mode::kIncremental, &prof);
    writer.flush();
  }
  expect_stages_cover_busy(prof, "plan serial");
  EXPECT_GT(prof.stage_ns[P::kSerialize], 0u);
  EXPECT_GT(prof.plan_tests, 0u);
  EXPECT_GT(prof.objects, 0u);
  EXPECT_EQ(prof.epochs, 1u);

  // The sharded plan driver folds shard profiles plus the merge stage.
  workload.restore_flags(flags);
  CaptureProfile par;
  io::ChunkPool pool;
  io::ChunkSink par_sink(pool);
  spec::run_plan_checkpoint_parallel(par_sink, 0, workload.root_ptrs(), exec,
                                     /*threads=*/4, core::Mode::kIncremental,
                                     &par);
  expect_stages_cover_busy(par, "plan sharded");
  EXPECT_GT(par.shards, 1u);
  EXPECT_GT(par.stage_ns[P::kMerge], 0u);
  EXPECT_EQ(par_sink.to_vector(), sink.take())
      << "profiled sharded plan output stays byte-identical to serial";
}

class ManagerProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ickpt_profile_mgr_test.log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(ManagerProfileTest, SyncTakeAttributesWriteAndFsync) {
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());
  core::ManagerOptions mopts;
  mopts.profile = true;
  mopts.durable = true;  // fsync per append, so the kFsync stage engages
  core::CheckpointManager manager(path_, mopts);

  manager.take(workload.root_bases());
  const CaptureProfile& prof = manager.last_capture_profile();
  expect_stages_cover_busy(prof, "manager sync durable");
  EXPECT_GT(prof.stage_ns[P::kSerialize], 0u);
  EXPECT_GT(prof.stage_ns[P::kWrite], 0u);
#ifdef __unix__
  EXPECT_GT(prof.stage_ns[P::kFsync], 0u);
#endif
  EXPECT_EQ(prof.epochs, 1u);

  // Each take resets the accumulator: the next profile is one epoch's, not
  // a running total.
  workload.mutate();
  manager.take(workload.root_bases());
  EXPECT_EQ(manager.last_capture_profile().epochs, 1u);
}

TEST_F(ManagerProfileTest, AsyncWriteSlicesLandAtFlush) {
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());
  core::ManagerOptions mopts;
  mopts.profile = true;
  mopts.async_io = true;
  core::CheckpointManager manager(path_, mopts);

  manager.take(workload.root_bases());
  // The background append may still be in flight at take() return; after
  // flush() the worker's write attribution has been merged in.
  manager.flush();
  const CaptureProfile& prof = manager.last_capture_profile();
  EXPECT_GT(prof.stage_ns[P::kWrite], 0u);
  expect_stages_cover_busy(prof, "manager async after flush");
}

TEST_F(ManagerProfileTest, ProfiledTakePublishesStageHistograms) {
  obs::Registry registry;
  obs::Registry::install(&registry);
  {
    core::Heap heap;
    synth::SynthWorkload workload(heap, small_config());
    core::ManagerOptions mopts;
    mopts.profile = true;
    core::CheckpointManager manager(path_, mopts);
    manager.take(workload.root_bases());
  }
  obs::Snapshot snap = registry.snapshot();
  obs::Registry::install(nullptr);

  const obs::MetricSnapshot* serialize = snap.find(
      "ickpt_capture_stage_seconds", {{"stage", "serialize"}});
  ASSERT_NE(serialize, nullptr);
  EXPECT_GT(serialize->count, 0u);
  const obs::MetricSnapshot* walk = snap.find(
      "ickpt_capture_stage_seconds", {{"stage", "root_walk"}});
  ASSERT_NE(walk, nullptr);
  EXPECT_GT(walk->count, 0u);
}

TEST_F(ManagerProfileTest, ProfileOffLeavesLastProfileUntouched) {
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());
  core::CheckpointManager manager(path_, {});
  manager.take(workload.root_bases());
  const CaptureProfile& prof = manager.last_capture_profile();
  EXPECT_EQ(prof.busy_ns, 0u);
  EXPECT_EQ(prof.stage_total_ns(), 0u);
  EXPECT_EQ(prof.epochs, 0u);
}

// --- the handle-lifetime footgun (rebind_metrics) --------------------------

TEST_F(ManagerProfileTest, LateRegistrySeesNothingUntilRebind) {
  // The footgun: hot components bind their metric handles at construction.
  // A registry installed afterwards silently observes nothing — rebind is
  // the explicit, fail-loud fix.
  ASSERT_EQ(obs::Registry::installed(), nullptr);
  core::Heap heap;
  synth::SynthWorkload workload(heap, small_config());
  core::ManagerOptions mopts;
  mopts.async_io = true;
  core::CheckpointManager manager(path_, mopts);

  obs::Registry late;
  obs::Registry::install(&late);
  manager.take(workload.root_bases());
  manager.flush();
  // Construction-bound handles were null when the manager was built.
  EXPECT_EQ(late.snapshot().counter_sum("ickpt_storage_appends_total"), 0u);
  EXPECT_EQ(late.snapshot().counter_sum("ickpt_async_appends_total"), 0u);

  manager.rebind_metrics();
  workload.mutate();
  manager.take(workload.root_bases());
  manager.flush();
  obs::Snapshot snap = late.snapshot();
  obs::Registry::install(nullptr);
  EXPECT_GT(snap.counter_sum("ickpt_storage_appends_total"), 0u);
  EXPECT_GT(snap.counter_sum("ickpt_storage_bytes_written_total"), 0u);
  EXPECT_GT(snap.counter_sum("ickpt_async_appends_total"), 0u);
}

TEST(PlanExecutorRebindTest, LateRegistrySeesNothingUntilRebind) {
  ASSERT_EQ(obs::Registry::installed(), nullptr);
  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 8;
  synth::SynthWorkload workload(heap, config);
  synth::SynthShapes shapes = synth::SynthShapes::make();
  spec::Plan plan =
      compile_synth_plan(shapes, config, synth::SpecLevel::kStructure);
  spec::PlanExecutor exec(plan);

  obs::Registry late;
  obs::Registry::install(&late);
  {
    io::VectorSink sink;
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, 0, workload.root_ptrs(), exec);
    writer.flush();
  }
  EXPECT_EQ(late.snapshot().counter_sum("ickpt_plan_runs_total"), 0u);

  exec.rebind_metrics();
  {
    io::VectorSink sink;
    io::DataWriter writer(sink);
    spec::run_plan_checkpoint(writer, 1, workload.root_ptrs(), exec);
    writer.flush();
  }
  obs::Snapshot snap = late.snapshot();
  obs::Registry::install(nullptr);
  EXPECT_GT(snap.counter_sum("ickpt_plan_runs_total"), 0u);
  EXPECT_GT(snap.counter_sum("ickpt_plan_tests_performed_total"), 0u);
}

TEST(CaptureProfileTest, RenderAndJsonCarryTheAttribution) {
  CaptureProfile p;
  p.stage_ns[P::kRootWalk] = 1000;
  p.stage_ns[P::kSerialize] = 3000;
  p.busy_ns = 4000;
  p.objects = 42;
  const std::string text = p.render();
  EXPECT_NE(text.find("root_walk"), std::string::npos);
  EXPECT_NE(text.find("serialize"), std::string::npos);
  const std::string json = p.to_json();
  EXPECT_NE(json.find("\"busy_ns\""), std::string::npos);
  EXPECT_NE(json.find("root_walk"), std::string::npos);

  CaptureProfile q;
  q.stage_ns[P::kRootWalk] = 500;
  q.busy_ns = 500;
  q.objects = 8;
  q.epochs = 1;
  p.add(q);
  EXPECT_EQ(p.stage_ns[P::kRootWalk], 1500u);
  EXPECT_EQ(p.busy_ns, 4500u);
  EXPECT_EQ(p.objects, 50u);
  p.reset();
  EXPECT_EQ(p.stage_total_ns(), 0u);
  EXPECT_EQ(p.objects, 0u);
}

}  // namespace
}  // namespace ickpt::testing
