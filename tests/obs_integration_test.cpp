// End-to-end telemetry: run real take/flush/recover/compact cycles with the
// registry and collector installed and assert the counter deltas every layer
// must produce, the span tree shape, and the async poison/unobserved-error
// events of satellite instrumentation.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/manager.hpp"
#include "io/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/structures.hpp"
#include "synth/workload.hpp"

using namespace ickpt;

namespace {

std::string temp_log(const char* name) {
  return std::string("/tmp/ickpt_obs_itest_") + name + ".log";
}

core::TypeRegistry synth_registry() {
  core::TypeRegistry registry;
  synth::register_types(registry);
  return registry;
}

std::size_t count_events(const std::vector<obs::TraceEvent>& events,
                         const char* name) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : events)
    if (std::string(ev.name) == name) ++n;
  return n;
}

struct ScopedObs {
  obs::Registry registry;
  obs::TraceCollector collector;
  ScopedObs() {
    obs::Registry::install(&registry);
    obs::TraceCollector::install(&collector);
    (void)collector.drain();
  }
  ~ScopedObs() {
    obs::TraceCollector::install(nullptr);
    obs::Registry::install(nullptr);
  }
};

TEST(ObsIntegration, TakeFlushRecoverCounterDeltas) {
  const std::string path = temp_log("deltas");
  std::remove(path.c_str());
  ScopedObs obs_scope;

  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 32;
  synth::SynthWorkload workload(heap, config);

  constexpr unsigned kEpochs = 6;
  constexpr unsigned kFullInterval = 3;  // epochs 0 and 3 are full
  {
    core::ManagerOptions mopts;
    mopts.full_interval = kFullInterval;
    mopts.async_io = true;
    core::CheckpointManager manager(path, mopts);
    for (unsigned e = 0; e < kEpochs; ++e) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
    manager.flush();
  }

  obs::Snapshot mid = obs_scope.registry.snapshot();
  const auto* full =
      mid.find("ickpt_checkpoints_total", {{"mode", "full"}});
  const auto* incr =
      mid.find("ickpt_checkpoints_total", {{"mode", "incremental"}});
  ASSERT_NE(full, nullptr);
  ASSERT_NE(incr, nullptr);
  EXPECT_EQ(full->counter_value, 2u);   // epochs 0, 3
  EXPECT_EQ(incr->counter_value, 4u);
  EXPECT_EQ(mid.counter_sum("ickpt_async_appends_total"), kEpochs);
  EXPECT_EQ(mid.counter_sum("ickpt_storage_appends_total"), kEpochs);
  EXPECT_GT(mid.counter_sum("ickpt_storage_bytes_written_total"), 0u);
  EXPECT_GT(mid.counter_sum("ickpt_checkpoint_bytes_total"), 0u);

  // Every take visits every object; the full epochs record all of them.
  const std::size_t objects = workload.total_objects();
  const auto* visited = mid.find("ickpt_checkpoint_objects_total",
                                 {{"result", "visited"}});
  ASSERT_NE(visited, nullptr);
  EXPECT_EQ(visited->counter_value, kEpochs * objects);
  const auto* recorded = mid.find("ickpt_checkpoint_objects_total",
                                  {{"result", "recorded"}});
  const auto* skipped = mid.find("ickpt_checkpoint_objects_total",
                                 {{"result", "skipped"}});
  ASSERT_NE(recorded, nullptr);
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(recorded->counter_value + skipped->counter_value,
            visited->counter_value);
  EXPECT_GE(recorded->counter_value, 2u * objects);  // the two full epochs

  const auto* epoch_gauge = mid.find("ickpt_epoch");
  ASSERT_NE(epoch_gauge, nullptr);
  EXPECT_EQ(epoch_gauge->gauge_value,
            static_cast<std::int64_t>(kEpochs - 1));
  const auto* depth = mid.find("ickpt_async_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->gauge_value, 0);  // flushed and joined

  // Recover: one clean recovery applying the window [last full, end).
  auto registry = synth_registry();
  auto result = core::CheckpointManager::recover(path, registry);
  EXPECT_TRUE(result.log_clean);
  EXPECT_EQ(result.checkpoints_applied, kEpochs - kFullInterval);

  obs::Snapshot after = obs_scope.registry.snapshot();
  const auto* clean =
      after.find("ickpt_recoveries_total", {{"log", "clean"}});
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(clean->counter_value, 1u);
  const auto* applied =
      after.find("ickpt_recover_frames_total", {{"result", "applied"}});
  const auto* dropped =
      after.find("ickpt_recover_frames_total", {{"result", "dropped"}});
  ASSERT_NE(applied, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(applied->counter_value, kEpochs - kFullInterval);
  EXPECT_EQ(dropped->counter_value, kFullInterval);
  EXPECT_GT(after.counter_sum("ickpt_recover_records_total"), 0u);
  // Opening storage publishes two scans (one salvage pass over the log,
  // one over its .bak) — both of an absent file here — and recover() adds
  // the one that matters.
  EXPECT_EQ(after.counter_sum("ickpt_scans_total"), 3u);
  EXPECT_EQ(after.counter_sum("ickpt_scan_frames_total"), kEpochs);
  // Clean log: no salvage, no faults, no retries.
  EXPECT_EQ(after.counter_sum("ickpt_recover_salvage_regions_total"), 0u);
  EXPECT_EQ(after.counter_sum("ickpt_storage_faults_total"), 0u);

  // Compact rewrites to one full checkpoint and counts it.
  (void)core::CheckpointManager::compact(path, registry);
  obs::Snapshot compacted = obs_scope.registry.snapshot();
  EXPECT_EQ(compacted.counter_sum("ickpt_compacts_total"), 1u);
  EXPECT_GT(compacted.counter_sum("ickpt_storage_fsyncs_total"), 0u);

  std::remove(path.c_str());
}

TEST(ObsIntegration, SpanTreeShape) {
  const std::string path = temp_log("spans");
  std::remove(path.c_str());
  ScopedObs obs_scope;

  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 8;
  synth::SynthWorkload workload(heap, config);
  {
    core::CheckpointManager manager(path, {.full_interval = 2});
    for (int e = 0; e < 4; ++e) {
      manager.take(workload.root_bases());
      workload.mutate();
    }
  }
  auto registry = synth_registry();
  (void)core::CheckpointManager::recover(path, registry);

  std::vector<obs::TraceEvent> events = obs_scope.collector.drain();
  EXPECT_EQ(count_events(events, "checkpoint.take"), 4u);
  EXPECT_EQ(count_events(events, "storage.append"), 4u);
  EXPECT_EQ(count_events(events, "checkpoint.recover"), 1u);
  // Two scans from opening the log (the log, its .bak) plus the one
  // recover() runs.
  EXPECT_EQ(count_events(events, "storage.scan"), 3u);
  EXPECT_EQ(count_events(events, "recover.apply_window"), 1u);

  // Tree shape: each storage.append nests inside a checkpoint.take
  // (synchronous manager), and scan + apply_window nest inside the recover
  // span. All on one thread, so interval containment is the tree.
  auto find_all = [&](const char* name) {
    std::vector<const obs::TraceEvent*> out;
    for (const obs::TraceEvent& ev : events)
      if (std::string(ev.name) == name) out.push_back(&ev);
    return out;
  };
  auto contains = [](const obs::TraceEvent& parent,
                     const obs::TraceEvent& child) {
    return parent.ts_ns <= child.ts_ns &&
           child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns;
  };
  auto takes = find_all("checkpoint.take");
  for (const obs::TraceEvent* append : find_all("storage.append")) {
    bool nested = false;
    for (const obs::TraceEvent* take : takes)
      if (contains(*take, *append)) nested = true;
    EXPECT_TRUE(nested) << "storage.append outside every checkpoint.take";
  }
  const obs::TraceEvent* recover = find_all("checkpoint.recover")[0];
  bool scan_in_recover = false;
  for (const obs::TraceEvent* scan : find_all("storage.scan"))
    if (contains(*recover, *scan)) scan_in_recover = true;
  EXPECT_TRUE(scan_in_recover) << "no storage.scan inside checkpoint.recover";
  EXPECT_TRUE(contains(*recover, *find_all("recover.apply_window")[0]));
  // take spans carry the mode/epoch note.
  EXPECT_NE(std::string(takes[0]->note).find("full epoch 0"),
            std::string::npos);

  std::remove(path.c_str());
}

TEST(ObsIntegration, AsyncPoisonAndUnobservedErrorCounted) {
  const std::string path = temp_log("poison");
  std::remove(path.c_str());
  ScopedObs obs_scope;

  // Fail the very first append (the header write covers offset 1) with more
  // transient faults than the retry budget, and never drain: the destructor
  // must route the unobserved error through the counters. One take only —
  // a second take() could race the poisoning and observe the error itself.
  io::ScriptedFaultPolicy fault(io::FaultKind::kTransient, 1,
                                /*transient_errno=*/EIO,
                                /*transient_count=*/100);
  core::Heap heap;
  synth::SynthConfig config;
  config.num_structures = 4;
  synth::SynthWorkload workload(heap, config);
  {
    core::ManagerOptions mopts;
    mopts.async_io = true;
    mopts.fault_policy = &fault;
    mopts.retry.max_attempts = 2;
    mopts.retry.initial_backoff = std::chrono::microseconds(0);
    core::CheckpointManager manager(path, mopts);
    manager.take(workload.root_bases());  // append fails in the background
    // Destroy with the error unobserved; the destructor joins the worker
    // first, so the failure is always recorded before the AsyncLog dies.
  }

  obs::Snapshot snap = obs_scope.registry.snapshot();
  EXPECT_EQ(snap.counter_sum("ickpt_async_poisoned_total"), 1u);
  EXPECT_EQ(snap.counter_sum("ickpt_async_unobserved_errors_total"), 1u);
  const auto* retries =
      snap.find("ickpt_storage_retries_total", {{"errno", "EIO"}});
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->counter_value, 0u);
  EXPECT_GT(snap.counter_sum("ickpt_storage_faults_total"), 0u);

  std::vector<obs::TraceEvent> events = obs_scope.collector.drain();
  EXPECT_GE(count_events(events, "async.poisoned"), 1u);
  EXPECT_GE(count_events(events, "async.unobserved_error"), 1u);
  EXPECT_GE(count_events(events, "storage.fault"), 1u);

  std::remove(path.c_str());
}

}  // namespace
