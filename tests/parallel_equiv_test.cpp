// Serial-equivalence harness for sharded parallel capture: the correctness
// contract of core::ParallelCheckpoint is enforced here, not by review.
//
// Two tiers of equivalence, per the cycle_guard contract:
//  - guard off (paper assumption: acyclic, unshared): the merged parallel
//    stream must be BYTE-IDENTICAL to the serial stream for every thread
//    count — shard segments are serial record runs and the merge is
//    shard-ordered.
//  - guard on, with cross-root sharing and cycles: record placement may
//    differ (the claim table awards a shared object to whichever shard
//    claims it first), so the assertion is observational — the parallel
//    stream must RECOVER to a graph value-identical to the serial stream's,
//    and per-shard CheckpointStats must sum to the serial totals.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "core/parallel_checkpoint.hpp"
#include "core/recovery.hpp"
#include "core/segment_merge.hpp"
#include "core/type_registry.hpp"
#include "core/manager.hpp"
#include "io/data_reader.hpp"
#include "io/file_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spec/adaptive.hpp"
#include "tests/synth_helpers.hpp"
#include "tests/test_types.hpp"

namespace ickpt::testing {
namespace {

using core::ParallelCheckpoint;
using core::ParallelOptions;
using core::ParallelStats;

constexpr unsigned kMaxThreads = 8;

std::vector<std::uint8_t> parallel_bytes(
    std::span<core::Checkpointable* const> roots, Epoch epoch,
    const ParallelOptions& popts, ParallelStats* out = nullptr) {
  io::ChunkPool pool;
  io::ChunkSink sink(pool);
  ParallelStats stats = ParallelCheckpoint::run(sink, epoch, roots, popts);
  if (out != nullptr) *out = stats;
  return sink.to_vector();
}

std::vector<std::uint8_t> serial_bytes(
    std::span<core::Checkpointable* const> roots, Epoch epoch, core::Mode mode,
    bool cycle_guard, core::CheckpointStats* out = nullptr) {
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = mode;
    opts.cycle_guard = cycle_guard;
    core::CheckpointStats stats =
        core::Checkpoint::run(writer, epoch, roots, opts);
    writer.flush();
    if (out != nullptr) *out = stats;
  }
  return sink.take();
}

/// Replay one or more checkpoint payloads (full first) into a fresh graph.
core::RecoveredState recover_payloads(
    const std::vector<std::vector<std::uint8_t>>& payloads,
    const core::TypeRegistry& registry) {
  core::Recovery recovery(registry);
  for (const auto& payload : payloads) {
    io::DataReader reader(payload);
    recovery.apply(reader);
  }
  return recovery.finish();
}

ObjectId id_or_null(const core::Checkpointable* obj) {
  return obj != nullptr ? obj->info().id() : kNullObjectId;
}

/// Value-and-topology identity of two recovered synth graphs: same roots,
/// same id set, and per id the same scalars and the same child ids. Ids are
/// preserved by recovery, so this is exactly "the serial stream and the
/// parallel stream describe the same state".
void expect_states_identical(const core::RecoveredState& a,
                             const core::RecoveredState& b,
                             const std::string& context) {
  ASSERT_EQ(a.epoch, b.epoch) << context;
  ASSERT_EQ(a.roots, b.roots) << context;
  ASSERT_EQ(a.by_id.size(), b.by_id.size()) << context;
  for (const auto& [id, obj] : a.by_id) {
    core::Checkpointable* other = b.find(id);
    ASSERT_NE(other, nullptr) << context << ": id " << id << " missing";
    ASSERT_EQ(obj->type_id(), other->type_id()) << context << ": id " << id;
    if (const auto* ea = dynamic_cast<const synth::ListElem*>(obj)) {
      const auto* eb = dynamic_cast<const synth::ListElem*>(other);
      ASSERT_NE(eb, nullptr) << context;
      ASSERT_EQ(ea->nvals(), eb->nvals()) << context << ": id " << id;
      for (std::int32_t i = 0; i < ea->nvals(); ++i)
        ASSERT_EQ(ea->value(i), eb->value(i))
            << context << ": id " << id << " value " << i;
      ASSERT_EQ(id_or_null(ea->next()), id_or_null(eb->next()))
          << context << ": id " << id << " next";
    } else if (const auto* ca = dynamic_cast<const synth::Compound*>(obj)) {
      const auto* cb = dynamic_cast<const synth::Compound*>(other);
      ASSERT_NE(cb, nullptr) << context;
      for (int i = 0; i < synth::Compound::kLists; ++i)
        ASSERT_EQ(id_or_null(ca->list(i)), id_or_null(cb->list(i)))
            << context << ": id " << id << " list " << i;
    } else {
      FAIL() << context << ": unexpected type in recovered synth graph";
    }
  }
}

core::CheckpointStats sum_shards(const ParallelStats& stats) {
  core::CheckpointStats sum;
  for (const core::ShardStats& s : stats.shard_stats) {
    sum.objects_visited += s.stats.objects_visited;
    sum.objects_recorded += s.stats.objects_recorded;
  }
  return sum;
}

/// Randomized tree-shaped workloads (the paper's assumption): the merged
/// parallel stream must equal the serial stream byte for byte, and the
/// per-shard stats must sum to the serial stats, for 1..8 threads.
TEST(ParallelEquivalence, ByteIdenticalOnUnsharedGraphs) {
  std::mt19937_64 rng(20260806);
  for (int trial = 0; trial < 4; ++trial) {
    synth::SynthConfig config;
    config.num_structures = 37 + static_cast<std::size_t>(rng() % 400);
    config.list_length = 1 + static_cast<int>(rng() % 6);
    config.values_per_elem = 1 + static_cast<int>(rng() % 10);
    config.modified_lists = 1 + static_cast<int>(rng() % synth::Compound::kLists);
    config.percent_modified = static_cast<int>(rng() % 101);
    config.seed = rng();
    core::Heap heap;
    synth::SynthWorkload workload(heap, config);
    workload.reset_flags();
    workload.mutate();
    auto flags = workload.save_flags();

    for (core::Mode mode : {core::Mode::kIncremental, core::Mode::kFull}) {
      workload.restore_flags(flags);
      core::CheckpointStats serial_stats;
      auto serial = serial_bytes(workload.root_bases(), 7, mode,
                                 /*cycle_guard=*/false, &serial_stats);
      for (unsigned threads = 1; threads <= kMaxThreads; ++threads) {
        const std::string context =
            "trial " + std::to_string(trial) + " mode " +
            std::to_string(static_cast<int>(mode)) + " threads " +
            std::to_string(threads);
        ParallelOptions popts;
        popts.mode = mode;
        popts.threads = threads;
        workload.restore_flags(flags);
        ParallelStats pstats;
        auto parallel = parallel_bytes(workload.root_bases(), 7, popts,
                                       &pstats);
        EXPECT_EQ(parallel, serial) << context;
        EXPECT_EQ(pstats.totals.objects_visited, serial_stats.objects_visited)
            << context;
        EXPECT_EQ(pstats.totals.objects_recorded,
                  serial_stats.objects_recorded)
            << context;
        if (threads > 1) {
          core::CheckpointStats sum = sum_shards(pstats);
          EXPECT_EQ(sum.objects_visited, serial_stats.objects_visited)
              << context;
          EXPECT_EQ(sum.objects_recorded, serial_stats.objects_recorded)
              << context;
          EXPECT_EQ(pstats.threads_used, threads) << context;
          EXPECT_GE(pstats.shards, static_cast<std::size_t>(threads))
              << context;
        }
      }
    }
  }
}

/// Workload with cross-root sharing and cycles, captured under cycle_guard:
/// a full checkpoint plus an incremental delta from each engine must recover
/// to value-identical graphs, and shard stats must sum to serial stats.
TEST(ParallelEquivalence, RecoversIdenticallyOnSharedCyclicGraphs) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 3; ++trial) {
    synth::SynthConfig config;
    config.num_structures = 61 + static_cast<std::size_t>(rng() % 200);
    config.list_length = 2 + static_cast<int>(rng() % 4);
    config.values_per_elem = 1 + static_cast<int>(rng() % 6);
    config.percent_modified = 40;
    // mutate() walks lists 0..modified_lists-1 by next-pointer; keep it off
    // list 2, which the surgery below turns cyclic.
    config.modified_lists = 2;
    config.seed = rng();
    core::Heap heap;
    synth::SynthWorkload workload(heap, config);
    auto roots = workload.roots();
    const std::size_t n = roots.size();
    // Cross-root sharing: every 5th compound adopts a list owned by a
    // compound in a *different* shard neighborhood (far index), so shards
    // race for the shared chains through the claim table.
    for (std::size_t i = 0; i < n; i += 5) {
      const std::size_t j = (i + n / 2 + 1) % n;
      roots[i]->set_list(0, roots[j]->list(1));
    }
    // Cycles: every 7th compound's list 2 loops back onto its own head.
    for (std::size_t i = 0; i < n; i += 7) {
      synth::ListElem* head = roots[i]->list(2);
      synth::ListElem* tail = head;
      while (tail->next() != nullptr) tail = tail->next();
      tail->set_next(head);
    }
    auto flags_full = workload.save_flags();
    workload.reset_flags();
    workload.mutate();
    auto flags_incr = workload.save_flags();

    core::TypeRegistry registry;
    synth::register_types(registry);

    // Serial reference: full (all flags as saved) + incremental delta.
    workload.restore_flags(flags_full);
    core::CheckpointStats serial_full_stats;
    auto serial_full = serial_bytes(workload.root_bases(), 0,
                                    core::Mode::kFull, true,
                                    &serial_full_stats);
    workload.restore_flags(flags_incr);
    core::CheckpointStats serial_incr_stats;
    auto serial_incr = serial_bytes(workload.root_bases(), 1,
                                    core::Mode::kIncremental, true,
                                    &serial_incr_stats);
    auto serial_state = recover_payloads({serial_full, serial_incr}, registry);

    for (unsigned threads = 1; threads <= kMaxThreads; ++threads) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " threads " + std::to_string(threads);
      ParallelOptions popts;
      popts.cycle_guard = true;
      popts.threads = threads;
      popts.mode = core::Mode::kFull;
      workload.restore_flags(flags_full);
      ParallelStats full_stats;
      auto par_full = parallel_bytes(workload.root_bases(), 0, popts,
                                     &full_stats);
      popts.mode = core::Mode::kIncremental;
      workload.restore_flags(flags_incr);
      ParallelStats incr_stats;
      auto par_incr = parallel_bytes(workload.root_bases(), 1, popts,
                                     &incr_stats);

      EXPECT_EQ(full_stats.totals.objects_visited,
                serial_full_stats.objects_visited)
          << context;
      EXPECT_EQ(full_stats.totals.objects_recorded,
                serial_full_stats.objects_recorded)
          << context;
      EXPECT_EQ(incr_stats.totals.objects_visited,
                serial_incr_stats.objects_visited)
          << context;
      EXPECT_EQ(incr_stats.totals.objects_recorded,
                serial_incr_stats.objects_recorded)
          << context;
      if (threads > 1) {
        core::CheckpointStats sum = sum_shards(full_stats);
        EXPECT_EQ(sum.objects_visited, serial_full_stats.objects_visited)
            << context;
        EXPECT_EQ(sum.objects_recorded, serial_full_stats.objects_recorded)
            << context;
      }

      auto parallel_state = recover_payloads({par_full, par_incr}, registry);
      expect_states_identical(serial_state, parallel_state, context);
    }
  }
}

/// The specialized engine's sharded runner: plans describe trees, so the
/// parallel plan stream must be byte-identical to the serial plan stream —
/// which the existing property suite already ties to the generic stream.
TEST(ParallelEquivalence, PlanExecutorShardedIsByteIdentical) {
  synth::SynthConfig config;
  config.num_structures = 300;
  config.list_length = 4;
  config.values_per_elem = 6;
  config.modified_lists = 3;
  config.percent_modified = 50;
  core::Heap heap;
  synth::SynthWorkload workload(heap, config);
  workload.reset_flags();
  workload.mutate();
  auto flags = workload.save_flags();

  synth::SynthShapes shapes = synth::SynthShapes::make();
  spec::Plan plan = compile_synth_plan(shapes, config,
                                       synth::SpecLevel::kModifiedLists);
  spec::PlanExecutor exec(plan);
  workload.restore_flags(flags);
  auto serial = plan_bytes(workload, exec, 3);

  io::ChunkPool pool;
  for (unsigned threads = 1; threads <= kMaxThreads; ++threads) {
    workload.restore_flags(flags);
    io::ChunkSink sink(pool);
    spec::run_plan_checkpoint_parallel(sink, 3, workload.root_ptrs(), exec,
                                       threads);
    EXPECT_EQ(sink.to_vector(), serial) << "threads " << threads;
  }
}

/// AdaptiveCheckpointer with sharded specialized capture: the staged stream
/// stays byte-identical to the serial adaptive stream across the
/// observe -> specialize transition, and structural drift still falls back.
TEST(ParallelEquivalence, AdaptiveShardedMatchesSerialAndFallsBack) {
  synth::SynthConfig config;
  config.num_structures = 120;
  config.list_length = 3;
  config.values_per_elem = 4;
  core::Heap heap, heap2;
  synth::SynthWorkload workload(heap, config);
  synth::SynthWorkload mirror(heap2, config);
  synth::SynthShapes shapes = synth::SynthShapes::make();

  spec::AdaptiveCheckpointer::Options serial_opts;
  spec::AdaptiveCheckpointer::Options parallel_opts;
  parallel_opts.capture_threads = 4;
  spec::AdaptiveCheckpointer serial_ckpt(*shapes.compound, serial_opts);
  spec::AdaptiveCheckpointer parallel_ckpt(*shapes.compound, parallel_opts);

  // The two workloads hold distinct object ids, so compare per-epoch stream
  // *shapes* via stage/fallback bookkeeping and self-consistency: each
  // engine's stream must equal its own generic driver's stream.
  for (Epoch epoch = 0; epoch < 8; ++epoch) {
    for (auto* w : {&workload, &mirror}) {
      w->reset_flags();
      w->mutate();
    }
    auto run_one = [epoch](spec::AdaptiveCheckpointer& ckpt,
                           synth::SynthWorkload& w) {
      auto flags = w.save_flags();
      auto generic = generic_bytes(w, epoch);
      w.restore_flags(flags);
      io::VectorSink sink;
      {
        io::DataWriter writer(sink);
        spec::AdaptiveCheckpointer::Roots roots{w.root_bases(),
                                                w.root_ptrs()};
        ckpt.checkpoint(writer, epoch, roots);
        writer.flush();
      }
      EXPECT_EQ(sink.bytes(), generic) << "epoch " << epoch;
      return sink.take();
    };
    run_one(serial_ckpt, workload);
    run_one(parallel_ckpt, mirror);
    EXPECT_EQ(serial_ckpt.stage(), parallel_ckpt.stage())
        << "epoch " << epoch;
  }
  EXPECT_EQ(parallel_ckpt.stage(),
            spec::AdaptiveCheckpointer::Stage::kSpecialized);

  // Structural drift: grow a list beyond the declared length — the sharded
  // plan must abort cleanly (no partial caller stream) and fall back.
  synth::ListElem* extra = heap2.make<synth::ListElem>(2);
  synth::ListElem* head = mirror.roots()[5]->list(0);
  while (head->next() != nullptr) head = head->next();
  head->set_next(extra);
  io::VectorSink sink;
  {
    io::DataWriter writer(sink);
    spec::AdaptiveCheckpointer::Roots roots{mirror.root_bases(),
                                            mirror.root_ptrs()};
    auto result = parallel_ckpt.checkpoint(writer, 99, roots);
    writer.flush();
    EXPECT_TRUE(result.fell_back);
  }
  EXPECT_EQ(parallel_ckpt.stage(),
            spec::AdaptiveCheckpointer::Stage::kObserving);
}

/// End to end through the manager: capture_threads=4 takes over several
/// epochs land frames whose recovery matches the live graph.
TEST(ParallelEquivalence, ManagerCaptureThreadsRecoversLiveState) {
  const std::string path =
      ::testing::TempDir() + "/ickpt_parallel_equiv_manager.log";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());

  synth::SynthConfig config;
  config.num_structures = 150;
  config.list_length = 3;
  config.values_per_elem = 5;
  config.percent_modified = 30;
  core::Heap heap;
  synth::SynthWorkload workload(heap, config);

  core::ManagerOptions mopts;
  mopts.full_interval = 3;
  mopts.capture_threads = 4;
  core::CheckpointManager manager(path, mopts);
  for (int epoch = 0; epoch < 7; ++epoch) {
    if (epoch > 0) workload.mutate();
    auto result = manager.take(workload.root_bases());
    EXPECT_EQ(result.stats.objects_visited, workload.total_objects());
  }

  core::TypeRegistry registry;
  synth::register_types(registry);
  auto recovered = core::CheckpointManager::recover(path, registry);
  EXPECT_TRUE(recovered.log_clean);
  ASSERT_EQ(recovered.state.roots.size(), workload.roots().size());
  for (std::size_t i = 0; i < workload.roots().size(); ++i) {
    const synth::Compound* live = workload.roots()[i];
    ASSERT_EQ(recovered.state.roots[i], live->info().id());
    const auto* rec = dynamic_cast<const synth::Compound*>(
        recovered.state.find(live->info().id()));
    ASSERT_NE(rec, nullptr);
    for (int l = 0; l < synth::Compound::kLists; ++l) {
      const synth::ListElem* le = live->list(l);
      const synth::ListElem* re = rec->list(l);
      while (le != nullptr) {
        ASSERT_NE(re, nullptr);
        ASSERT_EQ(le->info().id(), re->info().id());
        ASSERT_EQ(le->nvals(), re->nvals());
        for (std::int32_t v = 0; v < le->nvals(); ++v)
          ASSERT_EQ(le->value(v), re->value(v));
        le = le->next();
        re = re->next();
      }
      ASSERT_EQ(re, nullptr);
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

/// Log paths in the test temp directory, removed before and after.
struct ScratchLogs {
  std::vector<std::string> paths;
  explicit ScratchLogs(std::vector<std::string> names) {
    for (const std::string& name : names)
      paths.push_back(::testing::TempDir() + "/" + name);
    clean();
  }
  ~ScratchLogs() { clean(); }
  ScratchLogs(const ScratchLogs&) = delete;
  ScratchLogs& operator=(const ScratchLogs&) = delete;

  void clean() const {
    for (const std::string& p : paths) {
      std::remove(p.c_str());
      std::remove((p + ".bak").c_str());
    }
  }
};

/// A synth heap past four capture threads' worth of objects: 2,600
/// compounds x 26 objects = 67,600, a quarter of list 0 dirtied per epoch.
synth::SynthConfig auto_pick_heap() {
  synth::SynthConfig config;
  config.num_structures = 2600;
  config.modified_lists = 1;
  config.percent_modified = 25;
  return config;
}

/// The default manager (ManagerOptions::kAutoThreads) sizes each take on
/// its own, so past its first take it shards this heap, and a reopened
/// manager's first full take shards from the log's largest frame. Its log
/// must be byte-identical to a manager pinned to the serial driver, fed the
/// same dirty state epoch by epoch, across a close and reopen of both.
TEST(ParallelEquivalence, AutoThreadsManagerLogMatchesSerialManager) {
  const ScratchLogs logs({"ickpt_parallel_equiv_auto.log",
                          "ickpt_parallel_equiv_serial.log"});
  core::Heap heap;
  synth::SynthWorkload workload(heap, auto_pick_heap());
  ASSERT_GE(workload.total_objects(), 36000u);

  // Epochs 0 and 3 are full; the reopen lands right before epoch 3.
  core::ManagerOptions auto_opts;
  auto_opts.full_interval = 3;
  core::ManagerOptions serial_opts = auto_opts;
  serial_opts.capture_threads = 1;
  int epoch = 0;
  for (const int stop : {3, 6}) {
    core::CheckpointManager auto_manager(logs.paths[0], auto_opts);
    core::CheckpointManager serial_manager(logs.paths[1], serial_opts);
    for (; epoch < stop; ++epoch) {
      if (epoch > 0) workload.mutate();
      const std::vector<bool> flags = workload.save_flags();
      const core::TakeResult a = auto_manager.take(workload.root_bases());
      workload.restore_flags(flags);
      const core::TakeResult s = serial_manager.take(workload.root_bases());
      EXPECT_EQ(a.mode, s.mode) << "epoch " << epoch;
      EXPECT_EQ(a.bytes, s.bytes) << "epoch " << epoch;
      EXPECT_EQ(a.stats.objects_recorded, s.stats.objects_recorded)
          << "epoch " << epoch;
    }
  }
  const std::vector<std::uint8_t> auto_log = io::read_file(logs.paths[0]);
  ASSERT_FALSE(auto_log.empty());
  EXPECT_TRUE(auto_log == io::read_file(logs.paths[1]))
      << "the auto-threaded log differs from the serial one";
}

/// A node folding any number of children: shapes heaps sharded capture can
/// or cannot split.
class Hub final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 951;

  std::vector<core::Checkpointable*> kids;

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }

  void record(io::DataWriter& d) const override {
    d.write_varint(kids.size());
    for (const core::Checkpointable* k : kids) core::write_child_id(d, k);
  }

  void fold(core::Checkpoint& c) override {
    for (core::Checkpointable* k : kids) c.checkpoint(*k);
  }

  void restore_record(io::DataReader& d, core::Recovery&) override {
    const std::uint64_t n = d.read_varint();
    for (std::uint64_t i = 0; i < n; ++i) (void)d.read_varint();
  }
};

/// The pool runs on no more threads than it has items that walk; a split
/// root's own record keeps no thread busy. One root over a single child
/// cannot be split and captures serially at any thread count, and two
/// children feed two threads at most. The bytes are the serial walk's
/// either way.
TEST(ParallelEquivalence, ThreadsFollowTheItemsThatWalk) {
  core::Heap heap;
  Hub* hub = heap.make<Hub>();
  for (int i = 0; i < 64; ++i) hub->kids.push_back(heap.make<Leaf>());
  Hub* narrow = heap.make<Hub>();
  narrow->kids = {hub};
  Hub* pair = heap.make<Hub>();
  pair->kids = {heap.make<Leaf>(), hub};

  for (const auto& [root, walks] :
       {std::pair<Hub*, unsigned>{narrow, 1}, {pair, 2}}) {
    const std::vector<core::Checkpointable*> roots{root};
    const auto serial = serial_bytes(roots, 3, core::Mode::kFull,
                                     /*cycle_guard=*/false);
    for (unsigned threads = 2; threads <= kMaxThreads; ++threads) {
      const std::string context = "walks " + std::to_string(walks) +
                                  " threads " + std::to_string(threads);
      ParallelOptions popts;
      popts.mode = core::Mode::kFull;
      popts.threads = threads;
      ParallelStats stats;
      EXPECT_EQ(parallel_bytes(roots, 3, popts, &stats), serial) << context;
      EXPECT_EQ(stats.threads_used, std::min(threads, walks)) << context;
      EXPECT_EQ(stats.shard_stats.empty(), walks == 1) << context;
    }
  }
}

std::size_t parallel_spans(const std::vector<obs::TraceEvent>& events) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [](const auto& ev) {
        return std::string(ev.name) == "checkpoint.parallel";
      }));
}

/// A metrics registry and a trace collector installed for one scope.
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
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
};

/// Compaction rewrites each kept state as a full frame, sharded with the
/// full-take pick from the size of the frame it recovered the state from.
/// The frame it writes must carry the payload the serial walker writes for
/// the same recovered state.
TEST(ParallelEquivalence, CompactionRewriteMatchesSerialCapture) {
  const ScratchLogs logs({"ickpt_parallel_equiv_compact.log"});
  ScopedObs obs_scope;
  core::Heap heap;
  synth::SynthWorkload workload(heap, auto_pick_heap());
  ASSERT_GE(workload.total_objects(), 36000u);
  {
    core::CheckpointManager manager(logs.paths[0]);
    for (int epoch = 0; epoch < 4; ++epoch) {
      if (epoch > 0) workload.mutate();
      (void)manager.take(workload.root_bases());
    }
  }
  core::TypeRegistry registry;
  synth::register_types(registry);
  // The state compaction will keep, recovered once more on the side and
  // captured by the serial walker.
  core::RecoverResult recovered =
      core::CheckpointManager::recover(logs.paths[0], registry);
  std::vector<core::Checkpointable*> roots;
  for (ObjectId id : recovered.state.roots)
    roots.push_back(recovered.state.find(id));
  const std::vector<std::uint8_t> serial =
      serial_bytes(roots, recovered.state.epoch, core::Mode::kFull,
                   /*cycle_guard=*/false);
  (void)obs_scope.collector.drain();

  const core::CompactResult compacted =
      core::CheckpointManager::compact(logs.paths[0], registry);
  if (core::usable_cpus() >= 2) {
    EXPECT_EQ(parallel_spans(obs_scope.collector.drain()), 1u)
        << "a rewrite this large shards";
  }
  const io::ScanResult scan = io::StableStorage::scan(logs.paths[0]);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(compacted.bytes_after, serial.size());
  EXPECT_TRUE(scan.frames[0].payload == serial)
      << "the compacted frame differs from the serial capture";
}

/// A manager's first take on an empty log has nothing to size from and
/// runs serially; the next one shards on capture_threads_for(what the first
/// visited) threads. A pinned count of 1 never shards.
TEST(ParallelEquivalence, AutoThreadsFirstTakeOnAnEmptyLogIsSerial) {
  const ScratchLogs logs({"ickpt_parallel_equiv_pick.log",
                          "ickpt_parallel_equiv_pinned.log"});
  ScopedObs obs_scope;
  obs::TraceCollector& collector = obs_scope.collector;

  core::Heap heap;
  synth::SynthWorkload workload(heap, auto_pick_heap());
  {
    core::CheckpointManager manager(logs.paths[0]);
    const core::TakeResult first = manager.take(workload.root_bases());
    EXPECT_EQ(first.mode, core::Mode::kFull);
    EXPECT_EQ(parallel_spans(collector.drain()), 0u)
        << "the first take on an empty log has no measurement and must run "
           "serially";
    if (core::usable_cpus() >= 2) {
      workload.mutate();
      (void)manager.take(workload.root_bases());
      EXPECT_EQ(parallel_spans(collector.drain()), 1u);
      const unsigned expected =
          core::capture_threads_for(first.stats.objects_visited);
      EXPECT_GE(expected, 2u);
      const obs::Snapshot snapshot = obs_scope.registry.snapshot();
      const obs::MetricSnapshot* threads =
          snapshot.find("ickpt_capture_threads");
      ASSERT_NE(threads, nullptr);
      EXPECT_EQ(threads->gauge_value, static_cast<std::int64_t>(expected));
    }
  }
  {
    core::ManagerOptions pinned;
    pinned.capture_threads = 1;
    core::CheckpointManager manager(logs.paths[1], pinned);
    for (int epoch = 0; epoch < 3; ++epoch) {
      workload.mutate();
      (void)manager.take(workload.root_bases());
    }
    EXPECT_EQ(parallel_spans(collector.drain()), 0u)
        << "capture_threads = 1 must stay on the serial driver";
  }
}

/// A full capture's cost is its bytes. A manager that reopens a log whose
/// largest frame is past two threads' worth of bytes shards its first
/// (full) take on full_capture_threads_for(that frame's bytes) threads.
TEST(ParallelEquivalence, AutoThreadsReopenedFullTakeShardsFromTheLog) {
  if (core::usable_cpus() < 2) GTEST_SKIP() << "needs 2 usable CPUs";
  const ScratchLogs logs({"ickpt_parallel_equiv_reopen.log"});
  ScopedObs obs_scope;
  obs::TraceCollector& collector = obs_scope.collector;

  core::Heap heap;
  synth::SynthWorkload workload(heap, auto_pick_heap());
  std::size_t full_bytes = 0;
  {
    core::CheckpointManager manager(logs.paths[0]);
    full_bytes = manager.take(workload.root_bases()).bytes;
  }
  const unsigned expected = core::full_capture_threads_for(full_bytes);
  ASSERT_GE(expected, 2u) << full_bytes << " byte(s) should shard";
  (void)collector.drain();

  core::CheckpointManager manager(logs.paths[0]);
  workload.mutate();
  const core::TakeResult taken =
      manager.take_with_mode(workload.root_bases(), core::Mode::kFull);
  EXPECT_EQ(taken.epoch, 1u);
  EXPECT_EQ(parallel_spans(collector.drain()), 1u)
      << "a reopened log's first full take must shard";
  const obs::Snapshot snapshot = obs_scope.registry.snapshot();
  const obs::MetricSnapshot* threads = snapshot.find("ickpt_capture_threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->gauge_value, static_cast<std::int64_t>(expected));
}

/// Under the default, a heap that hangs off the only child of its only
/// root captures serially however many objects it has: sharded capture has
/// nothing to split it into.
TEST(ParallelEquivalence, AutoThreadsLeaveANarrowHeapSerial) {
  const ScratchLogs logs({"ickpt_parallel_equiv_narrow.log"});
  ScopedObs obs_scope;
  core::Heap heap;
  Hub* hub = heap.make<Hub>();
  std::vector<Leaf*> leaves;
  for (int i = 0; i < 40000; ++i) {
    leaves.push_back(heap.make<Leaf>());
    hub->kids.push_back(leaves.back());
  }
  Hub* root = heap.make<Hub>();
  root->kids = {hub};

  core::CheckpointManager manager(logs.paths[0]);
  const core::TakeResult first = manager.take(*root);
  // The object count alone would shard the next take.
  EXPECT_GE(core::capture_threads_for(first.stats.objects_visited, 4), 2u);
  for (int epoch = 1; epoch < 3; ++epoch) {
    for (std::size_t i = epoch; i < leaves.size(); i += 4)
      leaves[i]->set_i32(epoch);
    const core::TakeResult taken = manager.take(*root);
    EXPECT_EQ(taken.stats.objects_recorded, leaves.size() / 4)
        << "epoch " << epoch;
  }
  EXPECT_EQ(parallel_spans(obs_scope.collector.drain()), 0u);
}

/// The bytes pick follows the same rules: serial below two threads' worth
/// of bytes, more threads for more bytes, never more than four or the CPUs
/// there are.
TEST(CaptureThreadsPick, FullCapturesPickFromTheirBytes) {
  for (unsigned cpus : {1u, 2u, 3u, 4u, 8u, 64u}) {
    SCOPED_TRACE("cpus " + std::to_string(cpus));
    EXPECT_EQ(core::full_capture_threads_for(0, cpus), 1u);
    EXPECT_EQ(core::full_capture_threads_for(std::uint64_t{1} << 30, cpus),
              std::min(4u, cpus));
    unsigned last = 1;
    for (std::uint64_t bytes = 1024; bytes <= (std::uint64_t{1} << 24);
         bytes *= 2) {
      const unsigned pick = core::full_capture_threads_for(bytes, cpus);
      EXPECT_GE(pick, last) << bytes << " byte(s)";
      EXPECT_NE(pick, 0u);
      last = pick;
    }
  }
  // 26 MB, synth-capture's full payload, takes the widest pick.
  EXPECT_EQ(core::full_capture_threads_for(26'000'000, 4), 4u);
  EXPECT_EQ(core::full_capture_threads_for(std::uint64_t{1} << 30),
            std::min(4u, core::usable_cpus()));
}

/// One thread per 2^14 objects, serial below two, and never more than four
/// (the widest count measured) or the CPUs there are.
TEST(CaptureThreadsPick, SerialBelowTwoThreadsWorthOfObjects) {
  constexpr std::uint64_t kTwoThreads = std::uint64_t{1} << 15;
  for (unsigned cpus : {1u, 2u, 3u, 4u, 8u, 64u}) {
    SCOPED_TRACE("cpus " + std::to_string(cpus));
    EXPECT_EQ(core::capture_threads_for(0, cpus), 1u);
    EXPECT_EQ(core::capture_threads_for(kTwoThreads - 1, cpus), 1u);
    EXPECT_EQ(core::capture_threads_for(kTwoThreads, cpus),
              std::min(2u, cpus));
    EXPECT_EQ(core::capture_threads_for(3 * kTwoThreads / 2, cpus),
              std::min(3u, cpus));
    EXPECT_EQ(core::capture_threads_for(std::uint64_t{1} << 30, cpus),
              std::min(4u, cpus));
  }
  EXPECT_EQ(core::capture_threads_for(kTwoThreads - 1), 1u);
  EXPECT_EQ(core::capture_threads_for(std::uint64_t{1} << 30),
            std::min(4u, core::usable_cpus()));
}

/// usable_cpus() counts the CPUs this thread may run on, not the CPUs
/// online: narrowed to one CPU, no heap is big enough to shard, by object
/// count or by bytes.
TEST(CaptureThreadsPick, FollowsTheThreadAffinityMask) {
#if defined(__linux__)
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned cpus = core::usable_cpus();
  const unsigned pick = core::capture_threads_for(1 << 20);
  const unsigned full_pick = core::full_capture_threads_for(1 << 30);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(cpus, 1u);
  EXPECT_EQ(pick, 1u);
  EXPECT_EQ(full_pick, 1u);
  EXPECT_EQ(core::usable_cpus(), static_cast<unsigned>(CPU_COUNT(&saved)));
#else
  GTEST_SKIP() << "thread affinity masks are Linux-only";
#endif
}

}  // namespace
}  // namespace ickpt::testing
