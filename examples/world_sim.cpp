// A long-running "world simulation" with distinct phases — the kind of
// complex, phase-structured program the paper targets — checkpointed with
// the full ickpt stack: intrusive tracking, an adaptive per-phase
// specializer, asynchronous stable storage, log inspection, compaction, and
// crash recovery.
//
// World model: a fixed roster of settlements, each holding a market (price
// table) and a chain of caravans. The simulation alternates phases:
//   * trade phase    — only market prices change
//   * travel phase   — only caravan positions change
//   * census phase   — only settlement populations change
// Each phase gets its own adaptive checkpointer, which learns the phase's
// modification pattern and compiles a residual plan for it.
//
// Build: cmake --build build && ./build/examples/world_sim
#include <cstdio>
#include <random>

#include "core/checkpointable.hpp"
#include "core/log_ops.hpp"
#include "core/manager.hpp"
#include "io/stable_storage.hpp"
#include "spec/adaptive.hpp"
#include "spec/shape.hpp"

using namespace ickpt;

namespace {

// --- world classes ------------------------------------------------------------

class Market final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 1101;
  static constexpr const char* kTypeName = "world.Market";
  static constexpr int kGoods = 8;

  Market() = default;
  Market(core::RestoreTag, ObjectId id) : WithCheckpointInfo(id) {}

  void set_price(int good, std::int32_t price) {
    if (prices_[static_cast<std::size_t>(good)] == price) return;
    prices_[static_cast<std::size_t>(good)] = price;
    info_.set_modified();
  }
  [[nodiscard]] std::int32_t price(int good) const {
    return prices_[static_cast<std::size_t>(good)];
  }

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }
  void record(io::DataWriter& d) const override {
    d.write_i32(ngoods_);
    for (std::int32_t i = 0; i < ngoods_; ++i)
      d.write_i32(prices_[static_cast<std::size_t>(i)]);
  }
  void fold(core::Checkpoint&) override {}
  void restore_record(io::DataReader& d, core::Recovery&) override {
    ngoods_ = d.read_i32();
    for (std::int32_t i = 0; i < ngoods_; ++i)
      prices_[static_cast<std::size_t>(i)] = d.read_i32();
  }

 private:
  friend struct WorldShapes;
  std::int32_t ngoods_ = kGoods;
  std::int32_t prices_[kGoods] = {};
};

class Caravan final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 1102;
  static constexpr const char* kTypeName = "world.Caravan";

  Caravan() = default;
  Caravan(core::RestoreTag, ObjectId id) : WithCheckpointInfo(id) {}

  void move_to(std::int32_t x, std::int32_t y) {
    if (x_ == x && y_ == y) return;
    x_ = x;
    y_ = y;
    info_.set_modified();
  }
  void set_next(Caravan* next) {
    next_ = next;
    info_.set_modified();
  }
  [[nodiscard]] Caravan* next() const { return next_; }
  [[nodiscard]] std::int32_t x() const { return x_; }

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }
  void record(io::DataWriter& d) const override {
    d.write_i32(x_);
    d.write_i32(y_);
    core::write_child_id(d, next_);
  }
  void fold(core::Checkpoint& c) override {
    if (next_ != nullptr) c.checkpoint(*next_);
  }
  void restore_record(io::DataReader& d, core::Recovery& r) override {
    x_ = d.read_i32();
    y_ = d.read_i32();
    r.link(d, next_);
  }

 private:
  friend struct WorldShapes;
  std::int32_t x_ = 0;
  std::int32_t y_ = 0;
  Caravan* next_ = nullptr;
};

class Settlement final : public core::WithCheckpointInfo {
 public:
  static constexpr TypeId kTypeId = 1103;
  static constexpr const char* kTypeName = "world.Settlement";

  Settlement() = default;
  Settlement(core::RestoreTag, ObjectId id) : WithCheckpointInfo(id) {}

  void set_population(std::int32_t p) {
    if (population_ == p) return;
    population_ = p;
    info_.set_modified();
  }
  void set_market(Market* market) {
    market_ = market;
    info_.set_modified();
  }
  void set_caravans(Caravan* head) {
    caravans_ = head;
    info_.set_modified();
  }
  [[nodiscard]] std::int32_t population() const { return population_; }
  [[nodiscard]] Market* market() const { return market_; }
  [[nodiscard]] Caravan* caravans() const { return caravans_; }

  [[nodiscard]] TypeId type_id() const noexcept override { return kTypeId; }
  void record(io::DataWriter& d) const override {
    d.write_i32(population_);
    core::write_child_id(d, market_);
    core::write_child_id(d, caravans_);
  }
  void fold(core::Checkpoint& c) override {
    if (market_ != nullptr) c.checkpoint(*market_);
    if (caravans_ != nullptr) c.checkpoint(*caravans_);
  }
  void restore_record(io::DataReader& d, core::Recovery& r) override {
    population_ = d.read_i32();
    r.link(d, market_);
    r.link(d, caravans_);
  }

 private:
  friend struct WorldShapes;
  std::int32_t population_ = 100;
  Market* market_ = nullptr;
  Caravan* caravans_ = nullptr;
};

struct WorldShapes {
  std::unique_ptr<spec::ShapeDescriptor> market;
  std::unique_ptr<spec::ShapeDescriptor> caravan;
  std::unique_ptr<spec::ShapeDescriptor> settlement;

  static WorldShapes make() {
    WorldShapes shapes;
    {
      Market sample;
      spec::ShapeBuilder<Market> b("world.Market", sample);
      b.i32(&Market::ngoods_);
      b.i32_array(&Market::prices_, &Market::ngoods_);
      shapes.market = b.build();
    }
    {
      Caravan sample;
      spec::ShapeBuilder<Caravan> b("world.Caravan", sample);
      b.i32(&Caravan::x_).i32(&Caravan::y_).self_child(&Caravan::next_);
      shapes.caravan = b.build();
    }
    {
      Settlement sample;
      spec::ShapeBuilder<Settlement> b("world.Settlement", sample);
      b.i32(&Settlement::population_);
      b.child(&Settlement::market_, *shapes.market);
      b.child(&Settlement::caravans_, *shapes.caravan);
      shapes.settlement = b.build();
    }
    return shapes;
  }
};

struct World {
  core::Heap heap;
  std::vector<Settlement*> settlements;
  std::vector<core::Checkpointable*> bases;
  std::vector<void*> concretes;
  std::mt19937_64 rng{7};

  explicit World(int n, int caravans_per) {
    for (int s = 0; s < n; ++s) {
      auto* settlement = heap.make<Settlement>();
      settlement->set_market(heap.make<Market>());
      Caravan* head = nullptr;
      for (int c = 0; c < caravans_per; ++c) {
        auto* caravan = heap.make<Caravan>();
        caravan->set_next(head);
        head = caravan;
      }
      settlement->set_caravans(head);
      settlements.push_back(settlement);
      bases.push_back(settlement);
      concretes.push_back(settlement);
    }
  }

  void reset_flags() {
    for (Settlement* s : settlements) {
      s->info().reset_modified();
      s->market()->info().reset_modified();
      for (Caravan* c = s->caravans(); c != nullptr; c = c->next())
        c->info().reset_modified();
    }
  }

  void trade_tick() {
    std::uniform_int_distribution<std::int32_t> price(1, 500);
    for (Settlement* s : settlements)
      for (int g = 0; g < Market::kGoods; ++g)
        if (rng() % 4 == 0) s->market()->set_price(g, price(rng));
  }

  void travel_tick() {
    std::uniform_int_distribution<std::int32_t> coord(0, 1000);
    for (Settlement* s : settlements)
      for (Caravan* c = s->caravans(); c != nullptr; c = c->next())
        if (rng() % 2 == 0) c->move_to(coord(rng), coord(rng));
  }

  void census_tick() {
    for (Settlement* s : settlements)
      if (rng() % 3 == 0)
        s->set_population(s->population() + static_cast<int>(rng() % 11) - 5);
  }
};

}  // namespace

int main() {
  const std::string log_path = "/tmp/ickpt_world_sim.log";
  std::remove(log_path.c_str());

  World world(/*settlements=*/2000, /*caravans_per=*/4);
  world.reset_flags();
  WorldShapes shapes = WorldShapes::make();

  core::TypeRegistry registry;
  registry.register_type<Settlement>();
  registry.register_type<Market>();
  registry.register_type<Caravan>();

  io::StableStorage storage(log_path);
  // Payload chunks; declared before the async log, whose worker hands the
  // chunks of each appended payload back to it.
  io::ChunkPool pool;
  core::AsyncLog async(storage);

  // One adaptive checkpointer per phase: each learns its phase's pattern.
  spec::AdaptiveCheckpointer::Options aopts;
  aopts.observe_epochs = 2;
  spec::AdaptiveCheckpointer trade_ckpt(*shapes.settlement, aopts);
  spec::AdaptiveCheckpointer travel_ckpt(*shapes.settlement, aopts);
  spec::AdaptiveCheckpointer census_ckpt(*shapes.settlement, aopts);
  spec::AdaptiveCheckpointer::Roots roots{world.bases, world.concretes};

  // Epoch 0: one generic full checkpoint as the recovery base.
  Epoch epoch = 0;
  {
    io::ChunkSink sink(pool);
    io::DataWriter writer(sink);
    core::CheckpointOptions opts;
    opts.mode = core::Mode::kFull;
    core::Checkpoint::run(writer, epoch++, world.bases, opts);
    writer.flush();
    async.submit(std::move(sink));
  }

  auto run_phase = [&](const char* name, spec::AdaptiveCheckpointer& ckpt,
                       auto&& tick, int epochs) {
    for (int e = 0; e < epochs; ++e) {
      tick();
      io::ChunkSink sink(pool);
      io::DataWriter writer(sink);
      auto result = ckpt.checkpoint(writer, epoch++, roots);
      writer.flush();
      async.submit(std::move(sink));
      std::printf("  %-7s epoch %3llu: %7zu bytes (%s)\n", name,
                  (unsigned long long)(epoch - 1), result.bytes,
                  result.stage_used ==
                          spec::AdaptiveCheckpointer::Stage::kSpecialized
                      ? "specialized"
                      : "observing");
    }
    if (ckpt.plan() != nullptr)
      std::printf("  %-7s learned plan: %zu ops\n", name,
                  ckpt.plan()->size());
  };

  std::printf("simulating 3 phases x 5 epochs over %zu settlements "
              "(%zu objects)\n",
              world.settlements.size(), world.heap.size());
  run_phase("trade", trade_ckpt, [&] { world.trade_tick(); }, 5);
  run_phase("travel", travel_ckpt, [&] { world.travel_tick(); }, 5);
  run_phase("census", census_ckpt, [&] { world.census_tick(); }, 5);

  async.drain();

  // Inspect what ended up on disk.
  auto report = core::inspect_log(log_path, registry);
  std::printf("\nlog: %zu checkpoints, %zu bytes total\n",
              report.frames.size(), report.total_bytes);
  std::printf("last frame: %s\n",
              report.frames.back().records_by_type.empty()
                  ? "(no records)"
                  : (report.frames.back().records_by_type[0].first + ":" +
                     std::to_string(
                         report.frames.back().records_by_type[0].second))
                        .c_str());

  // Crash and recover.
  std::int32_t live_population = 0;
  for (Settlement* s : world.settlements) live_population += s->population();

  auto recovered = core::CheckpointManager::recover(log_path, registry);
  std::int32_t recovered_population = 0;
  for (std::size_t i = 0; i < recovered.state.roots.size(); ++i)
    recovered_population +=
        recovered.state.root_as<Settlement>(i)->population();
  std::printf("\nrecovered %zu objects; population live=%d recovered=%d %s\n",
              recovered.state.by_id.size(), live_population,
              recovered_population,
              live_population == recovered_population ? "(match)"
                                                      : "(MISMATCH!)");

  // Compact the 16-checkpoint log down to one full checkpoint.
  auto compacted = core::CheckpointManager::compact(log_path, registry);
  std::printf("compacted log: %zu -> %zu bytes\n", compacted.bytes_before,
              compacted.bytes_after);

  std::remove(log_path.c_str());
  return live_population == recovered_population ? 0 : 1;
}
