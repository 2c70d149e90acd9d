// Exporter-format tests: the Chrome trace_event JSON and the stats JSON
// exposition are parsed with an independent JSON parser (tests/json_lite.hpp)
// instead of substring checks, so a malformed document cannot pass. Covers
// the satellite guarantees: concurrent spans from multiple threads export
// with correct per-thread begin/end pairing and nesting, ring drops surface
// as ickpt_trace_dropped_total, and histogram JSON carries interpolated
// p50/p95/p99.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tests/json_lite.hpp"

namespace ickpt::testing {
namespace {

using obs::Span;
using obs::TraceCollector;
using obs::TraceEvent;

/// Busy-wait so a span/gap is orders of magnitude longer than the
/// exporter's 0.001us timestamp rounding — strict containment checks then
/// cannot be tipped by rounding.
void spin_ns(std::uint64_t ns) {
  const std::uint64_t until = obs::trace_now_ns() + ns;
  while (obs::trace_now_ns() < until) {
  }
}

struct ExportedSpan {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
};

/// Parse a Chrome trace document and return the complete ('X') spans per
/// exported tid, sorted by start time.
std::map<int, std::vector<ExportedSpan>> spans_by_tid(
    const std::string& json) {
  testjson::ValuePtr doc = testjson::parse(json);
  EXPECT_TRUE(doc->is_object());
  const testjson::Value& events = doc->at("traceEvents");
  EXPECT_TRUE(events.is_array());
  std::map<int, std::vector<ExportedSpan>> out;
  for (const testjson::ValuePtr& ev : events.array) {
    EXPECT_TRUE(ev->is_object());
    // Every event, span or instant, carries the required Chrome fields.
    (void)ev->at("name").str();
    (void)ev->at("cat").str();
    (void)ev->at("pid").num();
    (void)ev->at("ts").num();
    if (ev->at("ph").str() != "X") continue;
    ExportedSpan s;
    s.name = ev->at("name").str();
    s.ts_us = ev->at("ts").num();
    s.dur_us = ev->at("dur").num();
    out[static_cast<int>(ev->at("tid").num())].push_back(s);
  }
  for (auto& [tid, spans] : out)
    std::sort(spans.begin(), spans.end(),
              [](const ExportedSpan& a, const ExportedSpan& b) {
                return a.ts_us < b.ts_us;
              });
  return out;
}

TEST(TraceExportTest, ChromeJsonParsesWithRequiredFields) {
  TraceCollector collector;
  TraceCollector::install(&collector);
  {
    Span outer("outer", "test");
    outer.note("with a \"quoted\" note\nand a newline");
    Span inner("inner", "test");
  }
  obs::instant("point", "test", "instant note");
  std::vector<TraceEvent> events = collector.drain();
  TraceCollector::install(nullptr);
  ASSERT_EQ(events.size(), 3u);

  const std::string json = TraceCollector::to_chrome_json(events);
  testjson::ValuePtr doc = testjson::parse(json);  // throws on malformed
  EXPECT_EQ(doc->at("displayTimeUnit").str(), "ms");
  const testjson::Value& trace_events = doc->at("traceEvents");
  ASSERT_TRUE(trace_events.is_array());
  ASSERT_EQ(trace_events.array.size(), 3u);

  std::size_t complete = 0, instants = 0;
  for (const testjson::ValuePtr& ev : trace_events.array) {
    const std::string& ph = ev->at("ph").str();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(ev->at("dur").num(), 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(ev->at("s").str(), "t");
      EXPECT_FALSE(ev->has("dur"));
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  // The escaped note survives the round trip intact.
  bool note_found = false;
  for (const testjson::ValuePtr& ev : trace_events.array)
    if (ev->has("args") &&
        ev->at("args").at("note").str() ==
            "with a \"quoted\" note\nand a newline")
      note_found = true;
  EXPECT_TRUE(note_found);
}

TEST(TraceExportTest, ConcurrentSpansPairAndNestPerThread) {
  // Several threads each record a deterministic outer/inner span pattern.
  // After export, every thread's spans must pair begin/end correctly:
  // dur >= 0, inner spans contained in their outer span's [ts, ts+dur), and
  // spans of the same depth disjoint — regardless of interleaving across
  // threads.
  constexpr int kThreads = 4;
  constexpr int kOuterPerThread = 8;
  TraceCollector collector;
  TraceCollector::install(&collector);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      pool.emplace_back([] {
        for (int i = 0; i < kOuterPerThread; ++i) {
          {
            Span outer("outer", "test");
            {
              Span inner("inner", "test");
              spin_ns(2000);
            }
            {
              Span inner2("inner", "test");
              spin_ns(2000);
            }
          }
          spin_ns(2000);  // keep consecutive outer spans clearly apart
        }
      });
    for (std::thread& t : pool) t.join();
  }
  std::vector<TraceEvent> events = collector.drain();
  TraceCollector::install(nullptr);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kOuterPerThread * 3);

  const std::string json = TraceCollector::to_chrome_json(events);
  std::map<int, std::vector<ExportedSpan>> by_tid = spans_by_tid(json);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));

  for (const auto& [tid, spans] : by_tid) {
    ASSERT_EQ(spans.size(),
              static_cast<std::size_t>(kOuterPerThread) * 3)
        << "tid " << tid;
    std::vector<ExportedSpan> outers, inners;
    for (const ExportedSpan& s : spans) {
      EXPECT_GE(s.dur_us, 0.0);
      (s.name == "outer" ? outers : inners).push_back(s);
    }
    ASSERT_EQ(outers.size(), static_cast<std::size_t>(kOuterPerThread));
    ASSERT_EQ(inners.size(), static_cast<std::size_t>(kOuterPerThread) * 2);
    // Outer spans never overlap each other on one thread.
    for (std::size_t i = 1; i < outers.size(); ++i)
      EXPECT_GE(outers[i].ts_us, outers[i - 1].ts_us + outers[i - 1].dur_us)
          << "tid " << tid << " outer " << i;
    // Every inner span nests inside exactly one outer span.
    for (const ExportedSpan& in : inners) {
      int containers = 0;
      for (const ExportedSpan& out : outers)
        if (in.ts_us >= out.ts_us &&
            in.ts_us + in.dur_us <= out.ts_us + out.dur_us)
          ++containers;
      EXPECT_EQ(containers, 1)
          << "tid " << tid << " inner at " << in.ts_us << "us";
    }
  }
}

TEST(TraceExportTest, RingDropsSurfaceAsTheDropMetric) {
  // Many more spans than the trace ring holds: the overflow must be counted
  // both by the collector and by ickpt_trace_dropped_total, and the two
  // views must agree.
  obs::Registry registry;
  obs::Registry::install(&registry);
  TraceCollector collector;
  TraceCollector::install(&collector);
  constexpr std::size_t kRing = TraceCollector::kRingCapacity;
  constexpr int kSpans = static_cast<int>(kRing) + 100;
  std::thread burst([] {
    for (int i = 0; i < kSpans; ++i) {
      Span span("burst", "test");
    }
  });
  burst.join();
  const std::uint64_t dropped = collector.dropped();
  std::vector<TraceEvent> events = collector.drain();
  TraceCollector::install(nullptr);
  obs::Snapshot snap = registry.snapshot();
  obs::Registry::install(nullptr);

  EXPECT_EQ(events.size(), kRing);
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(kSpans) - kRing);
  EXPECT_EQ(snap.counter_sum("ickpt_trace_dropped_total"), dropped);
  const obs::MetricSnapshot* overwritten = snap.find(
      "ickpt_trace_dropped_total", {{"reason", "overwritten"}});
  ASSERT_NE(overwritten, nullptr);
  EXPECT_EQ(overwritten->counter_value, dropped);
}

TEST(StatsJsonTest, HistogramJsonCarriesInterpolatedPercentiles) {
  obs::Registry registry;
  obs::Histogram hist = registry.histogram(
      "test_latency_seconds", {{"op", "append"}},
      obs::Histogram::exponential_bounds(1e-6, 2.0, 24));
  // A skewed distribution: most observations fast, a slow tail.
  for (int i = 0; i < 90; ++i) hist.observe(1e-4);
  for (int i = 0; i < 9; ++i) hist.observe(1e-3);
  hist.observe(1e-1);

  const std::string json = registry.snapshot().to_json();
  testjson::ValuePtr doc = testjson::parse(json);
  ASSERT_TRUE(doc->is_array());
  const testjson::Value* metric = nullptr;
  for (const testjson::ValuePtr& m : doc->array)
    if (m->at("name").str() == "test_latency_seconds") metric = m.get();
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->at("type").str(), "histogram");
  EXPECT_EQ(metric->at("labels").at("op").str(), "append");
  EXPECT_EQ(metric->at("count").num(), 100.0);

  const double p50 = metric->at("p50").num();
  const double p95 = metric->at("p95").num();
  const double p99 = metric->at("p99").num();
  // Interpolated estimates: ordered, and each within its bucket's decade.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 1e-5);
  EXPECT_LT(p50, 1e-3);
  EXPECT_GT(p95, 1e-4);
  EXPECT_LT(p95, 1e-2);
  // The bucket array is parseable and its counts sum to the observations.
  const testjson::Value& buckets = metric->at("buckets");
  ASSERT_TRUE(buckets.is_array());
  double total = 0;
  for (const testjson::ValuePtr& b : buckets.array) total += b->at("n").num();
  EXPECT_EQ(total, 100.0);
}

}  // namespace
}  // namespace ickpt::testing
