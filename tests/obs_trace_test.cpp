// Span tracing: inertness without a collector, ring overflow (drop-oldest),
// one bounded store shared by every thread, multi-thread collection, and
// Chrome trace_event JSON well-formedness.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace ickpt;

namespace {

struct ScopedCollector {
  explicit ScopedCollector(obs::TraceCollector& c) {
    obs::TraceCollector::install(&c);
  }
  ~ScopedCollector() { obs::TraceCollector::install(nullptr); }
};

TEST(ObsTrace, InertWithoutCollector) {
  ASSERT_EQ(obs::TraceCollector::installed(), nullptr);
  {
    obs::Span span("nothing");
    EXPECT_FALSE(span.active());
    span.note("ignored");
  }
  obs::instant("also.nothing");
  // A collector installed afterwards must not see the pre-install events.
  obs::TraceCollector collector;
  ScopedCollector scoped(collector);
  for (const obs::TraceEvent& ev : collector.drain())
    EXPECT_STRNE(ev.name, "nothing");
}

TEST(ObsTrace, SpansAndInstantsRecorded) {
  obs::TraceCollector collector;
  ScopedCollector scoped(collector);
  (void)collector.drain();  // shed any leftovers from earlier tests
  {
    obs::Span span("outer", "test");
    EXPECT_TRUE(span.active());
    span.note("hello \"quoted\" note");
    obs::instant("marker", "test", "tick");
  }
  std::vector<obs::TraceEvent> events = collector.drain();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: the span started before the instant fired.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_STREQ(events[0].note, "hello \"quoted\" note");
  EXPECT_STREQ(events[1].name, "marker");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].dur_ns, 0u);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);

  // Drain clears the rings.
  EXPECT_TRUE(collector.drain().empty());
}

TEST(ObsTrace, RingOverflowDropsOldest) {
  constexpr int kRing = static_cast<int>(obs::TraceCollector::kRingCapacity);
  constexpr int kEmitted = kRing + 12;
  obs::TraceCollector collector;
  ScopedCollector scoped(collector);
  for (int i = 0; i < kEmitted; ++i)
    obs::instant(("ev" + std::to_string(i)).c_str(), "test");
  std::vector<obs::TraceEvent> events = collector.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kRing));
  // Drop-oldest: the survivors are the newest kRing, in order.
  for (int i = 0; i < kRing; ++i)
    ASSERT_STREQ(events[i].name, ("ev" + std::to_string(12 + i)).c_str());
  EXPECT_EQ(collector.dropped(), static_cast<std::uint64_t>(kEmitted - kRing));
}

TEST(ObsTrace, OneBoundedStoreAcrossThreads) {
  // Many short-lived threads, no drain until they are all gone: the trace
  // store is one ring for the process, so it returns at most its capacity
  // and accounts for every other event as dropped — in the collector and in
  // ickpt_trace_dropped_total alike.
  constexpr int kThreads = 64;
  constexpr int kSpansPerThread = 100;
  obs::Registry registry;
  obs::Registry::install(&registry);
  obs::TraceCollector collector;
  {
    ScopedCollector scoped(collector);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i)
          obs::Span span("short", "test");
      });
    for (std::thread& t : threads) t.join();
  }
  const std::vector<obs::TraceEvent> events = collector.drain();
  const obs::Snapshot snap = registry.snapshot();
  obs::Registry::install(nullptr);

  EXPECT_LE(events.size(), obs::TraceCollector::kRingCapacity);
  EXPECT_EQ(events.size() + collector.dropped(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(snap.counter_sum("ickpt_trace_dropped_total"),
            collector.dropped());
}

TEST(ObsTrace, CollectsAcrossThreadsWithDistinctTids) {
  obs::TraceCollector collector;
  ScopedCollector scoped(collector);
  (void)collector.drain();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t)
    threads.emplace_back([t] {
      obs::Span span(("thread" + std::to_string(t)).c_str(), "test");
    });
  for (std::thread& t : threads) t.join();
  std::vector<obs::TraceEvent> events = collector.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_NE(events[1].tid, events[2].tid);
  EXPECT_NE(events[0].tid, events[2].tid);
  for (const obs::TraceEvent& ev : events) EXPECT_EQ(ev.phase, 'X');
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// strings, all strings closed, no raw control characters.
void expect_well_formed_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20)
          << "raw control character inside a JSON string";
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"')
      in_string = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced close";
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces";
}

TEST(ObsTrace, ChromeJsonWellFormed) {
  obs::TraceCollector collector;
  ScopedCollector scoped(collector);
  (void)collector.drain();
  {
    obs::Span span("span \"with\" quotes", "cat\\slash");
    span.note("note\nnewline and \"quote\"");
  }
  obs::instant("tick", "test", "instant note");
  std::string json =
      obs::TraceCollector::to_chrome_json(collector.drain());

  expect_well_formed_json(json);
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("span \\\"with\\\" quotes"), std::string::npos);
  EXPECT_NE(json.find("cat\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("note\\nnewline"), std::string::npos);
  // Instants carry a scope and no dur.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(ObsTrace, ChromeJsonOfNothingIsStillValid) {
  std::string json = obs::TraceCollector::to_chrome_json({});
  expect_well_formed_json(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

}  // namespace
