// Span tracing: the time-dimension half of src/obs/.
//
// RAII Span objects record [start, end) intervals (and instant() records
// point events) into one process-wide obs::EventRing that keeps the newest
// TraceCollector::kRingCapacity events across all threads. A push never
// blocks: a ticket, a slot claim and a word-wise copy. Trace memory is that
// one ring, allocated on first use and never freed (a Span may end after
// its collector is gone), however many threads ever trace.
//
// Cost when disabled: a Span constructed while no TraceCollector is
// installed is inert — one atomic load, no clock read, no ring write — so
// instrumentation can stay compiled into the checkpoint hot paths.
//
// A TraceCollector drains the ring from its own cursor (set at
// construction, so it never sees events from before it existed) and
// renders the events as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ickpt::obs {

/// One fixed-size trace record; trivially copyable so ring slots never
/// allocate.
struct TraceEvent {
  static constexpr std::size_t kNameCap = 48;
  static constexpr std::size_t kCatCap = 16;
  static constexpr std::size_t kNoteCap = 112;

  char name[kNameCap] = {};
  char cat[kCatCap] = {};
  /// Free-form annotation, emitted as args.note in the Chrome JSON.
  char note[kNoteCap] = {};
  std::uint64_t ts_ns = 0;   // start, relative to the process trace epoch
  std::uint64_t dur_ns = 0;  // 0 for instants
  std::uint32_t tid = 0;     // small per-thread ordinal, stable per thread
  char phase = 'X';          // 'X' complete span, 'i' instant
};

class TraceCollector {
 public:
  /// Events the process-wide ring retains between drains, across threads.
  static constexpr std::size_t kRingCapacity = 4096;

  TraceCollector();
  ~TraceCollector();  // uninstalls itself if still installed
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Install `c` as the process-wide collector; spans record only while one
  /// is installed (nullptr uninstalls).
  static void install(TraceCollector* c) noexcept;
  [[nodiscard]] static TraceCollector* installed() noexcept;

  /// Every event recorded since the previous drain (or construction) that
  /// the ring still holds, sorted by start time. The rest are counted in
  /// dropped() and in ickpt_trace_dropped_total{reason="overwritten"}.
  /// drain() and dropped() belong to one consumer thread.
  [[nodiscard]] std::vector<TraceEvent> drain();

  /// Events this collector has lost: recorded since its construction and
  /// never returned by drain() because they were overwritten (or, when
  /// writers collided on a slot, dropped).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Render events as a Chrome trace_event JSON document.
  static std::string to_chrome_json(const std::vector<TraceEvent>& events);

 private:
  std::uint64_t cursor_;       // first ticket the next drain() reads
  std::uint64_t dropped_ = 0;  // lost tickets before cursor_
};

/// RAII interval: construction stamps the start, destruction stamps the end
/// and pushes the event into the trace ring. Inert (single atomic load)
/// when no collector is installed.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "ickpt");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach/replace the free-form note (truncated to TraceEvent::kNoteCap).
  void note(const std::string& text) noexcept;
  void note(const char* text) noexcept;

  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  TraceEvent ev_;
  bool active_ = false;
};

/// Record a point event ('i' phase) — salvage hits, poisonings, faults.
void instant(const char* name, const char* cat = "ickpt",
             const char* note = nullptr);
void instant(const char* name, const char* cat, const std::string& note);

/// Monotonic nanoseconds since the process trace epoch (first obs use).
std::uint64_t trace_now_ns() noexcept;

}  // namespace ickpt::obs
