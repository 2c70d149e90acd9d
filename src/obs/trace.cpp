#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/event_ring.hpp"
#include "obs/metrics.hpp"

namespace ickpt::obs {

namespace {

void copy_capped(char* dst, std::size_t cap, const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::size_t n = std::strlen(src);
  if (n >= cap) n = cap - 1;
  std::memcpy(dst, src, n);
  dst[n] = '\0';
}

/// The process-wide span store. Leaked: a Span may end after its collector
/// (or the static destructors) are gone, and must still have a ring to
/// push into.
EventRing<TraceEvent>& trace_ring() {
  static auto* ring = new EventRing<TraceEvent>(TraceCollector::kRingCapacity);
  return *ring;
}

/// Stamp the thread's ordinal (small, stable for the thread's life) and
/// store the event.
void push(TraceEvent& ev) {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  ev.tid = tid;
  trace_ring().push(ev);
}

std::atomic<TraceCollector*> g_collector{nullptr};

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

// --- TraceCollector ---------------------------------------------------------

TraceCollector::TraceCollector() : cursor_(trace_ring().tickets()) {
  trace_epoch();  // pin the epoch before the first span
}

TraceCollector::~TraceCollector() {
  TraceCollector* self = this;
  g_collector.compare_exchange_strong(self, nullptr);
}

void TraceCollector::install(TraceCollector* c) noexcept {
  g_collector.store(c, std::memory_order_release);
}

TraceCollector* TraceCollector::installed() noexcept {
  return g_collector.load(std::memory_order_acquire);
}

std::vector<TraceEvent> TraceCollector::drain() {
  std::vector<TraceEvent> out;
  const std::uint64_t end = trace_ring().read(cursor_, out);
  // Every ticket in [cursor_, end) is returned now or lost for good.
  const std::uint64_t lost = end - cursor_ - out.size();
  cursor_ = end;
  dropped_ += lost;
  // Looked up per drain, not cached: the ring outlives any registry.
  if (lost > 0)
    obs::counter("ickpt_trace_dropped_total", {{"reason", "overwritten"}})
        .inc(lost);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::uint64_t TraceCollector::dropped() const {
  // Tickets already behind the ring's window are lost before any drain.
  const std::uint64_t pending = trace_ring().tickets() - cursor_;
  return dropped_ + (pending > kRingCapacity ? pending - kRingCapacity : 0);
}

std::string TraceCollector::to_chrome_json(
    const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    char head[160];
    // Chrome wants microseconds; keep ns precision via fractions.
    std::snprintf(head, sizeof(head),
                  "\n {\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                  ev.phase, ev.tid, static_cast<double>(ev.ts_ns) / 1e3);
    out += head;
    if (ev.phase == 'X') {
      std::snprintf(head, sizeof(head), ",\"dur\":%.3f",
                    static_cast<double>(ev.dur_ns) / 1e3);
      out += head;
    }
    if (ev.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
    out += ",\"name\":\"";
    append_json_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, ev.cat);
    out += '"';
    if (ev.note[0] != '\0') {
      out += ",\"args\":{\"note\":\"";
      append_json_escaped(out, ev.note);
      out += "\"}";
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

// --- Span / instant ---------------------------------------------------------

Span::Span(const char* name, const char* cat) {
  if (TraceCollector::installed() == nullptr) return;
  active_ = true;
  copy_capped(ev_.name, TraceEvent::kNameCap, name);
  copy_capped(ev_.cat, TraceEvent::kCatCap, cat);
  ev_.phase = 'X';
  ev_.ts_ns = trace_now_ns();
}

Span::~Span() {
  if (!active_) return;
  ev_.dur_ns = trace_now_ns() - ev_.ts_ns;
  push(ev_);
}

void Span::note(const std::string& text) noexcept { note(text.c_str()); }

void Span::note(const char* text) noexcept {
  if (active_) copy_capped(ev_.note, TraceEvent::kNoteCap, text);
}

void instant(const char* name, const char* cat, const char* note) {
  if (TraceCollector::installed() == nullptr) return;
  TraceEvent ev;
  copy_capped(ev.name, TraceEvent::kNameCap, name);
  copy_capped(ev.cat, TraceEvent::kCatCap, cat);
  copy_capped(ev.note, TraceEvent::kNoteCap, note);
  ev.phase = 'i';
  ev.ts_ns = trace_now_ns();
  push(ev);
}

void instant(const char* name, const char* cat, const std::string& note) {
  instant(name, cat, note.c_str());
}

}  // namespace ickpt::obs
