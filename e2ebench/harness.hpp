// Measurement plumbing for the end-to-end benchmark: exact order statistics
// over raw samples, an in-memory span recorder for the traced run, the
// CRC-32 state digest the correctness checks compare, and peak RSS.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"
#include "io/crc32.hpp"
#include "io/data_writer.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Raw samples of one quantity. Percentiles are nearest-rank over the
/// sorted samples (the value at rank ceil(p*n)), so every reported
/// percentile is a sample that was actually measured and
/// min <= p50 <= p90 <= max holds by construction.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t n() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  [[nodiscard]] double percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }
  [[nodiscard]] double min() const { return percentile(0); }
  [[nodiscard]] double max() const { return percentile(100); }
  [[nodiscard]] double sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0 : sum() / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// One interval the benchmark spent inside a public entry point of a layer.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the enclosing span, or -1 at top level.
  long parent = -1;
  /// The benchmark operation (one take, one recovery, ...) the span serves.
  std::uint64_t op = 0;
  /// Small free-form tag: "full"/"incr", or "skip" for frames streamed
  /// before a replay window.
  std::string tag;
  /// Bytes the call moved (0 when not meaningful).
  std::uint64_t bytes = 0;
};

/// Spans live in memory and are written out once, when the run ends, so
/// recording costs two clock reads and a vector push per span.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::string tag = {}) : t_(t) {
      if (t_ == nullptr) return;
      index_ = t_->spans_.size();
      SpanRecord rec;
      rec.name = name;
      rec.tag = std::move(tag);
      rec.parent = t_->open_.empty() ? -1 : static_cast<long>(t_->open_.back());
      rec.op = t_->op_;
      t_->spans_.push_back(std::move(rec));
      t_->open_.push_back(index_);
      t_->spans_[index_].start_ns = now_ns();
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[index_].end_ns = now_ns();
      t_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void tag(std::string tag) {
      if (t_ != nullptr) t_->spans_[index_].tag = std::move(tag);
    }
    void bytes(std::uint64_t n) {
      if (t_ != nullptr) t_->spans_[index_].bytes = n;
    }

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  /// Start a new benchmark operation; later spans carry its id.
  void begin_op() { ++op_; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ms) of every span called `name`, optionally only those
  /// tagged `tag`.
  [[nodiscard]] Samples durations(const std::string& name,
                                  const std::string& tag = {}) const {
    Samples out;
    for (const SpanRecord& s : spans_)
      if (s.name == name && (tag.empty() || s.tag == tag))
        out.add(ms_between(s.start_ns, s.end_ns));
    return out;
  }

  /// Chrome trace-event JSON ("X" events, parent and op id in args).
  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "[\n");
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%ld,\"op\":%llu,\"tag\":\"%s\",\"bytes\":%llu}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.op),
                   s.tag.c_str(), static_cast<unsigned long long>(s.bytes));
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t op_ = 0;
};

/// CRC-32 of a full checkpoint of `roots` at `epoch`. Taken right after a
/// take (every modified flag already clean) it names the state that epoch
/// must recover to; a full capture of clean objects changes no flag.
inline std::uint32_t state_digest(
    std::span<ickpt::core::Checkpointable* const> roots, ickpt::Epoch epoch) {
  // Digest the stream as it is written instead of buffering a full
  // checkpoint (26 MB on synth-capture).
  class CrcSink final : public ickpt::io::ByteSink {
   public:
    void write(const std::uint8_t* data, std::size_t n) override {
      crc.update(data, n);
    }
    ickpt::io::Crc32 crc;
  };
  CrcSink sink;
  ickpt::io::DataWriter writer(sink);
  ickpt::core::CheckpointOptions opts;
  opts.mode = ickpt::core::Mode::kFull;
  ickpt::core::Checkpoint::run(writer, epoch, roots, opts);
  writer.flush();
  return sink.crc.value();
}

/// Peak RSS of this process image. VmHWM, not getrusage's ru_maxrss:
/// Linux carries ru_maxrss across execve, so a small workload would report
/// the RSS of the Python runner (run.py) that started it.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace e2e
