// FlightRecorder: an always-on, bounded, lock-free ring of structured epoch
// events — the post-mortem half of src/obs/.
//
// Metrics say how much and spans say when, but both are pull-based and
// process-local: when a pipeline dies at 3am, the counters die with it. The
// flight recorder keeps the last N *epoch-level* events (epoch begin/end
// with a profile summary, health transitions, faults, retries, rotations,
// rebases, poisonings, fallbacks) in a fixed ring that costs a ticket, a
// slot claim and a word-wise copy per event, and serializes next to the
// checkpoint log — automatically on terminal kFailed, on demand via
// `ickptctl flightrec` — so the last N epochs' timeline survives the
// process.
//
// Concurrency: record() is lock-free and multi-producer (manager thread,
// async-log worker, capture workers). The events live in an obs::EventRing
// (event_ring.hpp), the seqlock store span tracing shares: a reader never
// gets a torn event, and when two writers a full ring apart collide on one
// slot, one of them drops its event (total_recorded() still counts it)
// rather than mixing their words.
//
// The ring is always on: at ~136 bytes/slot and 256 slots the whole
// recorder is one malloc and recording is far off the per-object hot path
// (events are per *epoch*, not per object), so there is no off switch to
// forget in production.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_ring.hpp"

namespace ickpt::obs {

enum class FlightEventType : std::uint8_t {
  kEpochBegin = 0,  ///< take() entered; aux = mode (0 full, 1 incremental)
  kEpochEnd,        ///< take() returned; v0 = bytes, v1 = objects recorded
  kHealthTransition,///< v0 = from, v1 = to (core::Health values)
  kFault,           ///< injected or real I/O fault; detail = kind/errno
  kRetry,           ///< append retried in place; v0 = attempt
  kRotation,        ///< log quarantined; detail = quarantine path
  kRebase,          ///< fresh generation rebased with a full; v0 = seq
  kPoison,          ///< async log poisoned; v0 = epochs lost
  kReheal,          ///< pipeline re-armed; v0 = clean epochs counted
  kFallback,        ///< spec layer dropped a plan / recovery walked a
                    ///< generation; detail says which
  kDump,            ///< recorder serialized to disk; detail = path
  kNote,            ///< free-form annotation
};

/// One fixed-size event; trivially copyable so ring slots can shuttle it
/// through word-wise atomic copies.
struct FlightEvent {
  static constexpr std::size_t kDetailCap = 88;

  std::uint64_t ts_ns = 0;  ///< trace_now_ns() at record time
  std::uint64_t epoch = 0;
  std::uint64_t v0 = 0;
  std::uint64_t v1 = 0;
  FlightEventType type = FlightEventType::kNote;
  std::uint8_t aux = 0;
  char detail[kDetailCap] = {};
};

class FlightRecorder {
 public:
  /// `capacity` (rounded up to a power of two) events are retained;
  /// older ones are overwritten.
  explicit FlightRecorder(std::size_t capacity = 256);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event. Lock-free, multi-producer, never blocks or throws.
  void record(FlightEventType type, std::uint64_t epoch, std::uint64_t v0 = 0,
              std::uint64_t v1 = 0, const char* detail = nullptr,
              std::uint8_t aux = 0) noexcept;
  void record(FlightEventType type, std::uint64_t epoch, std::uint64_t v0,
              std::uint64_t v1, const std::string& detail,
              std::uint8_t aux = 0) noexcept {
    record(type, epoch, v0, v1, detail.c_str(), aux);
  }

  /// Torn-safe snapshot of the retained events, oldest first. Slots a
  /// writer is mid-copy in (or overwrote during the read) are skipped.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Events ever recorded (retained + overwritten + collided).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return ring_.tickets();
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }

  /// Versioned binary image of events() (format: docs/FORMAT.md).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parse a serialized image; throws ickpt::CorruptionError on a malformed
  /// one. `total_recorded` (optional) receives the writer's event total.
  static std::vector<FlightEvent> deserialize(
      const std::uint8_t* data, std::size_t size,
      std::uint64_t* total_recorded = nullptr);

  /// Serialize to `path` (fsynced). Throws ickpt::IoError on failure; the
  /// kFailed auto-dump wraps this so a dump failure never masks the
  /// original error.
  void dump_to_file(const std::string& path) const;
  static std::vector<FlightEvent> load_file(
      const std::string& path, std::uint64_t* total_recorded = nullptr);

  /// Where a recorder for the log at `log_path` dumps: `<log>.flightrec`.
  [[nodiscard]] static std::string default_path(const std::string& log_path) {
    return log_path + ".flightrec";
  }

  /// Human-readable timeline (relative timestamps, one event per line).
  static std::string render_timeline(const std::vector<FlightEvent>& events,
                                     std::uint64_t total_recorded = 0);

  static const char* type_name(FlightEventType type) noexcept;

 private:
  EventRing<FlightEvent> ring_;
};

}  // namespace ickpt::obs
