#include "obs/flightrec.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "obs/trace.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace ickpt::obs {

namespace {

// Big-endian scalar helpers; the recorder serializes without depending on
// io/ (obs must stay the bottom of the library graph).
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int s = 24; s >= 0; s -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> s));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> s));
}

struct ByteReader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n)
      throw CorruptionError("flight-recorder image truncated");
  }
  std::uint8_t u8() {
    need(1);
    return *p++;
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
    p += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | p[i];
    p += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
    p += 8;
    return v;
  }
};

constexpr std::uint32_t kFlightMagic = 0x49465231;  // "IFR1"
constexpr std::uint16_t kFlightVersion = 1;
constexpr std::uint8_t kMaxEventType =
    static_cast<std::uint8_t>(FlightEventType::kNote);

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {}

void FlightRecorder::record(FlightEventType type, std::uint64_t epoch,
                            std::uint64_t v0, std::uint64_t v1,
                            const char* detail, std::uint8_t aux) noexcept {
  FlightEvent ev;
  ev.ts_ns = trace_now_ns();
  ev.epoch = epoch;
  ev.v0 = v0;
  ev.v1 = v1;
  ev.type = type;
  ev.aux = aux;
  if (detail != nullptr) {
    std::size_t n = std::strlen(detail);
    if (n >= FlightEvent::kDetailCap) n = FlightEvent::kDetailCap - 1;
    std::memcpy(ev.detail, detail, n);
  }
  ring_.push(ev);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  out.reserve(capacity());
  ring_.read(0, out);
  return out;
}

std::vector<std::uint8_t> FlightRecorder::serialize() const {
  const std::vector<FlightEvent> evs = events();
  std::vector<std::uint8_t> out;
  out.reserve(16 + evs.size() * (sizeof(FlightEvent) + 4));
  put_u32(out, kFlightMagic);
  put_u16(out, kFlightVersion);
  put_u64(out, total_recorded());
  put_u32(out, static_cast<std::uint32_t>(evs.size()));
  for (const FlightEvent& ev : evs) {
    put_u64(out, ev.ts_ns);
    put_u64(out, ev.epoch);
    put_u64(out, ev.v0);
    put_u64(out, ev.v1);
    out.push_back(static_cast<std::uint8_t>(ev.type));
    out.push_back(ev.aux);
    const std::size_t n = std::strlen(ev.detail);
    out.push_back(static_cast<std::uint8_t>(n));
    out.insert(out.end(), ev.detail, ev.detail + n);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::deserialize(
    const std::uint8_t* data, std::size_t size,
    std::uint64_t* total_recorded) {
  ByteReader r{data, data + size};
  if (r.u32() != kFlightMagic)
    throw CorruptionError("flight-recorder image: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kFlightVersion)
    throw CorruptionError("flight-recorder image: unsupported version " +
                          std::to_string(version));
  const std::uint64_t total = r.u64();
  if (total_recorded != nullptr) *total_recorded = total;
  const std::uint32_t count = r.u32();
  std::vector<FlightEvent> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FlightEvent ev;
    ev.ts_ns = r.u64();
    ev.epoch = r.u64();
    ev.v0 = r.u64();
    ev.v1 = r.u64();
    const std::uint8_t type = r.u8();
    if (type > kMaxEventType)
      throw CorruptionError("flight-recorder image: unknown event type " +
                            std::to_string(type));
    ev.type = static_cast<FlightEventType>(type);
    ev.aux = r.u8();
    const std::uint8_t n = r.u8();
    if (n >= FlightEvent::kDetailCap)
      throw CorruptionError("flight-recorder image: oversized detail");
    r.need(n);
    std::memcpy(ev.detail, r.p, n);
    r.p += n;
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::dump_to_file(const std::string& path) const {
  const std::vector<std::uint8_t> image = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw IoError("open '" + path + "': " + std::strerror(errno));
  const bool wrote =
      std::fwrite(image.data(), 1, image.size(), f) == image.size() &&
      std::fflush(f) == 0;
#ifdef __unix__
  if (wrote) ::fsync(::fileno(f));
#endif
  std::fclose(f);
  if (!wrote)
    throw IoError("write '" + path + "': " + std::strerror(errno));
}

std::vector<FlightEvent> FlightRecorder::load_file(
    const std::string& path, std::uint64_t* total_recorded) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw IoError("open '" + path + "': " + std::strerror(errno));
  std::vector<std::uint8_t> image;
  std::uint8_t buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    image.insert(image.end(), buf, buf + n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw IoError("read '" + path + "': " + std::strerror(errno));
  return deserialize(image.data(), image.size(), total_recorded);
}

const char* FlightRecorder::type_name(FlightEventType type) noexcept {
  switch (type) {
    case FlightEventType::kEpochBegin:
      return "epoch_begin";
    case FlightEventType::kEpochEnd:
      return "epoch_end";
    case FlightEventType::kHealthTransition:
      return "health";
    case FlightEventType::kFault:
      return "fault";
    case FlightEventType::kRetry:
      return "retry";
    case FlightEventType::kRotation:
      return "rotation";
    case FlightEventType::kRebase:
      return "rebase";
    case FlightEventType::kPoison:
      return "poison";
    case FlightEventType::kReheal:
      return "reheal";
    case FlightEventType::kFallback:
      return "fallback";
    case FlightEventType::kDump:
      return "dump";
    case FlightEventType::kNote:
      return "note";
  }
  return "?";
}

std::string FlightRecorder::render_timeline(
    const std::vector<FlightEvent>& events, std::uint64_t total_recorded) {
  std::string out = "flight recorder: " + std::to_string(events.size()) +
                    " event(s) retained";
  if (total_recorded > events.size())
    out += " of " + std::to_string(total_recorded) + " recorded";
  out += '\n';
  if (events.empty()) return out;
  const std::uint64_t t0 = events.front().ts_ns;
  for (const FlightEvent& ev : events) {
    char line[64];
    std::snprintf(line, sizeof(line), "  [%+12.3fms] epoch %-6llu %-12s",
                  (static_cast<double>(ev.ts_ns) -
                   static_cast<double>(t0)) /
                      1e6,
                  static_cast<unsigned long long>(ev.epoch),
                  type_name(ev.type));
    out += line;
    switch (ev.type) {
      case FlightEventType::kEpochBegin:
        out += ev.aux == 0 ? "full" : "incremental";
        break;
      case FlightEventType::kEpochEnd:
        out += std::to_string(ev.v0) + " byte(s), " + std::to_string(ev.v1) +
               " record(s)";
        break;
      case FlightEventType::kHealthTransition:
        out += std::to_string(ev.v0) + " -> " + std::to_string(ev.v1);
        break;
      case FlightEventType::kRetry:
        out += "attempt " + std::to_string(ev.v0);
        break;
      case FlightEventType::kRebase:
        out += "seq " + std::to_string(ev.v0);
        break;
      case FlightEventType::kPoison:
        out += std::to_string(ev.v0) + " epoch(s) lost";
        break;
      case FlightEventType::kReheal:
        out += std::to_string(ev.v0) + " clean epoch(s)";
        break;
      default:
        break;
    }
    if (ev.detail[0] != '\0') {
      if (out.back() != ' ') out += ' ';
      out += "— ";
      out += ev.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace ickpt::obs
