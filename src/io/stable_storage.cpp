#include "io/stable_storage.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include <sys/stat.h>
#include <sys/types.h>

#include "common/error.hpp"
#include "io/crc32.hpp"
#include "io/file_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ickpt::io {

namespace {

constexpr std::uint32_t kMagic = 0x49434B46;  // "ICKF"
constexpr std::size_t kHeaderSize = 4 + 8 + 4 + 4;
// FrameIterator's read window, whatever the frame size: two 64 KiB chunks.
constexpr std::size_t kWindow = 2 * (1u << 16);
// Backstop against absurd lengths from corrupt headers.
constexpr std::uint32_t kMaxPayload = 1u << 30;
// Big-endian byte pattern of kMagic, for salvage resynchronization.
constexpr std::uint8_t kMagicBytes[4] = {0x49, 0x43, 0x4B, 0x46};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> s));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

// --- FrameIterator ----------------------------------------------------------

struct FrameIterator::Impl {
  ScanOptions opts;

  std::FILE* file = nullptr;          // file mode (nullptr once closed/missing)
  const std::uint8_t* mem = nullptr;  // memory mode
  std::size_t mem_size = 0;
  std::size_t mem_pos = 0;
  bool eof = false;

  // Fixed window of input bytes: [head, end) is unconsumed, buf[head] is at
  // input offset `base + head`, and the next unread input byte is at
  // `base + end`. Headers are parsed in place. Payload bytes in the window
  // are copied into Frame::payload and the rest read straight into it, or,
  // for next_header, streamed through the window with only a prefix kept.
  const std::unique_ptr<std::uint8_t[]> buf =
      std::make_unique_for_overwrite<std::uint8_t[]>(kWindow);
  std::size_t head = 0;
  std::size_t end = 0;
  std::uint64_t base = 0;

  // Parse state.
  std::uint64_t prev_seq = 0;
  bool first_frame = true;
  std::uint64_t pending_skip = 0;  // bytes skipped since the last good frame

  // End-of-scan bookkeeping.
  bool done = false;
  bool damaged = false;
  std::string stop_reason;
  std::uint64_t stop_offset = 0;
  std::uint64_t valid_prefix = 0;
  std::size_t regions_skipped = 0;
  std::uint64_t bytes_skipped = 0;

  ~Impl() {
    if (file != nullptr) std::fclose(file);
  }

  [[nodiscard]] std::uint64_t offset() const { return base + head; }
  [[nodiscard]] std::size_t available() const { return end - head; }

  void consume(std::size_t n) { head += n; }

  /// Bytes of input past the window. A file is measured now, not at open,
  /// so a log that grew since reads exactly as a chunked read would see it.
  [[nodiscard]] std::uint64_t unread() const {
    if (file == nullptr) return mem_size - mem_pos;
    struct stat st {};
    if (::fstat(::fileno(file), &st) != 0) return 0;
    const auto size = static_cast<std::uint64_t>(st.st_size);
    return size > base + end ? size - (base + end) : 0;
  }

  /// Read up to `n` input bytes into `dst`; fewer means end of input or a
  /// read error (recorded as damage, and no further reads).
  std::size_t read_input(std::uint8_t* dst, std::size_t n) {
    if (file == nullptr) {
      n = std::min(n, mem_size - mem_pos);
      if (n > 0) std::memcpy(dst, mem + mem_pos, n);
      mem_pos += n;
      return n;
    }
    const std::size_t got = std::fread(dst, 1, n, file);
    if (got < n && std::ferror(file) != 0) {
      // A read error mid-scan is damage, not a crash: report it as the
      // stop reason rather than throwing out of an integrity pass.
      record_damage("log read error");
      eof = true;
    }
    return got;
  }

  /// Make at least `want` (<= one header) bytes available unless the input
  /// ends first. Only the few unconsumed bytes move to the window's front.
  void fill(std::size_t want) {
    if (available() >= want) return;
    if (head > 0) {
      std::memmove(buf.get(), buf.get() + head, available());
      base += head;
      end -= head;
      head = 0;
    }
    while (!eof && available() < want) {
      const std::size_t n = read_input(buf.get() + end, kWindow - end);
      if (n == 0) eof = true;
      end += n;
    }
  }

  /// Empty the window and continue the input at offset `at`. A failed seek
  /// is damage and ends the input.
  void reposition(std::uint64_t at) {
    base = at;
    head = end = 0;
    if (file == nullptr) {
      mem_pos = static_cast<std::size_t>(at);
    } else if (std::ferror(file) != 0) {
      return;  // a read error already ended the input
    } else if (fseeko(file, static_cast<off_t>(at), SEEK_SET) != 0) {
      record_damage("log seek error");
      eof = true;
      return;
    }
    eof = false;
  }

  /// Feed the `len`-byte payload of the frame whose header is at `head`
  /// into `check`, and its first `keep` bytes into `payload`. A whole
  /// payload is copied from the window and the rest read straight into it;
  /// a prefix is copied out while the payload streams through the window
  /// (over the header). Returns false, sizing nothing, when the input ends
  /// before the payload does. Sets `past_window` once input past the window
  /// has been read, so the window no longer follows the frame.
  bool read_payload(std::uint32_t len, std::size_t keep,
                    std::vector<std::uint8_t>& payload, Crc32& check,
                    bool& past_window) {
    const std::uint8_t* in_window = buf.get() + head + kHeaderSize;
    const std::size_t have =
        std::min<std::size_t>(len, available() - kHeaderSize);
    if (len > have && len - have > unread()) return false;
    past_window = len > have;
    if (keep < len) {
      payload.clear();
      auto stream = [&](const std::uint8_t* p, std::size_t n) {
        check.update(p, n);
        payload.insert(payload.end(), p,
                       p + std::min(n, keep - payload.size()));
      };
      stream(in_window, have);
      for (std::size_t left = len - have, n = 0; left > 0; left -= n) {
        n = read_input(buf.get(), std::min(left, kWindow));
        if (n == 0) return false;
        stream(buf.get(), n);
      }
      return true;
    }
    if (payload.capacity() < len) {
      // Free the old buffer first and reserve exactly: growing by doubling
      // would hold up to twice the largest frame.
      payload = std::vector<std::uint8_t>();
      payload.reserve(len);
    }
    payload.assign(in_window, in_window + have);
    payload.resize(len);
    if (read_input(payload.data() + have, len - have) != len - have)
      return false;
    check.update(payload.data(), len);
    return true;
  }

  void record_damage(const char* why) {
    if (damaged) return;
    damaged = true;
    stop_reason = why;
    stop_offset = offset();
  }

  /// Advance at least one byte, then position `head` on the next candidate
  /// magic sequence (or end of input). Skipped bytes accumulate into
  /// pending_skip.
  void seek_next_magic() {
    fill(1);  // a repositioned window starts empty
    if (available() == 0) return;
    pending_skip += 1;
    consume(1);
    for (;;) {
      fill(sizeof(kMagicBytes));
      if (available() < sizeof(kMagicBytes)) {
        pending_skip += available();
        consume(available());
        return;
      }
      const std::uint8_t* begin = buf.get() + head;
      const std::uint8_t* stop = buf.get() + end;
      const std::uint8_t* hit = std::search(
          begin, stop, std::begin(kMagicBytes), std::end(kMagicBytes));
      if (hit != stop) {
        pending_skip += static_cast<std::uint64_t>(hit - begin);
        consume(static_cast<std::size_t>(hit - begin));
        return;
      }
      // No magic in the window; keep the last 3 bytes (a magic prefix may
      // straddle the chunk boundary) and read more.
      std::size_t drop = available() - (sizeof(kMagicBytes) - 1);
      pending_skip += drop;
      consume(drop);
      if (eof) {
        pending_skip += available();
        consume(available());
        return;
      }
    }
  }

  void finish() {
    done = true;
    if (pending_skip > 0) {
      ++regions_skipped;
      bytes_skipped += pending_skip;
      pending_skip = 0;
    }
  }

  /// Keeps the payload's first `keep` bytes (next_header) or all of it.
  bool next(Frame& out, std::size_t keep) {
    if (done) return false;
    for (;;) {
      fill(kHeaderSize);
      if (available() == 0) {
        finish();
        return false;
      }
      const char* why = nullptr;
      bool past_window = false;
      std::uint64_t seq = 0;
      std::uint32_t len = 0;
      if (available() < kHeaderSize) {
        why = "torn frame header";
      } else {
        const std::uint8_t* p = buf.get() + head;
        if (get_u32(p) != kMagic) {
          why = "bad frame magic";
        } else {
          seq = get_u64(p + 4);
          len = get_u32(p + 12);
          const std::uint32_t crc = get_u32(p + 16);
          Crc32 check;
          check.update(p + 4, 12);  // seq + length
          if (len > kMaxPayload) {
            why = "implausible frame length";
          } else if (!read_payload(len, keep, out.payload, check,
                                   past_window)) {
            why = "torn frame payload";
          } else if (check.value() != crc) {
            why = "frame CRC mismatch";
          } else if (!first_frame && seq <= prev_seq) {
            why = "non-increasing sequence number";
          }
        }
      }

      const std::uint64_t at = offset();
      if (why == nullptr) {
        out.seq = seq;
        out.payload_bytes = len;
        out.offset = at;
        out.resync = pending_skip > 0;
        if (pending_skip > 0) {
          ++regions_skipped;
          bytes_skipped += pending_skip;
          pending_skip = 0;
        }
        first_frame = false;
        prev_seq = seq;
        if (past_window) {
          base = at + kHeaderSize + len;
          head = end = 0;
        } else {
          consume(kHeaderSize + len);
        }
        if (!damaged) valid_prefix = offset();
        return true;
      }

      record_damage(why);
      if (!opts.salvage) {
        done = true;
        return false;
      }
      // Salvage resumes one byte past the frame's start; the window no
      // longer holds that byte once the payload was read past it.
      if (past_window) reposition(at);
      seek_next_magic();
    }
  }
};

FrameIterator::FrameIterator(const std::string& path, ScanOptions opts,
                             std::uint64_t start)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = opts;
  impl_->file = std::fopen(path.c_str(), "rb");
  if (impl_->file == nullptr) {
    impl_->eof = true;  // missing file == empty log
    return;
  }
  // Reads land in the window or the payload directly, never via stdio's
  // own buffer.
  std::setvbuf(impl_->file, nullptr, _IONBF, 0);
  if (start == 0) return;
  impl_->base = start;
  impl_->valid_prefix = start;
  // fseeko takes a 64-bit off_t, so offsets past 2 GiB seek correctly.
  if (start > static_cast<std::uint64_t>(std::numeric_limits<off_t>::max()) ||
      fseeko(impl_->file, static_cast<off_t>(start), SEEK_SET) != 0) {
    impl_->record_damage("log seek error");
    impl_->eof = true;
  }
}

FrameIterator::FrameIterator(const std::uint8_t* data, std::size_t size,
                             ScanOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = opts;
  impl_->mem = data;
  impl_->mem_size = size;
}

FrameIterator::~FrameIterator() = default;

bool FrameIterator::next(Frame& out) {
  return impl_->next(out, std::numeric_limits<std::size_t>::max());
}
bool FrameIterator::next_header(Frame& out, std::size_t prefix) {
  return impl_->next(out, prefix);
}
bool FrameIterator::clean() const { return !impl_->damaged; }
const std::string& FrameIterator::stop_reason() const {
  return impl_->stop_reason;
}
std::uint64_t FrameIterator::stop_offset() const {
  return impl_->damaged ? impl_->stop_offset : impl_->valid_prefix;
}
std::uint64_t FrameIterator::valid_prefix_bytes() const {
  return impl_->valid_prefix;
}
std::size_t FrameIterator::regions_skipped() const {
  return impl_->regions_skipped;
}
std::uint64_t FrameIterator::bytes_skipped() const {
  return impl_->bytes_skipped;
}

namespace {

ScanResult collect(FrameIterator& it) {
  ScanResult result;
  Frame frame;
  while (it.next(frame)) result.frames.push_back(frame);
  result.clean = it.clean();
  result.stop_reason = it.stop_reason();
  result.stop_offset = it.stop_offset();
  result.valid_prefix_bytes = it.valid_prefix_bytes();
  result.regions_skipped = it.regions_skipped();
  result.bytes_skipped = it.bytes_skipped();
  return result;
}

}  // namespace

// Cold path: scans happen at open/recover/fsck time, so per-call lookups
// are fine (and stay correct under late registry installation).
void publish_scan(const FrameIterator& it, std::size_t frames) {
  obs::counter("ickpt_scans_total",
               {{"result", it.clean() ? "clean" : "damaged"}})
      .inc();
  obs::counter("ickpt_scan_frames_total").inc(frames);
  if (it.regions_skipped() > 0)
    obs::counter("ickpt_scan_corrupt_regions_total")
        .inc(it.regions_skipped());
  if (it.bytes_skipped() > 0)
    obs::counter("ickpt_scan_bytes_skipped_total").inc(it.bytes_skipped());
}

namespace {

/// What opening a log needs to know about one file, from one salvage pass
/// that keeps no payload (FrameIterator::next_header).
struct OpenProbe {
  bool clean = true;
  /// Newest sequence number a salvage scan can read (frames come out in
  /// strictly increasing seq order); nullopt when there is none.
  std::optional<std::uint64_t> last_seq;
  /// Payload bytes of the largest frame read.
  std::size_t largest_payload = 0;
};

OpenProbe probe_for_open(const std::string& path) {
  obs::Span span("storage.scan", "io");
  FrameIterator it(path, {.salvage = true});
  OpenProbe probe;
  Frame frame;
  std::size_t frames = 0;
  while (it.next_header(frame)) {
    probe.last_seq = frame.seq;
    probe.largest_payload = std::max(probe.largest_payload, frame.payload_bytes);
    ++frames;
  }
  probe.clean = it.clean();
  publish_scan(it, frames);
  return probe;
}

/// Copy bytes [from, to) of the file at `path` into `out` one fixed-size
/// chunk at a time, so saving a damaged tail never holds the log in memory.
void copy_range(const std::string& path, std::uint64_t from, std::uint64_t to,
                FileSink& out) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> in(std::fopen(path.c_str(), "rb"));
  if (in == nullptr ||
      fseeko(in.get(), static_cast<off_t>(from), SEEK_SET) != 0)
    throw IoError("open '" + path + "' at byte " + std::to_string(from) +
                  ": " + std::strerror(errno));
  std::uint8_t chunk[1 << 16];
  for (std::uint64_t left = to - from; left > 0;) {
    const std::size_t n = std::fread(
        chunk, 1, static_cast<std::size_t>(std::min<std::uint64_t>(
                      left, sizeof(chunk))),
        in.get());
    if (n == 0)
      throw IoError("read '" + path + "': " +
                    (std::ferror(in.get()) != 0 ? std::strerror(errno)
                                                : "file shrank"));
    out.write(chunk, n);
    left -= n;
  }
}

}  // namespace

// --- StableStorage ----------------------------------------------------------

struct StableStorage::Impl {
  std::unique_ptr<FileSink> sink;
  obs::Counter obs_appends = obs::counter("ickpt_storage_appends_total");
  obs::Counter obs_rollbacks = obs::counter("ickpt_storage_rollbacks_total");
};

StableStorage::StableStorage(std::string path, StorageOptions opts)
    : path_(std::move(path)), opts_(opts), impl_(new Impl) {
  // Resume sequence numbering above anything a salvage scan can still see,
  // so frames beyond a corrupt region can never share a sequence number
  // with a new frame. Returns whether the probed file held a readable frame.
  auto resume_above = [this](const OpenProbe& probe) {
    if (probe.last_seq.has_value())
      next_seq_ = std::max(next_seq_, *probe.last_seq + 1);
    return probe.last_seq.has_value();
  };
  const OpenProbe live = probe_for_open(path_);
  largest_payload_at_open_ = live.largest_payload;
  // Never append behind an unreadable tail: truncate it back to the last
  // salvageable frame first (the removed bytes go to <path>.bak, and every
  // frame the probe read stays). Mid-log corrupt regions with settled
  // frames beyond them are preserved — every reader of this log salvages
  // over them.
  if (!live.clean) repair(path_);
  resume_above(live);
  resume_above(probe_for_open(path_ + ".bak"));
  // A crash between a rotation's quarantine rename and its rebase append
  // leaves the live log empty (or young); quarantined generations then hold
  // the highest sequence numbers, and numbering must continue above them.
  for (const std::string& gen : generation_chain(path_)) {
    const bool in_log = resume_above(probe_for_open(gen));
    const bool in_bak = resume_above(probe_for_open(gen + ".bak"));
    if (in_log || in_bak) break;  // newest-first: older ones hold smaller seqs
  }
  open_for_append();
}

StableStorage::StableStorage(std::string path, bool durable)
    : StableStorage(std::move(path), StorageOptions{.durable = durable}) {}

StableStorage::~StableStorage() { delete impl_; }

void StableStorage::open_for_append() {
  impl_->sink = std::make_unique<FileSink>(path_, FileSink::Mode::kAppend);
  impl_->sink->set_fault_policy(opts_.fault);
  impl_->sink->set_retry_policy(opts_.retry);
  // Re-apply observation hooks: rotate()/reset() replace the sink, and the
  // profiler/flight-recorder wiring must survive the swap.
  impl_->sink->set_profile(prof_);
  impl_->sink->set_flightrec(flightrec_);
}

void StableStorage::set_profile(obs::CaptureProfile* profile) noexcept {
  prof_ = profile;
  if (impl_->sink != nullptr) impl_->sink->set_profile(profile);
}

void StableStorage::set_flightrec(obs::FlightRecorder* rec) noexcept {
  flightrec_ = rec;
  if (impl_->sink != nullptr) impl_->sink->set_flightrec(rec);
}

void StableStorage::rebind_metrics() noexcept {
  impl_->obs_appends = obs::counter("ickpt_storage_appends_total");
  impl_->obs_rollbacks = obs::counter("ickpt_storage_rollbacks_total");
  if (impl_->sink != nullptr) impl_->sink->rebind_metrics();
}

std::uint64_t StableStorage::append(ByteRanges payload) {
  const std::size_t size = payload.size();
  if (size > kMaxPayload)
    throw IoError("checkpoint payload exceeds 1 GiB frame limit");
  std::vector<std::uint8_t> header;
  header.reserve(kHeaderSize);
  put_u32(header, kMagic);
  const std::uint64_t seq = next_seq_;
  put_u64(header, seq);
  put_u32(header, static_cast<std::uint32_t>(size));
  // The CRC covers seq, length, and payload, so a corrupted header field is
  // caught just like corrupted payload bytes.
  Crc32 crc;
  crc.update(header.data() + 4, 12);
  for (const std::span<const std::uint8_t> r : payload.ranges())
    crc.update(r.data(), r.size());
  put_u32(header, crc.value());
  const std::uint64_t frame_start = impl_->sink->offset();
  obs::Span span("storage.append", "io");
  // The header, then the payload's ranges in order: one gather write, or
  // with a fault policy one write per range, where a fault lands at the
  // same file offset, and leaves the same bytes, as inside one contiguous
  // write.
  std::vector<std::span<const std::uint8_t>> frame;
  frame.reserve(1 + payload.ranges().size());
  frame.emplace_back(header);
  frame.insert(frame.end(), payload.ranges().begin(), payload.ranges().end());
  try {
    impl_->sink->write_ranges(frame);
    if (opts_.durable)
      impl_->sink->durable_flush();
    else
      impl_->sink->flush();
  } catch (const CrashFault&) {
    // The "process" died mid-frame; leave the torn bytes exactly as a real
    // crash would. Recovery truncates them on the next open.
    throw;
  } catch (const IoError&) {
    // Roll the file back to the frame boundary so the log stays valid for
    // subsequent appends; if even that fails, the torn tail is repaired on
    // the next open.
    impl_->obs_rollbacks.inc();
    try {
      impl_->sink->truncate_to(frame_start);
    } catch (const IoError&) {
    }
    throw;
  }
  impl_->obs_appends.inc();
  if (span.active())
    span.note("seq " + std::to_string(seq) + ", " + std::to_string(size) +
              " payload byte(s) in " +
              std::to_string(payload.ranges().size()) + " range(s)");
  return next_seq_++;
}

void StableStorage::reset() {
  impl_->sink.reset();
  // Truncate by reopening in truncate mode, then switch back to append.
  { FileSink truncate(path_, FileSink::Mode::kTruncate); }
  open_for_append();
}

std::string StableStorage::quarantine_path(const std::string& path,
                                           unsigned n) {
  return path + ".quarantine." + std::to_string(n);
}

std::vector<std::string> StableStorage::generation_chain(
    const std::string& path) {
  std::vector<std::string> chain;
  for (unsigned n = 1; file_exists(quarantine_path(path, n)); ++n)
    chain.push_back(quarantine_path(path, n));
  std::reverse(chain.begin(), chain.end());
  return chain;
}

RotateResult StableStorage::rotate(const RotateHook& hook) {
  obs::Span span("storage.rotate", "io");
  RotateResult result;
  unsigned n = 1;
  while (file_exists(quarantine_path(path_, n))) ++n;
  result.generation = n;
  result.quarantine_path = quarantine_path(path_, n);
  result.bytes_quarantined =
      impl_->sink != nullptr ? impl_->sink->offset() : 0;
  if (hook) hook(RotateStage::kBeforeQuarantine);
  impl_->sink.reset();
  try {
    rename_durable(path_, result.quarantine_path);
  } catch (const IoError&) {
    // The log never left its live path; restore the append invariant and
    // let the caller's ladder decide what happens next.
    open_for_append();
    throw;
  }
  // The .bak tail (if any) belongs to the quarantined generation; carry it
  // along so post-mortem fsck sees the whole picture. Best-effort: a .bak
  // is re-creatable damage, never primary data.
  if (file_exists(path_ + ".bak"))
    std::rename((path_ + ".bak").c_str(),
                (result.quarantine_path + ".bak").c_str());
  // Likewise the retention manifest: it declared the epochs of the log that
  // just moved, so it follows the log into quarantine (leaving it at the
  // live path would make fsck audit the fresh generation against the old
  // generation's schedule).
  if (file_exists(path_ + ".retain"))
    std::rename((path_ + ".retain").c_str(),
                (result.quarantine_path + ".retain").c_str());
  if (hook) hook(RotateStage::kAfterQuarantine);
  open_for_append();
  if (hook) hook(RotateStage::kAfterReopen);
  obs::counter("ickpt_log_rotations_total").inc();
  obs::instant("storage.rotate", "io",
               std::to_string(result.bytes_quarantined) +
                   " byte(s) quarantined to " + result.quarantine_path);
  if (span.active())
    span.note("generation " + std::to_string(n) + " opened, " +
              std::to_string(result.bytes_quarantined) +
              " byte(s) quarantined");
  return result;
}

ScanResult StableStorage::scan(const std::string& path, ScanOptions opts) {
  obs::Span span("storage.scan", "io");
  FrameIterator it(path, opts);
  ScanResult result = collect(it);
  publish_scan(it, result.frames.size());
  return result;
}

ScanResult StableStorage::scan_bytes(const std::vector<std::uint8_t>& bytes,
                                     ScanOptions opts) {
  FrameIterator it(bytes.data(), bytes.size(), opts);
  ScanResult result = collect(it);
  publish_scan(it, result.frames.size());
  return result;
}

RepairResult StableStorage::repair(const std::string& path) {
  RepairResult result;
  std::uint64_t keep = 0;
  bool read_past_damage = false;
  std::string first_damage;
  {
    // One salvage pass that keeps no payload past its frame. The iterator
    // records only the first damage, so its stop reason is what a plain
    // scan stops at; a frame read after that damage lies beyond it.
    obs::Span span("storage.scan", "io");
    FrameIterator it(path, {.salvage = true});
    Frame frame;
    while (it.next(frame)) {
      ++result.frames_kept;
      keep = frame.offset + kHeaderSize + frame.payload.size();
      read_past_damage = read_past_damage || !it.clean();
    }
    publish_scan(it, result.frames_kept);
    if (it.clean()) return result;
    first_damage = it.stop_reason();
  }

  // A damaged log can hold settled frames BEYOND the first corrupt region
  // (a bit flip lands mid-log; later appends — including full checkpoints —
  // land fine after it). Truncating at the first damage would destroy them,
  // so repair only removes the genuinely unreadable tail: everything after
  // the last frame the salvage pass can still read. Mid-log damage stays in
  // place — every reader of a repaired log (recovery, fsck, seq resume)
  // already salvages over it, and new appends land after a clean boundary.
  const std::uint64_t size = file_size(path);
  if (keep >= size) {
    // The file ends exactly at a valid frame boundary: the damage is all
    // mid-log, and nothing after the last readable frame needs removing.
    result.reason = first_damage + " (mid-log, preserved for salvage)";
    return result;
  }
  result.reason =
      read_past_damage ? first_damage + " + damaged tail" : first_damage;

  // Save the bytes being removed before touching the log, so a crash during
  // repair can lose the .bak (re-creatable) but never log bytes.
  result.bytes_removed = size - keep;
  result.bak_path = path + ".bak";
  {
    FileSink bak(result.bak_path, FileSink::Mode::kTruncate);
    copy_range(path, keep, size, bak);
    bak.durable_flush();
  }
  fsync_parent_dir(result.bak_path);
  truncate_file(path, keep);
  result.repaired = true;
  obs::counter("ickpt_storage_repairs_total").inc();
  obs::instant("storage.repair", "io",
               result.reason + ", " + std::to_string(result.bytes_removed) +
                   " byte(s) truncated");
  return result;
}

}  // namespace ickpt::io
