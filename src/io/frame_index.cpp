#include "io/frame_index.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace ickpt::io {

std::optional<std::size_t> FrameIndex::find_epoch(std::uint64_t epoch) const {
  // Newest wins: a policy compaction or a rebase can legitimately write an
  // epoch again; the most recent frame for it is the authoritative one.
  for (std::size_t i = frames.size(); i-- > 0;) {
    if (frames[i].header_ok && frames[i].epoch == epoch) return i;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> FrameIndex::nearest_below(
    std::uint64_t epoch) const {
  std::optional<std::uint64_t> best;
  for (const IndexedFrame& f : frames) {
    if (f.header_ok && f.epoch < epoch && (!best || f.epoch > *best))
      best = f.epoch;
  }
  return best;
}

std::optional<std::uint64_t> FrameIndex::nearest_above(
    std::uint64_t epoch) const {
  std::optional<std::uint64_t> best;
  for (const IndexedFrame& f : frames) {
    if (f.header_ok && f.epoch > epoch && (!best || f.epoch < *best))
      best = f.epoch;
  }
  return best;
}

std::vector<std::uint64_t> FrameIndex::epochs() const {
  std::vector<std::uint64_t> out;
  for (const IndexedFrame& f : frames) {
    if (f.header_ok) out.push_back(f.epoch);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

FrameIndex index_frames(const std::string& path, ScanOptions opts,
                        const HeaderProbe& probe) {
  obs::Span span("storage.scan", "io");
  FrameIndex index;
  FrameIterator it(path, opts);
  Frame frame;
  while (it.next_header(frame, probe.bytes)) {
    IndexedFrame meta;
    meta.seq = frame.seq;
    meta.offset = frame.offset;
    meta.payload_bytes = frame.payload_bytes;
    meta.resync = frame.resync;
    if (probe.read)
      meta.header_ok = probe.read(frame.payload, meta.epoch, meta.mode);
    index.frames.push_back(meta);
  }
  index.clean = it.clean();
  index.stop_reason = it.stop_reason();
  index.stop_offset = it.stop_offset();
  index.regions_skipped = it.regions_skipped();
  index.bytes_skipped = it.bytes_skipped();
  publish_scan(it, index.frames.size());
  return index;
}

}  // namespace ickpt::io
