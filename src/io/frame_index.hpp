// Epoch-addressed index of a checkpoint log.
//
// The storage layer frames opaque payloads; which epoch a frame carries is
// written by the core stream encoder inside the payload. Time-travel
// recovery and fsck's retention audit both need to answer "which epochs are
// on this log, and where" without materializing any payload — so this scan
// streams every frame through FrameIterator's fixed window (salvage-aware,
// FrameIterator::next_header) and asks a caller-supplied HeaderProbe to
// read the epoch/mode out of the few leading payload bytes it keeps. The
// probe keeps the layering honest: io stays ignorant of the checkpoint
// stream format, core (which owns the stream header) supplies the few
// lines that understand it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/stable_storage.hpp"

namespace ickpt::io {

struct IndexedFrame {
  std::uint64_t seq = 0;
  /// Byte offset of the frame header within the log.
  std::uint64_t offset = 0;
  std::size_t payload_bytes = 0;
  /// A corrupt region lies between this frame and the previous one.
  bool resync = false;
  /// The HeaderProbe accepted the payload's leading bytes: with
  /// core::stream_header_probe(), the stream header's fixed fields (magic,
  /// version, mode, epoch) parse. Nothing else in the payload is checked
  /// here; the list of roots is checked when the frame is applied, like
  /// every record. epoch/mode are meaningful iff header_ok.
  bool header_ok = false;
  std::uint64_t epoch = 0;
  /// Stream mode byte as written (core::Mode); meaningful iff header_ok.
  std::uint8_t mode = 0;
};

/// Reads epoch + mode from the leading bytes of a frame payload.
struct HeaderProbe {
  /// How many leading payload bytes `read` needs; the index keeps no more.
  std::size_t bytes = 0;
  /// Gets the payload's first `bytes` bytes (all of a shorter payload).
  /// Returns false, leaving the outputs alone, when they are not a
  /// parseable header. Unset: no frame is probed, none is header_ok.
  std::function<bool(std::span<const std::uint8_t> prefix,
                     std::uint64_t& epoch, std::uint8_t& mode)>
      read;
};

struct FrameIndex {
  std::vector<IndexedFrame> frames;
  // End-of-scan state, mirroring ScanResult.
  bool clean = true;
  std::string stop_reason;
  std::uint64_t stop_offset = 0;
  std::size_t regions_skipped = 0;
  std::uint64_t bytes_skipped = 0;

  /// Index (into frames) of the newest parseable frame carrying `epoch`;
  /// nullopt when the epoch is not on this log.
  [[nodiscard]] std::optional<std::size_t> find_epoch(
      std::uint64_t epoch) const;

  /// Largest parseable epoch < `epoch` on this log (nearest retained
  /// neighbor below a missing target), and smallest parseable epoch >
  /// `epoch`. Used to make "epoch not retained" errors actionable.
  [[nodiscard]] std::optional<std::uint64_t> nearest_below(
      std::uint64_t epoch) const;
  [[nodiscard]] std::optional<std::uint64_t> nearest_above(
      std::uint64_t epoch) const;

  /// Every distinct parseable epoch on this log, ascending.
  [[nodiscard]] std::vector<std::uint64_t> epochs() const;
};

/// Stream the log at `path` into an index. A missing file indexes as an
/// empty, clean log. Each payload streams through FrameIterator's fixed
/// window, which passes its CRC, and only its first `probe.bytes` bytes are
/// kept for the probe — memory is the window plus the index itself. Every
/// call is one published scan: a "storage.scan" span and the ickpt_scan*
/// counters (publish_scan).
FrameIndex index_frames(const std::string& path, ScanOptions opts,
                        const HeaderProbe& probe);

}  // namespace ickpt::io
