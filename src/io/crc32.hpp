// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Protects every stable-storage frame so recovery can distinguish a torn
// final write from a complete checkpoint (DESIGN.md §6, storage invariant).
//
// update() picks its kernel once per process. On x86-64 CPUs with PCLMULQDQ
// and SSE4.1, an input of 64 bytes or more is folded 64 bytes at a time by
// carry-less multiplication, and the bytewise table loop finishes its last
// 0-15 bytes. Shorter inputs, other CPUs and other architectures run the
// bytewise loop alone. Both compute the same polynomial, so every value,
// and every CRC stored in a log, is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ickpt::io {

class Crc32 {
 public:
  /// Incremental update: feed chunks, then call value().
  void update(const std::uint8_t* data, std::size_t n) noexcept;

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t compute(const std::uint8_t* data, std::size_t n) noexcept;

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace ickpt::io
