#include "io/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ickpt::io {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

#if defined(__x86_64__)

/// Whether this CPU can run fold_clmul(); probed once.
bool have_clmul() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

__m128i load16(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// x * k: folds 128 bits forward by the distance the constant pair encodes.
__attribute__((target("pclmul,sse4.1"))) __m128i fold16(__m128i x,
                                                         __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009): four
/// 128-bit lanes fold 64 bytes per step, then fold to one lane, then 16
/// bytes per step, then a Barrett reduction to 32 bits. Takes and returns
/// the internal (pre-inverted) register, like the bytewise loop, so chunked
/// updates compose. Requires n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_clmul(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) noexcept {
  // Constants for the reflected polynomial 0xEDB88320 (x^k mod P, bit
  // reflected), as in zlib's crc32_simd: fold by 4 lanes, fold by 1 lane,
  // 64->32 fold, then P' and mu for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = _mm_xor_si128(fold16(x1, k1k2), load16(p));
    x2 = _mm_xor_si128(fold16(x2, k1k2), load16(p + 16));
    x3 = _mm_xor_si128(fold16(x3, k1k2), load16(p + 32));
    x4 = _mm_xor_si128(fold16(x4, k1k2), load16(p + 48));
  }
  x1 = _mm_xor_si128(fold16(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x4);
  for (; n >= 16; p += 16, n -= 16)
    x1 = _mm_xor_si128(fold16(x1, k3k4), load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // __x86_64__

}  // namespace

void Crc32::update(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint32_t c = state_;
#if defined(__x86_64__)
  if (n >= 64 && have_clmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = fold_clmul(data, folded, c);
    data += folded;
    n -= folded;
  }
#endif
  // The bytewise loop: the whole input below 64 bytes or without PCLMUL,
  // and the tail under 16 bytes after the folded kernel.
  for (std::size_t i = 0; i < n; ++i)
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

std::uint32_t Crc32::compute(const std::uint8_t* data, std::size_t n) noexcept {
  Crc32 crc;
  crc.update(data, n);
  return crc.value();
}

}  // namespace ickpt::io
