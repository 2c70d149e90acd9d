// Byte-sink abstraction: where checkpoint bytes go.
//
// This is the analog of the paper's java.io OutputStream family. The hot
// checkpoint path writes through a buffering DataWriter (data_writer.hpp), so
// a ByteSink only sees large flushes; per-value virtual-call overhead is paid
// once per buffer, as with Java's BufferedOutputStream/ByteArrayOutputStream.
//
// Every payload the library builds (a take's, a compaction rewrite's) goes
// into a ChunkSink: fixed-size chunks from a ChunkPool, mapped outside the
// malloc heap. A payload never grows by doubling, sharded capture joins its
// work items' chunk chains with splice() instead of copying them, and
// StableStorage appends the chain as ordered byte ranges (ByteRanges).
// VectorSink stays for callers that want contiguous bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace ickpt::io {

/// Destination for raw checkpoint bytes.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Append `n` bytes. Throws IoError on failure.
  virtual void write(const std::uint8_t* data, std::size_t n) = 0;

  /// Push buffered bytes toward stable storage. Default: no-op.
  virtual void flush() {}
};

/// In-memory sink (the ByteArrayOutputStream analog).
class VectorSink final : public ByteSink {
 public:
  void write(const std::uint8_t* data, std::size_t n) override {
    bytes_.insert(bytes_.end(), data, data + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(bytes_);
  }
  void clear() noexcept { bytes_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Discards bytes but counts them; used to measure checkpoint *size* and
/// pure traversal cost without paying for storage.
class CountingSink final : public ByteSink {
 public:
  void write(const std::uint8_t*, std::size_t n) override { count_ += n; }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  void reset() noexcept { count_ = 0; }

 private:
  std::size_t count_ = 0;
};

/// Fixed-size payload chunks, each its own anonymous mapping (mmap), so
/// payload memory never enters a malloc arena and never moves glibc's
/// dynamic mmap threshold. Thread-safe: sharded capture's workers acquire
/// chunks and AsyncLog's worker releases them.
///
/// The pool maps nothing until the first acquire(). A released chunk is
/// kept for reuse, its pages still resident, while fewer than the keep
/// limit (keep()) are free, and unmapped otherwise. CheckpointManager sets
/// the limit to each capture's chunk count, so between takes the pool
/// holds no more than the last take used. The destructor unmaps
/// everything; every sink drawing from the pool must be gone by then.
class ChunkPool {
 public:
  /// Bytes per chunk. Larger chunks cut the pieces per frame; smaller ones
  /// cut what each work item leaves unused in its last chunk (unused pages
  /// are mapped but never touched, so they cost address space, not RSS).
  /// On synth-capture's heap (4-vCPU VM, three runs of four cycles each),
  /// 256 KiB, 1 MiB and 4 MiB chunks gave the same incremental takes within
  /// noise (p50 4.0-4.5 ms), and 1 MiB full takes ran 28.8-29.4 ms against
  /// 30.2-31.3 ms with 256 KiB.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;
  ~ChunkPool();

  /// A chunk of kChunkBytes: a kept one when there is one, else a fresh
  /// mapping. Throws std::bad_alloc when the mapping fails.
  [[nodiscard]] std::uint8_t* acquire();
  /// Hand a chunk back: kept while fewer than the keep limit are free,
  /// unmapped otherwise.
  void release(std::uint8_t* chunk) noexcept;
  /// Keep at most `chunks` free chunks from now on, unmapping the surplus
  /// now. The limit starts unbounded.
  void keep(std::size_t chunks) noexcept;

  /// Bytes this pool has mapped now: chunks in use plus kept ones.
  [[nodiscard]] std::size_t mapped_bytes() const;
  /// High-water mark of mapped_bytes() over the pool's life.
  [[nodiscard]] std::size_t peak_mapped_bytes() const;
  /// Free chunks held for reuse.
  [[nodiscard]] std::size_t kept_chunks() const;
  /// Bytes every pool in the process has mapped now.
  [[nodiscard]] static std::size_t mapped_bytes_total() noexcept;

 private:
  mutable std::mutex mu_;
  std::vector<std::uint8_t*> free_;
  std::size_t keep_ = SIZE_MAX;
  std::size_t mapped_ = 0;  ///< chunks
  std::size_t peak_ = 0;    ///< chunks
};

/// Sink that fills fixed-size chunks drawn from a ChunkPool. Its bytes are
/// an ordered list of ranges, one per chunk; splice() moves another sink's
/// chunks behind this one's without copying a byte. Not thread-safe: one
/// writer at a time, like every sink. Destroying or clearing the sink
/// returns its chunks to the pool.
class ChunkSink final : public ByteSink {
 public:
  explicit ChunkSink(ChunkPool& pool) noexcept : pool_(&pool) {}
  ChunkSink(ChunkSink&& other) noexcept;
  ChunkSink& operator=(ChunkSink&& other) noexcept;
  ChunkSink(const ChunkSink&) = delete;
  ChunkSink& operator=(const ChunkSink&) = delete;
  ~ChunkSink() override { clear(); }

  void write(const std::uint8_t* data, std::size_t n) override;

  /// Move `other`'s chunks behind this sink's, leaving `other` empty. Both
  /// must draw from the same pool. Room left in this sink's last chunk
  /// stays unused; later writes fill the room in `other`'s last chunk.
  /// Throws std::bad_alloc, with both sinks unchanged, when the chunk list
  /// cannot grow.
  void splice(ChunkSink&& other);

  /// The bytes, in order: one range per chunk.
  [[nodiscard]] std::span<const std::span<const std::uint8_t>> ranges()
      const noexcept {
    return ranges_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t chunks() const noexcept { return ranges_.size(); }
  [[nodiscard]] ChunkPool& pool() const noexcept { return *pool_; }

  /// The bytes copied into one vector.
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const;

  /// Return every chunk to the pool.
  void clear() noexcept;

 private:
  ChunkPool* pool_;
  /// Filled part of each chunk; a chunk's first byte is its range's data().
  std::vector<std::span<const std::uint8_t>> ranges_;
  std::size_t size_ = 0;
  std::size_t room_ = 0;  ///< unwritten bytes in the last chunk
};

/// Ordered byte ranges read as one byte string: a payload as a ChunkSink
/// holds it, or one contiguous buffer.
class ByteRanges {
 public:
  // Implicit on purpose: a vector is one range, so append(vector) reads as
  // it always did.
  ByteRanges(const std::vector<std::uint8_t>& bytes) noexcept  // NOLINT
      : one_(bytes) {}
  ByteRanges(std::span<const std::span<const std::uint8_t>> ranges) noexcept  // NOLINT
      : many_(ranges), multi_(true) {}

  [[nodiscard]] std::span<const std::span<const std::uint8_t>> ranges()
      const noexcept {
    return multi_ ? many_ : std::span<const std::span<const std::uint8_t>>(
                                &one_, 1);
  }
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const std::span<const std::uint8_t> r : ranges()) n += r.size();
    return n;
  }

 private:
  std::span<const std::uint8_t> one_;
  std::span<const std::span<const std::uint8_t>> many_;
  bool multi_ = false;
};

}  // namespace ickpt::io
