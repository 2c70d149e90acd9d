#include "io/byte_sink.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace ickpt::io {

namespace {

/// Chunks mapped by every pool in the process.
std::atomic<std::size_t> g_mapped_chunks{0};

std::uint8_t* map_chunk() {
  void* p = ::mmap(nullptr, ChunkPool::kChunkBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  g_mapped_chunks.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::uint8_t*>(p);
}

void unmap_chunk(std::uint8_t* chunk) noexcept {
  ::munmap(chunk, ChunkPool::kChunkBytes);
  g_mapped_chunks.fetch_sub(1, std::memory_order_relaxed);
}

/// Unmap `chunks` (sorted by address), one munmap per run of adjacent
/// ones. Chunks mapped one after another usually sit side by side, and
/// each munmap pays a TLB flush on every CPU that ran the process's
/// threads.
void unmap_sorted(std::span<std::uint8_t* const> chunks) noexcept {
  for (std::size_t i = 0; i < chunks.size();) {
    std::size_t run = 1;
    while (i + run < chunks.size() &&
           chunks[i + run] == chunks[i] + run * ChunkPool::kChunkBytes)
      ++run;
    ::munmap(chunks[i], run * ChunkPool::kChunkBytes);
    g_mapped_chunks.fetch_sub(run, std::memory_order_relaxed);
    i += run;
  }
}

}  // namespace

// --- ChunkPool ---------------------------------------------------------------

ChunkPool::~ChunkPool() {
  // Sinks return their chunks on destruction, so only kept ones are left.
  std::sort(free_.begin(), free_.end());
  unmap_sorted(free_);
}

std::uint8_t* ChunkPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::uint8_t* chunk = free_.back();
      free_.pop_back();
      return chunk;
    }
    // Counted before the mapping so the high-water mark never lags a chunk
    // another thread can already see; undone below if the mapping fails.
    peak_ = std::max(peak_, ++mapped_);
  }
  try {
    return map_chunk();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    --mapped_;
    throw;
  }
}

void ChunkPool::release(std::uint8_t* chunk) noexcept {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < keep_) {
      // A chunk the list has no room for is unmapped instead.
      try {
        free_.push_back(chunk);
        return;
      } catch (...) {
      }
    }
    --mapped_;
  }
  unmap_chunk(chunk);
}

void ChunkPool::keep(std::size_t chunks) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  keep_ = chunks;
  if (free_.size() <= keep_) return;
  // The lowest chunks stay and the rest go, in runs of neighbours.
  std::sort(free_.begin(), free_.end());
  const std::span<std::uint8_t* const> surplus(free_.data() + keep_,
                                               free_.size() - keep_);
  unmap_sorted(surplus);
  mapped_ -= surplus.size();
  free_.resize(keep_);
}

std::size_t ChunkPool::mapped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mapped_ * kChunkBytes;
}

std::size_t ChunkPool::peak_mapped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_ * kChunkBytes;
}

std::size_t ChunkPool::kept_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

std::size_t ChunkPool::mapped_bytes_total() noexcept {
  return g_mapped_chunks.load(std::memory_order_relaxed) * kChunkBytes;
}

// --- ChunkSink ---------------------------------------------------------------

ChunkSink::ChunkSink(ChunkSink&& other) noexcept
    : pool_(other.pool_),
      ranges_(std::move(other.ranges_)),
      size_(std::exchange(other.size_, 0)),
      room_(std::exchange(other.room_, 0)) {
  other.ranges_.clear();
}

ChunkSink& ChunkSink::operator=(ChunkSink&& other) noexcept {
  if (this != &other) {
    clear();
    pool_ = other.pool_;
    ranges_ = std::move(other.ranges_);
    other.ranges_.clear();
    size_ = std::exchange(other.size_, 0);
    room_ = std::exchange(other.room_, 0);
  }
  return *this;
}

void ChunkSink::write(const std::uint8_t* data, std::size_t n) {
  size_ += n;
  while (n != 0) {
    if (room_ == 0) {
      // Room first, so a chunk is never acquired without a slot to hold it.
      if (ranges_.size() == ranges_.capacity())
        ranges_.reserve(std::max<std::size_t>(8, 2 * ranges_.size()));
      ranges_.emplace_back(pool_->acquire(), 0);
      room_ = ChunkPool::kChunkBytes;
    }
    std::span<const std::uint8_t>& tail = ranges_.back();
    const std::size_t k = std::min(n, room_);
    // The sink owns the chunk; the range is const only toward readers.
    std::memcpy(const_cast<std::uint8_t*>(tail.data()) + tail.size(), data, k);
    tail = {tail.data(), tail.size() + k};
    room_ -= k;
    data += k;
    n -= k;
  }
}

void ChunkSink::splice(ChunkSink&& other) {
  assert(other.pool_ == pool_);
  if (other.ranges_.empty()) return;
  if (ranges_.empty()) {
    ranges_ = std::move(other.ranges_);
  } else {
    ranges_.insert(ranges_.end(), other.ranges_.begin(), other.ranges_.end());
  }
  other.ranges_.clear();
  size_ += std::exchange(other.size_, 0);
  room_ = std::exchange(other.room_, 0);
}

std::vector<std::uint8_t> ChunkSink::to_vector() const {
  std::vector<std::uint8_t> out;
  out.reserve(size_);
  for (const std::span<const std::uint8_t> r : ranges_)
    out.insert(out.end(), r.begin(), r.end());
  return out;
}

void ChunkSink::clear() noexcept {
  for (const std::span<const std::uint8_t> r : ranges_)
    pool_->release(const_cast<std::uint8_t*>(r.data()));
  ranges_.clear();
  size_ = 0;
  room_ = 0;
}

}  // namespace ickpt::io
