#include "io/file_io.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/error.hpp"
#include "obs/flightrec.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace ickpt::io {

namespace {
[[noreturn]] void fail(const std::string& op, const std::string& path) {
  throw IoError(op + " '" + path + "': " + std::strerror(errno));
}

std::string errno_label(int err) {
  switch (err) {
    case EINTR:
      return "EINTR";
    case ENOSPC:
      return "ENOSPC";
    case EIO:
      return "EIO";
    default:
      return std::to_string(err);
  }
}

// Fault/retry paths are cold (injection and real transient errors only), so
// they look the counters up per event — correct even if the registry was
// installed after the sink was built.
void count_retry(int err) {
  obs::counter("ickpt_storage_retries_total", {{"errno", errno_label(err)}})
      .inc();
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kShortWrite:
      return "short_write";
    case FaultKind::kBitFlip:
      return "bit_flip";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kCrash:
      return "crash";
  }
  return "?";
}

}  // namespace

FileSink::FileSink(const std::string& path, Mode mode)
    : path_(path),
      obs_bytes_(obs::counter("ickpt_storage_bytes_written_total")),
      obs_fsyncs_(obs::counter("ickpt_storage_fsyncs_total")) {
  file_ = std::fopen(path.c_str(), mode == Mode::kAppend ? "ab" : "wb");
  if (file_ == nullptr) fail("open", path);
  if (mode == Mode::kAppend) {
    // "ab" leaves the position unspecified until the first write; the write
    // offset we report must be the current file size.
    if (std::fseek(file_, 0, SEEK_END) != 0) fail("seek", path);
    long at = std::ftell(file_);
    if (at < 0) fail("tell", path);
    offset_ = static_cast<std::uint64_t>(at);
  }
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::backoff(unsigned attempt) const {
  const auto delay = backoff_delay(retry_, attempt);
  if (delay.count() <= 0) return;
  std::this_thread::sleep_for(delay);
}

void FileSink::write_raw(const std::uint8_t* data, std::size_t n) {
  unsigned attempts = 0;
  while (n != 0) {
    std::size_t written = std::fwrite(data, 1, n, file_);
    offset_ += written;
    obs_bytes_.inc(written);
    data += written;
    n -= written;
    if (n == 0) break;
    // Short write: retry the remainder on EINTR (with backoff once the
    // write stops making progress), fail hard on anything else.
    if (errno != EINTR) fail("write", path_);
    count_retry(EINTR);
    std::clearerr(file_);
    if (written == 0) {
      if (++attempts > retry_.max_attempts)
        throw IoError("write '" + path_ + "' failed after " +
                      std::to_string(attempts) + " attempt(s): " +
                      std::strerror(EINTR));
      backoff(attempts - 1);
    } else {
      attempts = 0;
    }
  }
}

void FileSink::write(const std::uint8_t* data, std::size_t n) {
  unsigned transient_attempts = 0;
  while (n != 0) {
    FaultDecision d;
    if (fault_ != nullptr) d = fault_->on_write(offset_, n);
    if (d.kind != FaultKind::kNone) {
      obs::counter("ickpt_storage_faults_total",
                   {{"kind", fault_kind_name(d.kind)}})
          .inc();
      obs::instant("storage.fault", "io", fault_kind_name(d.kind));
      if (flightrec_ != nullptr)
        flightrec_->record(obs::FlightEventType::kFault, 0, offset_, n,
                           fault_kind_name(d.kind));
    }
    switch (d.kind) {
      case FaultKind::kNone:
        write_raw(data, n);
        return;
      case FaultKind::kTornWrite: {
        std::size_t k = d.byte_limit < n ? d.byte_limit : n;
        write_raw(data, k);
        flush();
        throw IoError("injected torn write: " + std::to_string(k) + " of " +
                      std::to_string(k + n) + " byte(s) reached '" + path_ +
                      "'");
      }
      case FaultKind::kShortWrite: {
        std::size_t k = d.byte_limit < n ? d.byte_limit : n;
        write_raw(data, k);
        data += k;
        n -= k;
        if (k == 0 && ++transient_attempts > retry_.max_attempts)
          throw IoError("write '" + path_ + "' made no progress after " +
                        std::to_string(transient_attempts) + " attempt(s)");
        break;  // re-consult the policy for the remainder
      }
      case FaultKind::kBitFlip: {
        // Silent corruption: the bytes land, one bit wrong. Only the frame
        // CRC can catch this later.
        std::vector<std::uint8_t> copy(data, data + n);
        std::size_t at = d.byte_limit < n ? d.byte_limit : n - 1;
        copy[at] ^= 0x01;
        write_raw(copy.data(), n);
        return;
      }
      case FaultKind::kTransient: {
        if (++transient_attempts > retry_.max_attempts)
          throw IoError("write '" + path_ + "' failed after " +
                        std::to_string(transient_attempts) +
                        " attempt(s): " + std::strerror(d.transient_errno));
        count_retry(d.transient_errno);
        backoff(transient_attempts - 1);
        break;  // retry: consult the policy again
      }
      case FaultKind::kCrash: {
        std::size_t k = d.byte_limit < n ? d.byte_limit : n;
        write_raw(data, k);
        flush();
        throw CrashFault("simulated crash at byte offset " +
                         std::to_string(offset_) + " of '" + path_ + "'");
      }
    }
  }
}

void FileSink::write_ranges(
    std::span<const std::span<const std::uint8_t>> ranges) {
#ifdef __unix__
  if (fault_ == nullptr) {
    flush();  // buffered bytes go first
    std::vector<iovec> iov;
    iov.reserve(ranges.size());
    for (const std::span<const std::uint8_t> r : ranges)
      if (!r.empty())
        iov.push_back({const_cast<std::uint8_t*>(r.data()), r.size()});
    std::size_t at = 0;  // first iovec not yet fully written
    unsigned attempts = 0;
    while (at < iov.size()) {
      const int count =
          static_cast<int>(std::min<std::size_t>(iov.size() - at, IOV_MAX));
      const ssize_t written = ::writev(::fileno(file_), &iov[at], count);
      if (written <= 0) {
        // Retry EINTR and no progress with backoff, as write_raw does.
        if (written < 0 && errno != EINTR) fail("write", path_);
        count_retry(EINTR);
        if (++attempts > retry_.max_attempts)
          throw IoError("write '" + path_ + "' failed after " +
                        std::to_string(attempts) + " attempt(s): " +
                        std::strerror(EINTR));
        backoff(attempts - 1);
        continue;
      }
      attempts = 0;
      auto left = static_cast<std::size_t>(written);
      offset_ += left;
      obs_bytes_.inc(left);
      while (at < iov.size() && left >= iov[at].iov_len) left -= iov[at++].iov_len;
      if (left > 0) {
        iov[at].iov_base = static_cast<std::uint8_t*>(iov[at].iov_base) + left;
        iov[at].iov_len -= left;
      }
    }
    return;
  }
#endif
  for (const std::span<const std::uint8_t> r : ranges) write(r.data(), r.size());
}

void FileSink::flush() {
  if (std::fflush(file_) != 0) fail("flush", path_);
}

void FileSink::durable_flush() {
  flush();
  if (prof_ != nullptr) {
    const std::uint64_t t0 = obs::trace_now_ns();
#ifdef __unix__
    if (::fsync(::fileno(file_)) != 0) fail("fsync", path_);
#endif
    prof_->stage_ns[obs::CaptureProfile::kFsync] += obs::trace_now_ns() - t0;
  } else {
#ifdef __unix__
    if (::fsync(::fileno(file_)) != 0) fail("fsync", path_);
#endif
  }
  obs_fsyncs_.inc();
}

void FileSink::rebind_metrics() noexcept {
  obs_bytes_ = obs::counter("ickpt_storage_bytes_written_total");
  obs_fsyncs_ = obs::counter("ickpt_storage_fsyncs_total");
}

void FileSink::truncate_to(std::uint64_t size) {
  flush();
#ifdef __unix__
  if (::ftruncate(::fileno(file_), static_cast<off_t>(size)) != 0)
    fail("truncate", path_);
#else
  if (size != offset_) fail("truncate unsupported", path_);
#endif
  offset_ = size;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("open", path);
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    out.insert(out.end(), buf, buf + n);
  bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) fail("read", path);
  return out;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  FileSink sink(path);
  sink.write(bytes.data(), bytes.size());
  sink.flush();
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void fsync_parent_dir(const std::string& path) {
#ifdef __unix__
  std::size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) fail("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync dir", dir);
#else
  (void)path;
#endif
}

void rename_durable(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) fail("rename", from);
  fsync_parent_dir(to);
}

void truncate_file(const std::string& path, std::uint64_t size) {
#ifdef __unix__
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    fail("truncate", path);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync", path);
#else
  auto bytes = read_file(path);
  if (size > bytes.size()) fail("truncate beyond end", path);
  bytes.resize(size);
  write_file(path, bytes);
#endif
}

}  // namespace ickpt::io
