#include "core/async_log.hpp"

#include <chrono>
#include <cstdio>
#include <optional>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

AsyncLog::AsyncLog(io::StableStorage& storage)
    : storage_(storage),
      obs_depth_(obs::gauge("ickpt_async_queue_depth")),
      obs_appends_(obs::counter("ickpt_async_appends_total")),
      obs_append_seconds_(obs::histogram("ickpt_async_append_seconds")) {
  thread_ = std::thread([this] { worker(); });
}

AsyncLog::~AsyncLog() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Destructors cannot throw; an append failure nobody drained must still
  // not vanish silently. It is counted and traced for the telemetry
  // pipeline *and* printed to stderr — an operator without a registry
  // installed still sees it.
  if (error_ != nullptr && !error_observed_) {
    obs::counter("ickpt_async_unobserved_errors_total").inc();
    try {
      std::rethrow_exception(error_);
    } catch (const std::exception& e) {
      obs::instant("async.unobserved_error", "async", e.what());
      std::fprintf(stderr,
                   "ickpt: AsyncLog destroyed with an unobserved append "
                   "failure (%zu queued payload(s) dropped): %s\n",
                   dropped_, e.what());
    } catch (...) {
      obs::instant("async.unobserved_error", "async");
      std::fprintf(stderr,
                   "ickpt: AsyncLog destroyed with an unobserved append "
                   "failure (%zu queued payload(s) dropped)\n",
                   dropped_);
    }
  }
}

void AsyncLog::rethrow_locked(std::unique_lock<std::mutex>&) {
  // The error stays sticky: a lost append leaves a hole in the frame/epoch
  // correspondence that appending more frames would silently paper over.
  if (error_ != nullptr) {
    error_observed_ = true;
    std::rethrow_exception(error_);
  }
}

void AsyncLog::submit(io::ChunkSink&& payload) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    rethrow_locked(lock);
    queue_.push_back(std::move(payload));
    obs_depth_.set(static_cast<std::int64_t>(queue_.size() +
                                             (in_flight_ ? 1 : 0)));
  }
  work_cv_.notify_one();
}

void AsyncLog::drain() {
  obs::Span span("async.drain", "async");
  // drain() is a cold synchronization point, so the flush-latency histogram
  // is looked up per call (also correct under late registry install).
  obs::Histogram flush_seconds = obs::histogram("ickpt_async_flush_seconds");
  const bool timed = flush_seconds.live();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() && !in_flight_) || error_ != nullptr;
  });
  if (timed)
    flush_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  rethrow_locked(lock);
}

std::size_t AsyncLog::pending() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queue_.size() + (in_flight_ ? 1 : 0);
}

bool AsyncLog::poisoned() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return error_ != nullptr;
}

std::size_t AsyncLog::dropped() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return dropped_;
}

void AsyncLog::set_profiling(bool on) {
  std::unique_lock<std::mutex> lock(mutex_);
  profiling_ = on;
}

obs::CaptureProfile AsyncLog::take_profile() {
  std::unique_lock<std::mutex> lock(mutex_);
  obs::CaptureProfile out = worker_profile_;
  worker_profile_.reset();
  return out;
}

void AsyncLog::rebind_metrics() {
  std::unique_lock<std::mutex> lock(mutex_);
  obs_depth_ = obs::gauge("ickpt_async_queue_depth");
  obs_appends_ = obs::counter("ickpt_async_appends_total");
  obs_append_seconds_ = obs::histogram("ickpt_async_append_seconds");
}

void AsyncLog::worker() {
  for (;;) {
    std::optional<io::ChunkSink> payload;
    bool profiling = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      payload.emplace(std::move(queue_.front()));
      queue_.pop_front();
      in_flight_ = true;
      profiling = profiling_;
    }
    // The seq this frame will carry; appends are FIFO so nothing else can
    // claim it first.
    const std::uint64_t seq = storage_.next_seq();
    std::exception_ptr error;
    const bool timed = obs_append_seconds_.live();
    std::chrono::steady_clock::time_point t0;
    if (timed) t0 = std::chrono::steady_clock::now();
    // Stage attribution for this one append: the storage's FileSink accrues
    // the fsync slice into `local` (hook installed just below), and the
    // write slice is the append wall minus that. Stack-local, so the only
    // synchronization is the add() under mutex_ afterwards.
    obs::CaptureProfile local;
    std::uint64_t prof_t0 = 0;
    if (profiling) {
      storage_.set_profile(&local);
      prof_t0 = obs::trace_now_ns();
    }
    try {
      storage_.append(payload->ranges());
      obs_appends_.inc();
    } catch (const std::exception& e) {
      error = std::make_exception_ptr(
          IoError("async append of frame seq " + std::to_string(seq) +
                  " failed: " + e.what()));
    } catch (...) {
      error = std::make_exception_ptr(IoError(
          "async append of frame seq " + std::to_string(seq) + " failed"));
    }
    if (timed)
      obs_append_seconds_.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    if (profiling) {
      const std::uint64_t elapsed = obs::trace_now_ns() - prof_t0;
      storage_.set_profile(nullptr);
      using P = obs::CaptureProfile;
      const std::uint64_t fsync_ns = local.stage_ns[P::kFsync];
      local.stage_ns[P::kWrite] += elapsed > fsync_ns ? elapsed - fsync_ns : 0;
      local.busy_ns += elapsed;
    }
    // The chunks go back to their pool before the append counts as done,
    // so a drain() that returns sees them there.
    payload.reset();
    bool poisoned_now = false;
    std::size_t dropped_now = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      in_flight_ = false;
      if (profiling) worker_profile_.add(local);
      if (error != nullptr && error_ == nullptr) {
        error_ = error;
        // Appending the rest would assign them earlier seqs than the
        // epochs they were taken for; drop them and fail stop.
        dropped_ = queue_.size();
        queue_.clear();
        poisoned_now = true;
        dropped_now = dropped_;
      }
      obs_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    if (poisoned_now) {
      // Poisoning is a once-per-log event; per-call lookups keep the hot
      // path free of it.
      obs::counter("ickpt_async_poisoned_total").inc();
      if (dropped_now > 0)
        obs::counter("ickpt_async_dropped_payloads_total").inc(dropped_now);
      obs::instant("async.poisoned", "async",
                   "frame seq " + std::to_string(seq) + ", " +
                       std::to_string(dropped_now) +
                       " queued payload(s) dropped");
    }
    idle_cv_.notify_all();
  }
}

}  // namespace ickpt::core
