#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>

/// \file stopwatch.h
/// Wall-clock timer over std::chrono::steady_clock for live-layer
/// measurements (benchmarks use google-benchmark's own timing; this is for
/// counters and progress reporting), and the wake-up every daemon loop
/// paces itself with.

namespace mh {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void restart() { start_ = std::chrono::steady_clock::now(); }

  int64_t elapsedMillis() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  int64_t elapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  double elapsedSeconds() const {
    return static_cast<double>(elapsedMicros()) / 1e6;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Paces a daemon loop. wait() blocks for one interval and returns early
/// when another thread calls notify() (a push: news that should not wait
/// out the interval) or when the loop's stop token fires, so shutdown never
/// waits out an interval either. Notifications that arrive while the loop
/// is busy coalesce into one early return.
class Wakeup {
 public:
  /// Returns false once `token` has been stopped; true after a timeout or
  /// a notify().
  bool wait(const std::stop_token& token, std::chrono::milliseconds interval) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, token, interval, [this] { return notified_; });
    notified_ = false;
    return !token.stop_requested();
  }

  void notify() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      notified_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable_any cv_;
  bool notified_ = false;
};

}  // namespace mh
