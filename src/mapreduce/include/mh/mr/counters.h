#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file counters.h
/// Hadoop-style job counters: named 64-bit accumulators grouped by
/// namespace. Tasks count locally; the framework merges task counters into
/// the job's totals — the "final MapReduce job report" students read to see
/// the combiner's effect on shuffle volume.

namespace mh::mr {

class Counters {
 public:
  Counters() = default;
  Counters(const Counters& other);
  Counters& operator=(const Counters& other);

  void increment(std::string_view group, std::string_view name,
                 int64_t delta = 1);

  /// increment(), except that a zero delta is dropped: a counter that
  /// counted nothing is not created. For counts tallied locally and added
  /// once per task or pass.
  void addIfNonZero(std::string_view group, std::string_view name,
                    int64_t delta) {
    if (delta != 0) increment(group, name, delta);
  }

  /// Zero when the counter was never incremented.
  int64_t value(std::string_view group, std::string_view name) const;

  /// Adds every counter from `other` into this one.
  void merge(const Counters& other);

  /// Flat (group, name, value) triples, sorted — the wire/reporting form.
  std::vector<std::tuple<std::string, std::string, int64_t>> snapshot() const;

  /// Rebuilds from snapshot() output.
  static Counters fromSnapshot(
      const std::vector<std::tuple<std::string, std::string, int64_t>>& rows);

  /// Classic job-report rendering, grouped.
  std::string render() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::map<std::string, int64_t, std::less<>>,
           std::less<>>
      groups_;
};

}  // namespace mh::mr
