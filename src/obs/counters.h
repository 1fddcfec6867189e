// Counter and histogram registry for run instrumentation.
//
// A MetricRegistry is owned by whoever drives a run (the CLI, a bench, a
// test, a sweep cell) and handed to engines/schedulers through ObsSink
// (obs/sink.h).  Instruments are registered on first use and live for the
// registry's lifetime.  Decision events bump the sched.* and fault.*
// transition counters (ObsSink::event); the kernel writes the rest once,
// when the run finishes, from figures it already keeps (SimResult and its
// own tallies), and the engines feed two histograms.
//
// The registry is deliberately not thread-safe: the simulation engines are
// single-threaded per run, and parallel runners own one registry per run.
// The counter catalog lives in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dagsched {

/// Monotonically accumulating value (events, work, seconds).  Doubles so
/// time-like quantities (idle processor-time) share the type.
class Counter {
 public:
  void add(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-layout power-of-two histogram plus streaming count/sum/min/max.
/// Bucket i covers [2^(i-kBucketBias), 2^(i+1-kBucketBias)); values <= 0 or
/// below the smallest bound land in bucket 0, values beyond the largest in
/// the final bucket.  Good enough for dt distributions and queue depths
/// without per-observation allocation.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 40;
  static constexpr int kBucketBias = 20;  // bucket 0 starts at 2^-20

  void observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  const std::uint64_t* buckets() const { return buckets_; }
  /// Lower bound of bucket `i` (2^(i-kBucketBias)).
  static double bucket_lower_bound(std::size_t i);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kNumBuckets] = {};
};

/// Name -> instrument registry.  Instruments have stable addresses (deque
/// storage), so a resolved pointer stays valid for the registry's lifetime.
class MetricRegistry {
 public:
  Counter* counter(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Snapshots, sorted by name (deterministic report output).
  std::vector<std::pair<std::string, double>> counter_values() const;
  std::vector<std::pair<std::string, const Histogram*>> histogram_values()
      const;

 private:
  std::deque<Counter> counters_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Histogram*, std::less<>> histogram_index_;
};

enum class ObsEventKind;

/// The event->counter table (docs/OBSERVABILITY.md): bumps the counter(s)
/// of an event of `kind` with `reason`.  ObsSink::event calls it.
void count_event(MetricRegistry& metrics, ObsEventKind kind,
                 std::string_view reason);

}  // namespace dagsched
