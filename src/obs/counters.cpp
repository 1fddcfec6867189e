#include "obs/counters.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "obs/event_log.h"

namespace dagsched {

void Histogram::observe(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;

  std::size_t bucket = 0;
  if (value > 0.0) {
    const int exponent = static_cast<int>(std::floor(std::log2(value)));
    const int index = exponent + kBucketBias;
    if (index > 0) {
      bucket = std::min<std::size_t>(static_cast<std::size_t>(index),
                                     kNumBuckets - 1);
    }
  }
  ++buckets_[bucket];
}

double Histogram::bucket_lower_bound(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) - kBucketBias);
}

Counter* MetricRegistry::counter(std::string_view name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  counters_.emplace_back();
  Counter* instrument = &counters_.back();
  counter_index_.emplace(std::string(name), instrument);
  return instrument;
}

Histogram* MetricRegistry::histogram(std::string_view name) {
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return it->second;
  histograms_.emplace_back();
  Histogram* instrument = &histograms_.back();
  histogram_index_.emplace(std::string(name), instrument);
  return instrument;
}

std::vector<std::pair<std::string, double>> MetricRegistry::counter_values()
    const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counter_index_.size());
  for (const auto& [name, instrument] : counter_index_) {
    out.emplace_back(name, instrument->value());
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<std::pair<std::string, const Histogram*>>
MetricRegistry::histogram_values() const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histogram_index_.size());
  for (const auto& [name, instrument] : histogram_index_) {
    out.emplace_back(name, instrument);
  }
  return out;
}

void count_event(MetricRegistry& metrics, ObsEventKind kind,
                 std::string_view reason) {
  const auto bump = [&metrics](std::string_view name) {
    metrics.counter(name)->add(1.0);
  };
  switch (kind) {
    case ObsEventKind::kAdmit:
      if (reason == "promoted") bump("sched.promotions");
      [[fallthrough]];
    case ObsEventKind::kSchedule: return bump("sched.admissions");
    case ObsEventKind::kDefer: return bump("sched.deferrals");
    case ObsEventKind::kReadmitFail: return bump("sched.readmit_fails");
    case ObsEventKind::kProcDown: return bump("fault.proc_downs");
    case ObsEventKind::kProcUp: return bump("fault.proc_ups");
    case ObsEventKind::kNodeRestart: return bump("fault.node_restarts");
    case ObsEventKind::kWorkOverrun: return bump("fault.work_overruns");
    case ObsEventKind::kDrop: break;
    default: return;  // lifecycle, overload and abort events count nothing
  }
  if (reason.starts_with("overload.shed.")) {
    return bump("sched.drops.overload");
  }
  // The slug with '-' written as '_', built on the stack so that counting
  // an event allocates nothing; only an unusually long slug takes the heap.
  constexpr std::string_view kPrefix = "sched.drops.";
  std::array<char, 64> stack{};
  std::string heap;
  const std::size_t size = kPrefix.size() + reason.size();
  char* name = stack.data();
  if (size > stack.size()) {
    heap.resize(size);
    name = heap.data();
  }
  std::copy(kPrefix.begin(), kPrefix.end(), name);
  std::replace_copy(reason.begin(), reason.end(), name + kPrefix.size(), '-',
                    '_');
  bump(std::string_view(name, size));
}

}  // namespace dagsched
