#include "core/density_index.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace dagsched {

void DensityWindowIndex::clear() {
  entries_.clear();
  ++version_;
}

void DensityWindowIndex::insert(JobId job, Density v, ProcCount n) {
  DS_CHECK_MSG(v > 0.0, "density must be > 0");
  DS_CHECK_MSG(n >= 1, "requirement must be >= 1");
  DS_CHECK_MSG(!contains(job), "job " << job << " already in index");
  const Entry entry{v, static_cast<double>(n), job};
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry, [](const Entry& a, const Entry& b) {
        if (a.v != b.v) return a.v < b.v;
        return a.job < b.job;
      });
  entries_.insert(it, entry);
  ++version_;
}

bool DensityWindowIndex::erase(JobId job) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [job](const Entry& e) { return e.job == job; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  ++version_;
  return true;
}

bool DensityWindowIndex::contains(JobId job) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [job](const Entry& e) { return e.job == job; });
}

void DensityWindowIndex::rebuild_prefix() const {
  prefix_.resize(entries_.size() + 1);
  prefix_[0] = 0.0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + entries_[i].n;
  }
  prefix_version_ = version_;
}

void DensityWindowIndex::ensure_windows(double c) const {
  if (win_version_ == version_ && win_c_ == c) return;
  if (prefix_version_ != version_) rebuild_prefix();
  // Both bounds are non-decreasing in j (entries are sorted and c > 0), so
  // two pointers that apply lower_index()'s `e.v < value` test reproduce its
  // indices, and the same prefix subtraction gives window_load() bit for
  // bit.
  const std::size_t k = entries_.size();
  win_.resize(k);
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const Density vj = entries_[j].v;
    const Density top = c * vj;
    while (lo < k && entries_[lo].v < vj) ++lo;
    while (hi < k && entries_[hi].v < top) ++hi;
    win_[j] = prefix_[hi] - prefix_[lo];
  }
  win_c_ = c;
  win_version_ = version_;
}

std::size_t DensityWindowIndex::lower_index(Density v) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const Entry& e, Density value) { return e.v < value; });
  return static_cast<std::size_t>(it - entries_.begin());
}

std::size_t DensityWindowIndex::upper_index(Density v) const {
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), v,
      [](Density value, const Entry& e) { return value < e.v; });
  return static_cast<std::size_t>(it - entries_.begin());
}

double DensityWindowIndex::window_load(Density lo, Density hi) const {
  if (prefix_version_ != version_) rebuild_prefix();
  const std::size_t first = lower_index(lo);
  const std::size_t last = lower_index(hi);
  return prefix_[last] - prefix_[first];
}

double DensityWindowIndex::load_at_least(Density v) const {
  if (prefix_version_ != version_) rebuild_prefix();
  const std::size_t first = lower_index(v);
  return prefix_.back() - prefix_[first];
}

bool DensityWindowIndex::admits(Density v, ProcCount n, double c,
                                double cap) const {
  AdmitCursor fresh;
  return admits(v, n, c, cap, fresh);
}

bool DensityWindowIndex::admits(Density v, ProcCount n, double c, double cap,
                                AdmitCursor& cursor) const {
  DS_CHECK(c > 1.0 && v > 0.0 && n >= 1);
  const Density top = c * v;
  const Density bottom = v / c;
  // The four bounds index the same members as at the cursor's density.
  if (cursor.version == version_ && cursor.n == n && cursor.c == c &&
      cursor.cap == cap && v <= cursor.v && cursor.below_v < v &&
      cursor.below_top < top && cursor.below_bottom <= bottom &&
      cursor.at_most_v <= v) {
    return cursor.admits;
  }
  const std::size_t own_lo = lower_index(v);
  const std::size_t own_hi = lower_index(top);
  const std::size_t from = upper_index(bottom);
  const std::size_t to = upper_index(v);
  const auto below = [this](std::size_t i) {
    return i == 0 ? -std::numeric_limits<Density>::infinity()
                  : entries_[i - 1].v;
  };
  const double n_new = static_cast<double>(n);
  const bool admitted = [&] {
    if (prefix_version_ != version_) rebuild_prefix();
    // The new job's own window [v, c*v).
    if (prefix_[own_hi] - prefix_[own_lo] + n_new > cap) return false;
    // Existing windows that gain the new member: starts v_j in (v/c, v].
    // (Their windows [v_j, c*v_j) contain v exactly when v_j > v/c and
    // v_j <= v.)
    if (from >= to) return true;
    ensure_windows(c);
    for (std::size_t i = from; i < to; ++i) {
      if (win_[i] + n_new > cap) return false;
    }
    return true;
  }();
  cursor = {.version = version_,
            .n = n,
            .c = c,
            .cap = cap,
            .v = v,
            .below_v = below(own_lo),
            .below_top = below(own_hi),
            .below_bottom = below(from),
            .at_most_v = below(to),
            .admits = admitted};
  return admitted;
}

double DensityWindowIndex::max_window_load(double c) const {
  DS_CHECK(c > 0.0);
  ensure_windows(c);
  double worst = 0.0;
  for (const double load : win_) worst = std::max(worst, load);
  return worst;
}

}  // namespace dagsched
