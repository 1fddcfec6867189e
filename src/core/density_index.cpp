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

JobId DensityWindowIndex::served_last() const {
  DS_CHECK(!entries_.empty());
  return entries_[upper_index(entries_.front().v) - 1].job;
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
  AdmitWalk walk;
  place_walk(walk, v, c);
  settle_walk(walk, n, c, cap);
  return walk.admits;
}

Density DensityWindowIndex::start_walk(AdmitWalk& walk, Density v,
                                       ProcCount n, double c,
                                       double cap) const {
  place_walk(walk, v, c);
  settle_walk(walk, n, c, cap);
  return walk_break(walk, n, c, cap);
}

Density DensityWindowIndex::lower_walk(AdmitWalk& walk, Density v,
                                       ProcCount n, double c,
                                       double cap) const {
  lower_positions(walk, v, c);
  settle_walk(walk, n, c, cap);
  return walk_break(walk, n, c, cap);
}

void DensityWindowIndex::place_walk(AdmitWalk& walk, Density v,
                                    double c) const {
  DS_CHECK(c > 1.0 && v > 0.0);
  const Density top = c * v;
  const Density bottom = v / c;
  // Each position counts the members that pass its search predicate,
  // which hold on a prefix.  A few members are counted faster than
  // searched: no branch depends on a density.
  constexpr std::size_t kCountBelow = 16;
  if (entries_.size() <= kCountBelow) {
    std::uint32_t own_lo = 0;
    std::uint32_t own_hi = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    for (const Entry& e : entries_) {
      own_lo += e.v < v ? 1u : 0u;
      own_hi += e.v < top ? 1u : 0u;
      from += bottom < e.v ? 0u : 1u;
      to += v < e.v ? 0u : 1u;
    }
    walk = {.own_lo = own_lo, .own_hi = own_hi, .from = from, .to = to,
            .clear = to, .admits = false};
    return;
  }
  walk.own_lo = static_cast<std::uint32_t>(lower_index(v));
  walk.own_hi = static_cast<std::uint32_t>(lower_index(top));
  walk.from = static_cast<std::uint32_t>(upper_index(bottom));
  walk.to = static_cast<std::uint32_t>(upper_index(v));
  walk.clear = walk.to;
}

void DensityWindowIndex::lower_positions(AdmitWalk& walk, Density v,
                                         double c) const {
  // lower_index()'s `e.v < value` and upper_index()'s `value < e.v` hold
  // on a prefix of the members, so stepping down while the member below
  // fails them lands where the binary searches would.
  const Density top = c * v;
  const Density bottom = v / c;
  const auto below = [this](std::uint32_t i) { return entries_[i - 1].v; };
  while (walk.own_lo > 0 && !(below(walk.own_lo) < v)) --walk.own_lo;
  while (walk.own_hi > 0 && !(below(walk.own_hi) < top)) --walk.own_hi;
  while (walk.from > 0 && bottom < below(walk.from)) --walk.from;
  while (walk.to > 0 && v < below(walk.to)) --walk.to;
  walk.clear = std::min(walk.clear, walk.to);
}

void DensityWindowIndex::settle_walk(AdmitWalk& walk, ProcCount n, double c,
                                     double cap) const {
  DS_CHECK(n >= 1);
  if (prefix_version_ != version_) rebuild_prefix();
  const double n_new = static_cast<double>(n);
  // The new job's own window [v, c*v).
  if (prefix_[walk.own_hi] - prefix_[walk.own_lo] + n_new > cap) {
    walk.admits = false;
    return;
  }
  // Existing windows that gain the new member: starts v_j in (v/c, v].
  // (Their windows [v_j, c*v_j) contain v exactly when v_j > v/c and
  // v_j <= v.)  Those in [clear, to) are known to fit.
  if (walk.clear > walk.from) ensure_windows(c);
  while (walk.clear > walk.from && !(win_[walk.clear - 1] + n_new > cap)) {
    --walk.clear;
  }
  walk.admits = walk.clear <= walk.from;
}

Density DensityWindowIndex::walk_break(AdmitWalk& walk, ProcCount n,
                                       double c, double cap) const {
  // The margin covers the rounding of c*v and v/c and of the products
  // below, a few units in the last place each.
  constexpr double kMargin = 1.0 + 0x1p-40;
  constexpr Density kNever = -std::numeric_limits<Density>::infinity();
  const double n_new = static_cast<double>(n);
  // The tests settle_walk() makes, on other positions.
  const auto fits = [&](std::uint32_t lo, std::uint32_t hi) {
    return !(prefix_[hi] - prefix_[lo] + n_new > cap);
  };
  const auto over = [&](std::uint32_t i) { return win_[i] + n_new > cap; };
  const auto at = [this](std::uint32_t i) { return entries_[i].v; };
  if (!walk.admits && !fits(walk.own_lo, walk.own_hi)) {
    // Refused by its own window, whose load only falls as members leave
    // its top (c*v <= v_j): the answer holds until enough have left.
    std::uint32_t hi = walk.own_hi;
    while (hi > walk.own_lo && !fits(walk.own_lo, hi)) --hi;
    return fits(walk.own_lo, hi) ? at(hi) / c * kMargin : kNever;
  }
  if (!walk.admits) {
    // Refused by an over-cap window starting in (v/c, v]: the lowest such
    // start stays there until v falls below it.
    std::uint32_t low = walk.from;
    while (!over(low)) ++low;
    return at(low);
  }
  // Admitting: refused once an over-cap window's start enters (v/c, v], at
  // v/c < v_j; the next is the first over-cap member below `from`, found
  // by moving `clear` further down.  The own window cannot overfill first:
  // its load is at most the window of its lowest member j, which is that
  // load at v = v_j, and j's start was in (v/c, v] from v < c*v_j down.
  if (walk.clear > 0) ensure_windows(c);
  while (walk.clear > 0 && !over(walk.clear - 1)) --walk.clear;
  return walk.clear > 0 ? at(walk.clear - 1) * c * kMargin : kNever;
}

double DensityWindowIndex::max_window_load(double c) const {
  DS_CHECK(c > 0.0);
  ensure_windows(c);
  double worst = 0.0;
  for (const double load : win_) worst = std::max(worst, load);
  return worst;
}

}  // namespace dagsched
