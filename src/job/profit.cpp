#include "job/profit.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"
#include "util/float_cmp.h"

namespace dagsched {

ProfitFn ProfitFn::step(Profit p, Time relative_deadline) {
  if (!(p > 0.0)) throw std::invalid_argument("step profit must be > 0");
  if (!(relative_deadline > 0.0)) {
    throw std::invalid_argument("relative deadline must be > 0");
  }
  ProfitFn fn;
  fn.kind_ = Kind::kStep;
  fn.peak_ = p;
  fn.plateau_end_ = relative_deadline;
  fn.support_end_ = relative_deadline;
  return fn;
}

ProfitFn ProfitFn::plateau_linear(Profit p, Time plateau_end, Time zero_at) {
  if (!(p > 0.0)) throw std::invalid_argument("profit must be > 0");
  if (!(0.0 < plateau_end && plateau_end < zero_at)) {
    throw std::invalid_argument("need 0 < plateau_end < zero_at");
  }
  ProfitFn fn;
  fn.kind_ = Kind::kPlateauLinear;
  fn.peak_ = p;
  fn.plateau_end_ = plateau_end;
  fn.support_end_ = zero_at;
  return fn;
}

ProfitFn ProfitFn::plateau_exponential(Profit p, Time plateau_end,
                                       double rate) {
  if (!(p > 0.0)) throw std::invalid_argument("profit must be > 0");
  if (!(plateau_end > 0.0)) throw std::invalid_argument("plateau_end <= 0");
  if (!(rate > 0.0)) throw std::invalid_argument("rate must be > 0");
  ProfitFn fn;
  fn.kind_ = Kind::kPlateauExp;
  fn.peak_ = p;
  fn.plateau_end_ = plateau_end;
  fn.support_end_ = kTimeInfinity;
  fn.rate_ = rate;
  return fn;
}

ProfitFn ProfitFn::piecewise(std::vector<std::pair<Time, Profit>> levels) {
  if (levels.empty()) throw std::invalid_argument("piecewise: empty levels");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (!(levels[i].first > 0.0) || !(levels[i].second > 0.0)) {
      throw std::invalid_argument("piecewise: times and values must be > 0");
    }
    if (i > 0) {
      if (!(levels[i].first > levels[i - 1].first)) {
        throw std::invalid_argument("piecewise: times must increase");
      }
      if (levels[i].second > levels[i - 1].second) {
        throw std::invalid_argument("piecewise: values must not increase");
      }
    }
  }
  ProfitFn fn;
  fn.kind_ = Kind::kPiecewise;
  fn.peak_ = levels.front().second;
  fn.plateau_end_ = levels.front().first;
  fn.support_end_ = levels.back().first;
  fn.levels_ = std::move(levels);
  return fn;
}

Profit ProfitFn::at(Time t) const {
  DS_CHECK_MSG(t >= 0.0, "profit evaluated at negative t=" << t);
  switch (kind_) {
    case Kind::kStep:
      return approx_le(t, plateau_end_) ? peak_ : 0.0;
    case Kind::kPlateauLinear: {
      if (approx_le(t, plateau_end_)) return peak_;
      if (approx_ge(t, support_end_)) return 0.0;
      return peak_ * (support_end_ - t) / (support_end_ - plateau_end_);
    }
    case Kind::kPlateauExp: {
      if (approx_le(t, plateau_end_)) return peak_;
      return peak_ * std::exp(-rate_ * (t - plateau_end_));
    }
    case Kind::kPiecewise: {
      for (const auto& [end, value] : levels_) {
        if (approx_le(t, end)) return value;
      }
      return 0.0;
    }
  }
  return 0.0;
}

Time ProfitFn::deadline() const {
  DS_CHECK_MSG(kind_ == Kind::kStep, "deadline() on a non-step profit");
  return plateau_end_;
}

double ProfitFn::rate() const {
  DS_CHECK_MSG(kind_ == Kind::kPlateauExp,
               "rate() on a non-exponential profit");
  return rate_;
}

const std::vector<std::pair<Time, Profit>>& ProfitFn::levels() const {
  DS_CHECK_MSG(kind_ == Kind::kPiecewise,
               "levels() on a non-piecewise profit");
  return levels_;
}

}  // namespace dagsched
