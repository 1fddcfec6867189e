// Non-increasing profit functions p_i(t).
//
// The paper's throughput problem uses a step function (profit p until the
// relative deadline D, then 0).  The general profit problem (Section 5)
// allows any non-increasing p_i(t); Theorem 3 assumes a *plateau*: p_i is
// constant on (0, x*] for some x* >= (1+eps)((W-L)/m + L).  We provide the
// shapes used by the paper and the benchmarks:
//
//   step(p, D)                      -- throughput/deadline jobs
//   plateau_linear(p, x*, t0)       -- p until x*, linear to 0 at t0
//   plateau_exponential(p, x*, r)   -- p until x*, p*exp(-r(t-x*)) after
//   piecewise(steps)                -- right-continuous decreasing staircase
//
// All shapes are closed under evaluation at arbitrary t >= 0 and report
// their plateau end x* and support end sup{t : p(t) > 0}.
#pragma once

#include <utility>
#include <vector>

#include "util/types.h"

namespace dagsched {

class ProfitFn {
 public:
  /// Step: p for t <= relative_deadline, 0 after.
  static ProfitFn step(Profit p, Time relative_deadline);

  /// Plateau then linear decay: p on (0, plateau_end], linearly decreasing
  /// to 0 at zero_at (> plateau_end), 0 afterwards.
  static ProfitFn plateau_linear(Profit p, Time plateau_end, Time zero_at);

  /// Plateau then exponential decay with rate `rate` (> 0).  Support is
  /// unbounded (profit never reaches exactly zero).
  static ProfitFn plateau_exponential(Profit p, Time plateau_end, double rate);

  /// Decreasing staircase: value levels[k].second for
  /// t in (levels[k-1].first, levels[k].first] (levels[-1].first == 0),
  /// 0 after the last breakpoint.  Breakpoint times must be strictly
  /// increasing and values strictly positive and non-increasing.
  static ProfitFn piecewise(std::vector<std::pair<Time, Profit>> levels);

  /// Profit for completing the job `t` time units after its release.
  Profit at(Time t) const;

  /// Maximum achievable profit (== at(t) for any t in the plateau).
  Profit peak() const { return peak_; }

  /// Largest t with at(t) == peak() -- the paper's x*.
  Time plateau_end() const { return plateau_end_; }

  /// sup{t : at(t) > 0}; kTimeInfinity for exponential decay.
  Time support_end() const { return support_end_; }

  /// True for step functions (the throughput special case).
  bool is_step() const { return kind_ == Kind::kStep; }

  /// For step functions only: the relative deadline D.
  Time deadline() const;

  /// Which constructor built this function; with the accessors below it
  /// gives back that constructor's arguments exactly (the workload writer
  /// prints them verbatim).
  enum class Kind { kStep, kPlateauLinear, kPlateauExp, kPiecewise };
  Kind kind() const { return kind_; }

  /// For plateau_exponential only: the decay rate.
  double rate() const;

  /// For piecewise only: the (level end, profit) staircase.
  const std::vector<std::pair<Time, Profit>>& levels() const;

  /// Same shape and equal parameters.
  bool operator==(const ProfitFn&) const = default;

 private:
  ProfitFn() = default;

  Kind kind_ = Kind::kStep;
  Profit peak_ = 0.0;
  Time plateau_end_ = 0.0;
  Time support_end_ = 0.0;
  double rate_ = 0.0;                              // kPlateauExp
  std::vector<std::pair<Time, Profit>> levels_;    // kPiecewise
};

}  // namespace dagsched
