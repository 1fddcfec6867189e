// FaultInjector: the runtime-facing view of a FaultPlan.
//
// Engines receive a `const FaultInjector*` (nullptr = faults off, the
// default) in their options -- the same pattern as ObsSink -- and take the
// exact seed code path when it is null, so fault-free runs stay
// byte-identical to pre-fault builds.
//
// The injector pre-flattens the plan's down intervals into a sorted list of
// processor up/down *transitions*.  Engines apply delivered transitions to
// their own up-set rather than querying num_up(now); this makes the
// capacity trajectory exact (immune to float drift between the two engines)
// and gives each transition a well-defined delivery point in the engine
// loop.  Ties at one instant order recoveries before failures, matching the
// plan builder's min_procs sweep.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dag/dag.h"
#include "fault/fault_plan.h"
#include "util/types.h"

namespace dagsched {

struct ProcTransition {
  Time time = 0.0;
  ProcCount proc = 0;
  bool up = false;  // true = recovery, false = failure

  friend bool operator==(const ProcTransition&,
                         const ProcTransition&) = default;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// All processor transitions, sorted by (time, up-before-down, proc).
  const std::vector<ProcTransition>& transitions() const {
    return transitions_;
  }

  bool has_churn() const { return !transitions_.empty(); }
  bool scales_work() const { return plan_.config().overrun_enabled(); }
  bool restart_from_zero() const {
    return plan_.config().restart == RestartPolicy::kRestartFromZero;
  }

  /// Per-node actual works for `job`'s DAG (declared work x multiplier).
  /// Returns an empty vector when no node of this job overruns, so callers
  /// can cheaply keep the declared-work unfolding.
  std::vector<Work> scaled_works(JobId job, const Dag& dag) const;

 private:
  FaultPlan plan_;
  std::vector<ProcTransition> transitions_;
};

/// Parses a `--faults` spec (parse_fault_spec) and builds its plan for `m`
/// processors.  A malformed spec or a min-procs floor above m yields nullopt
/// with the reason in `error`; each caller wraps it in its own diagnostic.
std::optional<FaultInjector> make_fault_injector(const std::string& spec,
                                                 ProcCount m,
                                                 std::string& error);

}  // namespace dagsched
