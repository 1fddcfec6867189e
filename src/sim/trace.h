// Execution trace: who ran what, when, where.
//
// Recording is optional (SimOptions::record_trace); validate() replays a
// trace against the job set and checks the machine-model invariants, which
// gives integration tests end-to-end assurance that an engine run was a
// legal schedule:
//   * per-processor intervals do not overlap;
//   * at most m processors used at any time;
//   * per-node executed time * speed == node work for completed nodes;
//   * a node never runs before all its DAG predecessors completed;
//   * no node of a job runs before the job's release.
#pragma once

#include <string>
#include <vector>

#include "job/job.h"
#include "util/types.h"

namespace dagsched {

struct TraceInterval {
  Time start = 0.0;
  Time end = 0.0;
  JobId job = kInvalidJob;
  NodeId node = kInvalidNode;
  ProcCount proc = 0;
};

class Trace {
 public:
  void add(Time start, Time end, JobId job, NodeId node, ProcCount proc) {
    intervals_.push_back({start, end, job, node, proc});
  }

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<TraceInterval>& intervals() const { return intervals_; }

  /// Returns an empty string if the trace is a legal schedule of `jobs` on
  /// `m` processors at the given speed, else a description of the first
  /// violation found.
  std::string validate(const JobSet& jobs, ProcCount m, double speed) const;

 private:
  std::vector<TraceInterval> intervals_;
};

}  // namespace dagsched
