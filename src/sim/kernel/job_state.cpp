#include "sim/kernel/job_state.h"

#include <algorithm>

namespace dagsched {

void JobStateTable::reset(const JobSet& jobs) {
  const std::size_t n = jobs.size();
  flags_.assign(n, 0);
  completion_time_.assign(n, kTimeInfinity);
  // Disengage every unfolding before rewinding the arena its blocks live in.
  exec_.clear();
  exec_.resize(n);
  arena_.reset();

  active_.clear();
  active_pos_.assign(n, kNoActiveSlot);
  active_live_ = 0;

  node_stamp_base_.resize(n);
  std::size_t total_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    node_stamp_base_[i] = static_cast<std::uint32_t>(total_nodes);
    total_nodes += jobs[i].dag().num_nodes();
  }
  // Pre-size the arena for every job's unfolding block (work column +
  // four NodeId index arrays, plus per-job alignment padding): one exact
  // chunk instead of a doubling ramp whose retired chunks would double the
  // resident footprint.  Nothing writes the chunk here, so the pages
  // meant for jobs that never run are never touched.  Fault-scaled init columns still
  // grow on demand.
  arena_.reserve(total_nodes * (sizeof(Work) + 4 * sizeof(NodeId)) +
                 n * alignof(Work));
  node_stamp_.assign(total_nodes, 0);
  job_stamp_.assign(n, 0);
  alloc_stamp_.assign(n, 0);
}

void JobStateTable::compact_active() {
  std::size_t w = 0;
  for (const JobId id : active_) {
    if (id == kInvalidJob) continue;
    active_pos_[id] = static_cast<std::uint32_t>(w);
    active_[w++] = id;
  }
  active_.resize(w);
}

std::size_t JobStateTable::memory_bytes() const {
  return flags_.capacity() * sizeof(std::uint8_t) +
         completion_time_.capacity() * sizeof(Time) +
         exec_.capacity() * sizeof(JobExec) +
         active_.capacity() * sizeof(JobId) +
         active_pos_.capacity() * sizeof(std::uint32_t) +
         node_stamp_base_.capacity() * sizeof(std::uint32_t) +
         node_stamp_.capacity() * sizeof(std::uint32_t) +
         job_stamp_.capacity() * sizeof(std::uint32_t) +
         alloc_stamp_.capacity() * sizeof(std::uint32_t);
}

}  // namespace dagsched
