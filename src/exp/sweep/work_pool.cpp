#include "exp/sweep/work_pool.h"

#include "util/check.h"

namespace dagsched {

namespace {
/// Spin budget before an idle next() parks.  A condvar park/wake round trip
/// is far dearer than a short spin, so spinning first bridges the gap to a
/// producer that is mid-push; the budget is short enough that a genuinely
/// idle worker still reaches the condvar in microseconds.
constexpr int kSpinLimit = 4096;
}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t num_workers)
    : queues_(num_workers) {
  DS_CHECK(num_workers >= 1);
}

void WorkStealingPool::push(std::size_t cell) {
  {
    std::lock_guard lock(mutex_);
    DS_CHECK_MSG(open_.load(std::memory_order_relaxed),
                 "push() after close()");
    queues_[push_cursor_].push_back(cell);
    push_cursor_ = (push_cursor_ + 1) % queues_.size();
    // Published under the mutex, before the notify: a worker that parked
    // after seeing 0 re-checks under the same mutex and cannot miss this.
    available_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_one();
}

void WorkStealingPool::close() {
  {
    std::lock_guard lock(mutex_);
    open_.store(false, std::memory_order_release);
  }
  cv_.notify_all();
}

std::optional<std::size_t> WorkStealingPool::pop_locked(std::size_t worker) {
  std::deque<std::size_t>& own = queues_[worker];
  if (!own.empty()) {
    const std::size_t cell = own.front();
    own.pop_front();
    available_.fetch_sub(1, std::memory_order_relaxed);
    return cell;
  }
  std::size_t victim = queues_.size();
  std::size_t best = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (i == worker) continue;
    if (queues_[i].size() > best) {
      best = queues_[i].size();
      victim = i;
    }
  }
  if (victim == queues_.size()) return std::nullopt;
  const std::size_t cell = queues_[victim].back();
  queues_[victim].pop_back();
  available_.fetch_sub(1, std::memory_order_relaxed);
  return cell;
}

std::optional<std::size_t> WorkStealingPool::next(std::size_t worker) {
  // Bounded spin on the lock-free signals: the common case is a producer
  // publishing the next cell within microseconds of this call.
  for (int spin = 0; spin < kSpinLimit; ++spin) {
    if (available_.load(std::memory_order_acquire) > 0 ||
        !open_.load(std::memory_order_acquire)) {
      break;
    }
  }
  std::unique_lock lock(mutex_);
  while (true) {
    if (auto cell = pop_locked(worker)) return cell;
    if (!open_.load(std::memory_order_relaxed)) return std::nullopt;
    cv_.wait(lock);
  }
}

}  // namespace dagsched
