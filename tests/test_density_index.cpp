// DensityWindowIndex: admission condition (2) bookkeeping, checked against
// a brute-force reference on randomized member sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "core/density_index.h"
#include "core/job_queue.h"
#include "util/rng.h"

namespace dagsched {
namespace {

TEST(DensityIndex, EmptyAdmitsWithinCap) {
  DensityWindowIndex index;
  EXPECT_TRUE(index.admits(1.0, 4, 2.0, 8.0));
  EXPECT_FALSE(index.admits(1.0, 9, 2.0, 8.0));
}

TEST(DensityIndex, InsertEraseContains) {
  DensityWindowIndex index;
  index.insert(0, 1.0, 2);
  index.insert(1, 3.0, 4);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.contains(0));
  EXPECT_TRUE(index.erase(0));
  EXPECT_FALSE(index.erase(0));
  EXPECT_FALSE(index.contains(0));
  EXPECT_EQ(index.size(), 1u);
}

TEST(DensityIndex, WindowLoadHalfOpen) {
  DensityWindowIndex index;
  index.insert(0, 1.0, 2);
  index.insert(1, 2.0, 3);
  index.insert(2, 4.0, 5);
  EXPECT_DOUBLE_EQ(index.window_load(1.0, 4.0), 5.0);   // [1, 4): jobs 0, 1
  EXPECT_DOUBLE_EQ(index.window_load(1.0, 4.01), 10.0); // includes job 2
  EXPECT_DOUBLE_EQ(index.window_load(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(index.load_at_least(2.0), 8.0);
  EXPECT_DOUBLE_EQ(index.load_at_least(0.1), 10.0);
}

TEST(DensityIndex, AdmitsRespectsExistingWindows) {
  // Window [v_j, 2 v_j), cap 8.  Jobs at density 1.0 with n=3 and 1.5 with
  // n=4: their shared window [1.0, 2.0) holds 7.
  DensityWindowIndex index;
  index.insert(0, 1.0, 3);
  index.insert(1, 1.5, 4);
  // Adding density 1.9, n=1 lands in [1.0, 2.0): 8 <= 8 OK.
  EXPECT_TRUE(index.admits(1.9, 1, 2.0, 8.0));
  // n=2 would push that window to 9 > 8.
  EXPECT_FALSE(index.admits(1.9, 2, 2.0, 8.0));
  // Density 3.5 is outside every existing window start's range and its own
  // window [3.5, 7) is empty: any n <= cap admits.
  EXPECT_TRUE(index.admits(3.5, 8, 2.0, 8.0));
}

TEST(DensityIndex, AdmitsBoundaryExactlyAtVOverC) {
  // v_j = 1, c = 2: window [1, 2).  New density exactly 2 is NOT inside
  // (half-open), and its own window [2, 4) is empty.
  DensityWindowIndex index;
  index.insert(0, 1.0, 8);
  EXPECT_TRUE(index.admits(2.0, 8, 2.0, 8.0));
  // Density 1.999 IS inside [1, 2): total would be 16 > 8.
  EXPECT_FALSE(index.admits(1.999, 8, 2.0, 8.0));
}

TEST(DensityIndex, MaxWindowLoad) {
  DensityWindowIndex index;
  index.insert(0, 1.0, 2);
  index.insert(1, 1.5, 3);
  index.insert(2, 10.0, 4);
  // Window at v=1.0, c=2: [1, 2) holds 5.  At 1.5: [1.5, 3) holds 3.
  // At 10: holds 4.
  EXPECT_DOUBLE_EQ(index.max_window_load(2.0), 5.0);
}

// Brute-force reference: simulate condition (2) literally.
bool brute_admits(const std::vector<std::pair<Density, double>>& members,
                  Density v, double n, double c, double cap) {
  std::vector<std::pair<Density, double>> all = members;
  all.emplace_back(v, n);
  for (const auto& [vj, nj] : all) {
    (void)nj;
    double load = 0.0;
    for (const auto& [vk, nk] : all) {
      if (vk >= vj && vk < c * vj) load += nk;
    }
    if (load > cap) return false;
  }
  return true;
}

class DensityIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DensityIndexFuzz, AdmitsMatchesBruteForce) {
  Rng rng(GetParam());
  const double c = rng.uniform(1.5, 20.0);
  const double cap = rng.uniform(4.0, 32.0);
  DensityWindowIndex index;
  std::vector<std::pair<Density, double>> members;
  std::vector<JobId> ids;
  JobId next_id = 0;

  for (int step = 0; step < 400; ++step) {
    const Density v = rng.uniform(0.01, 10.0);
    const auto n = static_cast<ProcCount>(rng.uniform_int(1, 6));
    const bool expected = brute_admits(members, v, n, c, cap);
    const bool actual = index.admits(v, n, c, cap);
    ASSERT_EQ(actual, expected)
        << "v=" << v << " n=" << n << " c=" << c << " cap=" << cap
        << " members=" << members.size();
    // Maintain the inductive invariant: only insert admitted members (as the
    // schedulers do).  Occasionally erase a member to exercise removal.
    if (expected) {
      index.insert(next_id, v, n);
      ids.push_back(next_id);
      ++next_id;
      members.emplace_back(v, static_cast<double>(n));
    } else if (!members.empty() && rng.bernoulli(0.3)) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1));
      ASSERT_TRUE(index.erase(ids[victim]));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Invariant from Observation 3: max window load stays within cap.
    EXPECT_LE(index.max_window_load(c), cap + 1e-9);
  }
}

double brute_max_window(const std::vector<std::pair<Density, double>>& members,
                        double c) {
  double worst = 0.0;
  for (const auto& [vj, nj] : members) {
    (void)nj;
    double load = 0.0;
    for (const auto& [vk, nk] : members) {
      if (vk >= vj && vk < c * vj) load += nk;
    }
    worst = std::max(worst, load);
  }
  return worst;
}

// The cached per-member window loads are keyed on c and dropped by every
// mutation.  Interleave inserts, erases and queries under two alternating c
// values, with densities drawn from a small pool so duplicates are common;
// every answer must match the brute force.
TEST_P(DensityIndexFuzz, CachesFollowMutationsAndC) {
  Rng rng(GetParam());
  const double c_small = rng.uniform(1.5, 4.0);
  const double c_large = rng.uniform(6.0, 20.0);
  const double cap = rng.uniform(6.0, 24.0);
  std::vector<Density> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(rng.uniform(0.05, 10.0));
  const auto draw = [&] {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  DensityWindowIndex index;
  std::vector<std::pair<Density, double>> members;
  std::vector<JobId> ids;
  JobId next_id = 0;

  for (int step = 0; step < 600; ++step) {
    const int which = step % 2;
    const double c = which == 0 ? c_small : c_large;
    const std::int64_t op = rng.uniform_int(0, 3);
    if (op == 0 && !members.empty()) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1));
      ASSERT_TRUE(index.erase(ids[victim]));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (op == 1) {
      // Keep every window within cap under the larger c (hence under both),
      // the invariant admits() relies on.
      const Density v = draw();
      const auto n = static_cast<ProcCount>(rng.uniform_int(1, 4));
      if (brute_admits(members, v, n, c_large, cap)) {
        index.insert(next_id, v, n);
        ids.push_back(next_id++);
        members.emplace_back(v, static_cast<double>(n));
      }
    }
    // A run of queries at falling densities, as the profit search makes:
    // pool values (hitting duplicates and window edges exactly) and values
    // in between.
    const auto n = static_cast<ProcCount>(rng.uniform_int(1, 4));
    Density v = 10.5;
    for (int q = 0; q < 6; ++q) {
      v = rng.bernoulli(0.5) ? std::min(v, draw()) : v * rng.uniform(0.5, 1.0);
      const bool expected = brute_admits(members, v, n, c, cap);
      ASSERT_EQ(index.admits(v, n, c, cap), expected)
          << "step " << step << " v=" << v << " n=" << n << " c=" << c;
    }
    ASSERT_DOUBLE_EQ(index.max_window_load(c), brute_max_window(members, c))
        << "step " << step << " c=" << c;
  }
}

// An AdmitWalk must answer as admits() does at every density of a falling
// run.  A run either lowers the walk at every step, and then a step to a
// density above the break must keep the answer, or, as the profit search
// does, only once the density reaches the break, and then must still hold
// admits()'s answer in between.  Every lowering must land on the positions
// a fresh start_walk() finds.  With c = 2 and power-of-two densities, v,
// c*v and v/c land exactly on members; with an arbitrary c, the queries one
// ulp either side of each member times c and over c probe the break
// density's rounding margin.
TEST_P(DensityIndexFuzz, WalkMatchesAdmitsAtFallingDensities) {
  Rng rng(GetParam());
  for (const bool exact : {true, false}) {
    const double c = exact ? 2.0 : rng.uniform(1.2, 6.0);
    const double cap = static_cast<double>(rng.uniform_int(4, 16));
    std::vector<Density> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(exact ? std::ldexp(1.0, i - 4) : rng.uniform(0.05, 10.0));
    }
    DensityWindowIndex index;
    std::vector<std::pair<Density, double>> members;
    for (JobId id = 0; id < 40; ++id) {
      const Density v = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const auto n = static_cast<ProcCount>(rng.uniform_int(1, 4));
      if (brute_admits(members, v, n, c, cap)) {
        index.insert(id, v, n);
        members.emplace_back(v, static_cast<double>(n));
      }
    }
    std::vector<Density> probes;
    for (const Density e : pool) {
      for (const Density x : {e, e * c, e / c}) {
        probes.push_back(x);
        probes.push_back(std::nextafter(x, 0.0));
        probes.push_back(
            std::nextafter(x, std::numeric_limits<Density>::infinity()));
      }
    }
    std::sort(probes.begin(), probes.end(), std::greater<>());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());

    for (int run = 0; run < 24; ++run) {
      const auto n = static_cast<ProcCount>(rng.uniform_int(1, 4));
      const bool every_step = run % 2 == 0;
      DensityWindowIndex::AdmitWalk walk;
      Density brk = 0.0;
      bool started = false;
      for (const Density v : probes) {
        if (!rng.bernoulli(0.4)) continue;
        // One ulp off a window edge, admits()'s v/c test and the brute
        // force's v < c*v_j can round apart; with c = 2 both are exact.
        const bool expected = index.admits(v, n, c, cap);
        if (exact) {
          ASSERT_EQ(expected, brute_admits(members, v, n, c, cap))
              << "v=" << v << " n=" << n;
        }
        if (!started) {
          brk = index.start_walk(walk, v, n, c, cap);
          started = true;
        } else if (v > brk && !every_step) {
          ASSERT_EQ(walk.admits, expected)
              << "held above break " << brk << ", v=" << v << " n=" << n;
          continue;
        } else {
          const bool before = walk.admits;
          const bool above_break = v > brk;
          brk = index.lower_walk(walk, v, n, c, cap);
          if (above_break) {
            ASSERT_EQ(walk.admits, before) << "v=" << v << " n=" << n;
          }
        }
        DensityWindowIndex::AdmitWalk fresh;
        index.start_walk(fresh, v, n, c, cap);
        ASSERT_EQ(walk.admits, expected) << "v=" << v << " n=" << n;
        ASSERT_EQ(fresh.admits, expected) << "v=" << v << " n=" << n;
        ASSERT_EQ(walk.own_lo, fresh.own_lo) << "v=" << v;
        ASSERT_EQ(walk.own_hi, fresh.own_hi) << "v=" << v;
        ASSERT_EQ(walk.from, fresh.from) << "v=" << v;
        ASSERT_EQ(walk.to, fresh.to) << "v=" << v;
      }
    }
  }
}

// The index is the only store of S's Q and of each profit slot, so its
// served-order walk must be the (density desc, id asc) order those queues
// were kept in.  Densities come from seven powers of two, so runs of equal
// densities are long and ids arrive out of order within them; each walk
// also stops early at a random member.
TEST_P(DensityIndexFuzz, ServedOrderMatchesDensityDescIdAsc) {
  Rng rng(GetParam());
  DensityWindowIndex index;
  std::vector<std::pair<Density, JobId>> members;
  const auto walk = [&index](std::size_t stop_after) {
    std::vector<JobId> seen;
    index.for_each_served([&seen, stop_after](JobId job) {
      seen.push_back(job);
      return seen.size() < stop_after;
    });
    return seen;
  };
  for (int step = 0; step < 300; ++step) {
    if (members.empty() || rng.bernoulli(0.7)) {
      JobId job = 0;
      do {
        job = static_cast<JobId>(rng.uniform_int(0, 999));
      } while (index.contains(job));
      const Density v = std::ldexp(1.0, static_cast<int>(rng.uniform_int(-3, 3)));
      index.insert(job, v, static_cast<ProcCount>(rng.uniform_int(1, 4)));
      members.emplace_back(v, job);
    } else {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(members.size()) - 1));
      ASSERT_TRUE(index.erase(members[victim].second));
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    std::vector<std::pair<Density, JobId>> sorted = members;
    std::sort(sorted.begin(), sorted.end(), DensityDescIdAsc{});
    std::vector<JobId> expected;
    for (const auto& member : sorted) expected.push_back(member.second);

    ASSERT_EQ(walk(expected.size() + 1), expected) << "step " << step;
    if (expected.empty()) continue;
    EXPECT_EQ(index.served_last(), expected.back()) << "step " << step;
    const auto stop_after = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(expected.size())));
    const std::vector<JobId> prefix(
        expected.begin(), expected.begin() + static_cast<std::ptrdiff_t>(
                                                 stop_after));
    EXPECT_EQ(walk(stop_after), prefix) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityIndexFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DensityIndex, EraseRestoresAdmissibility) {
  DensityWindowIndex index;
  index.insert(0, 1.0, 5);
  index.insert(1, 1.2, 3);
  EXPECT_FALSE(index.admits(1.1, 2, 2.0, 8.0));  // window [1,2) would be 10
  index.erase(0);
  EXPECT_TRUE(index.admits(1.1, 2, 2.0, 8.0));  // now 5
}

TEST(DensityIndex, ClearEmptiesEverything) {
  DensityWindowIndex index;
  index.insert(0, 1.0, 5);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_DOUBLE_EQ(index.load_at_least(0.0), 0.0);
}

}  // namespace
}  // namespace dagsched
