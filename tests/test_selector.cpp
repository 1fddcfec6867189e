// Node-selection policies: order semantics and the adversarial/critical-path
// behaviours the Theorem-1 experiment relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dag/generators.h"
#include "dag/unfolding.h"
#include "sim/node_selector.h"
#include "util/arena.h"

namespace dagsched {
namespace {

TEST(Selector, FifoTakesReadyPrefix) {
  const Dag dag = make_parallel_block(6, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(SelectorKind::kFifo);
  std::vector<NodeId> out;
  selector->select(dag, state, 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), state.ready().begin()));
}

TEST(Selector, CapsAtReadyCount) {
  const Dag dag = make_parallel_block(2, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(SelectorKind::kFifo);
  std::vector<NodeId> out;
  selector->select(dag, state, 10, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Selector, AdversarialPrefersBlockOverChain) {
  // Fig-1 DAG: chain node (id 0) has huge bottom level; block nodes small.
  const Dag dag = make_fig1_dag(4, 5, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(SelectorKind::kAdversarial);
  std::vector<NodeId> out;
  selector->select(dag, state, 4, out);
  ASSERT_EQ(out.size(), 4u);
  // The chain head (bottom level 5) must NOT be selected while 15 block
  // nodes (bottom level 1) are ready.
  for (NodeId node : out) {
    EXPECT_DOUBLE_EQ(dag.bottom_level(node), 1.0);
  }
}

TEST(Selector, CriticalPathPrefersChain) {
  const Dag dag = make_fig1_dag(4, 5, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(SelectorKind::kCriticalPath);
  std::vector<NodeId> out;
  selector->select(dag, state, 4, out);
  ASSERT_EQ(out.size(), 4u);
  // The chain head must be the first pick.
  EXPECT_DOUBLE_EQ(dag.bottom_level(out[0]), 5.0);
}

TEST(Selector, RandomIsDeterministicPerSeedAndDistinct) {
  const Dag dag = make_parallel_block(20, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto s1 = make_selector(SelectorKind::kRandom, 42);
  auto s2 = make_selector(SelectorKind::kRandom, 42);
  std::vector<NodeId> out1, out2;
  s1->select(dag, state, 8, out1);
  s2->select(dag, state, 8, out2);
  EXPECT_EQ(out1, out2);
  const std::set<NodeId> unique(out1.begin(), out1.end());
  EXPECT_EQ(unique.size(), out1.size());
}

TEST(Selector, LifoTakesNewestReady) {
  const Dag dag = make_parallel_block(5, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(SelectorKind::kLifo);
  std::vector<NodeId> out;
  selector->select(dag, state, 2, out);
  ASSERT_EQ(out.size(), 2u);
  const auto ready = state.ready();
  EXPECT_EQ(out[0], ready[ready.size() - 1]);
  EXPECT_EQ(out[1], ready[ready.size() - 2]);
}

TEST(Selector, KindNames) {
  EXPECT_STREQ(selector_kind_name(SelectorKind::kFifo), "fifo");
  EXPECT_STREQ(selector_kind_name(SelectorKind::kAdversarial), "adversarial");
  EXPECT_EQ(make_selector(SelectorKind::kCriticalPath)->name(),
            "critical-path");
}

// Property: every selector returns min(k, ready) distinct ready nodes.
class SelectorContract
    : public ::testing::TestWithParam<std::tuple<SelectorKind, std::size_t>> {};

TEST_P(SelectorContract, ReturnsDistinctReadyNodes) {
  const auto [kind, k] = GetParam();
  Rng rng(9);
  RandomDagParams params;
  params.nodes = 30;
  params.edge_prob = 0.08;
  const Dag dag = make_random_dag(rng, params);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  auto selector = make_selector(kind, 7);
  std::vector<NodeId> out;
  // Drive execution to exercise evolving ready sets.
  while (!state.complete()) {
    selector->select(dag, state, k, out);
    EXPECT_EQ(out.size(), std::min(k, state.ready_count()));
    std::set<NodeId> unique;
    for (NodeId node : out) {
      EXPECT_TRUE(state.is_ready(node));
      EXPECT_TRUE(unique.insert(node).second) << "duplicate node " << node;
    }
    ASSERT_FALSE(out.empty());
    for (NodeId node : out) state.advance(node, state.remaining_work(node));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SelectorContract,
    ::testing::Combine(::testing::Values(SelectorKind::kFifo,
                                         SelectorKind::kLifo,
                                         SelectorKind::kRandom,
                                         SelectorKind::kAdversarial,
                                         SelectorKind::kCriticalPath),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{64})));

}  // namespace
}  // namespace dagsched
