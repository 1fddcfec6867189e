// UnfoldingState: dynamic ready-set maintenance and progress accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "dag/builder.h"
#include "dag/generators.h"
#include "dag/unfolding.h"
#include "util/arena.h"
#include "util/rng.h"

namespace dagsched {
namespace {

TEST(Unfolding, SourcesInitiallyReady) {
  const Dag dag = make_fig2_dag(3, 4, 1.0);  // chain -> block
  BumpArena arena;
  UnfoldingState state(dag, arena);
  EXPECT_EQ(state.ready_count(), 1u);  // only the chain head
  EXPECT_EQ(state.nodes_remaining(), 7u);
  EXPECT_DOUBLE_EQ(state.total_remaining_work(), 7.0);
  EXPECT_FALSE(state.complete());
}

TEST(Unfolding, PartialAdvanceKeepsNodeReady) {
  const Dag dag = make_chain(2, 2.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  const NodeId head = state.ready()[0];
  EXPECT_FALSE(state.advance(head, 1.0));
  EXPECT_TRUE(state.is_ready(head));
  EXPECT_DOUBLE_EQ(state.remaining_work(head), 1.0);
  EXPECT_DOUBLE_EQ(state.total_remaining_work(), 3.0);
}

TEST(Unfolding, CompletionUnlocksSuccessors) {
  const Dag dag = make_chain(3, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  std::vector<NodeId> newly;
  EXPECT_TRUE(state.advance(state.ready()[0], 1.0, &newly));
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_TRUE(state.is_ready(newly[0]));
  EXPECT_EQ(state.ready_count(), 1u);
  EXPECT_EQ(state.nodes_remaining(), 2u);
}

TEST(Unfolding, JoinWaitsForAllPredecessors) {
  // a, b -> join.
  DagBuilder builder;
  const NodeId a = builder.add_node(1.0);
  const NodeId b = builder.add_node(1.0);
  const NodeId join = builder.add_node(1.0);
  builder.add_edge(a, join);
  builder.add_edge(b, join);
  const Dag dag = std::move(builder).build();

  BumpArena arena;

  UnfoldingState state(dag, arena);
  EXPECT_EQ(state.ready_count(), 2u);
  std::vector<NodeId> newly;
  state.advance(a, 1.0, &newly);
  EXPECT_TRUE(newly.empty());  // join still blocked on b
  EXPECT_FALSE(state.is_ready(join));
  state.advance(b, 1.0, &newly);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], join);
}

TEST(Unfolding, CompleteAfterAllNodes) {
  const Dag dag = make_parallel_block(3, 1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  ASSERT_EQ(state.ready_count(), 3u);
  const std::vector<NodeId> nodes(state.ready().begin(), state.ready().end());
  for (NodeId node : nodes) state.advance(node, 1.0);
  EXPECT_TRUE(state.complete());
  EXPECT_EQ(state.ready_count(), 0u);
  EXPECT_DOUBLE_EQ(state.total_remaining_work(), 0.0);
}

TEST(Unfolding, TinyResidueSnapsToCompletion) {
  const Dag dag = make_single_node(1.0);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  // Split into three uneven chunks whose float sum wobbles around 1.0.
  state.advance(0, 0.3);
  state.advance(0, 0.3);
  EXPECT_TRUE(state.advance(0, 0.4 + 1e-12));
  EXPECT_TRUE(state.complete());
}

TEST(Unfolding, RemainingSpanTracksProgress) {
  const Dag dag = make_chain(4, 1.0);  // span 4
  BumpArena arena;
  UnfoldingState state(dag, arena);
  EXPECT_DOUBLE_EQ(state.remaining_span(), 4.0);
  state.advance(state.ready()[0], 1.0);
  EXPECT_DOUBLE_EQ(state.remaining_span(), 3.0);
  state.advance(state.ready()[0], 0.5);
  EXPECT_DOUBLE_EQ(state.remaining_span(), 2.5);
}

TEST(Unfolding, UnstartedSpanIsTheFreshRemainingSpanBitForBit) {
  // The kernel answers the remaining span of a job it has not run from the
  // DAG alone; it must be the very double a fresh unfolding computes.
  // Works like 0.1 or uniform draws make the sums round, so only the same
  // additions in the same order agree in every bit.
  Rng rng(2024);
  std::vector<Dag> dags;
  dags.push_back(make_single_node(0.7));
  dags.push_back(make_chain(9, 0.1));
  dags.push_back(make_parallel_block(6, 0.3));
  dags.push_back(make_fig1_dag(4, 5, 0.1));
  dags.push_back(make_fig2_dag(3, 7, 0.1));
  dags.push_back(make_fork_join(3, 4, 0.7, 0.013));
  dags.push_back(make_wavefront(5, 6, 0.3));
  dags.push_back(make_stencil_1d(4, 5, 0.1));
  dags.push_back(make_map_reduce(5, 3, 0.7, 1.3, 0.011));
  for (int i = 0; i < 8; ++i) {
    dags.push_back(make_layered_random(rng, LayeredParams{}));
    dags.push_back(make_series_parallel(rng, SeriesParallelParams{}));
    dags.push_back(make_random_dag(rng, RandomDagParams{}));
  }
  for (std::size_t i = 0; i < dags.size(); ++i) {
    BumpArena arena;
    const UnfoldingState fresh(dags[i], arena);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  UnfoldingState::unstarted_span(dags[i])),
              std::bit_cast<std::uint64_t>(fresh.remaining_span()))
        << "dag " << i;
  }
}

TEST(Unfolding, RandomDagFullExecutionBySweeps) {
  // Property: repeatedly finishing every ready node completes any DAG in
  // at most num_nodes sweeps, and the ready list never contains duplicates.
  Rng rng(77);
  RandomDagParams params;
  params.nodes = 40;
  params.edge_prob = 0.12;
  const Dag dag = make_random_dag(rng, params);
  BumpArena arena;
  UnfoldingState state(dag, arena);
  std::size_t sweeps = 0;
  while (!state.complete()) {
    ASSERT_LT(sweeps++, static_cast<std::size_t>(dag.num_nodes()));
    std::vector<NodeId> batch(state.ready().begin(), state.ready().end());
    std::sort(batch.begin(), batch.end());
    ASSERT_TRUE(std::adjacent_find(batch.begin(), batch.end()) == batch.end());
    for (NodeId node : batch) {
      state.advance(node, state.remaining_work(node));
    }
  }
  EXPECT_DOUBLE_EQ(state.total_remaining_work(), 0.0);
}

}  // namespace
}  // namespace dagsched
