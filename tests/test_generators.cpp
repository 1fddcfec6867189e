// Generator tests: exact shapes for the deterministic families (including
// the paper's Figure-1/Figure-2 constructions) and parameterized property
// sweeps over the randomized families.
#include <gtest/gtest.h>

#include "dag/dot.h"
#include "dag/generators.h"
#include "util/float_cmp.h"
#include "util/rng.h"

namespace dagsched {
namespace {

/// Nodes with no successors.
std::size_t count_sinks(const Dag& dag) {
  std::size_t sinks = 0;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) sinks += dag.out_degree(v) == 0;
  return sinks;
}

TEST(Generators, SingleNode) {
  const Dag dag = make_single_node(2.5);
  EXPECT_EQ(dag.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 2.5);
  EXPECT_DOUBLE_EQ(dag.span(), 2.5);
}

TEST(Generators, Chain) {
  const Dag dag = make_chain(10, 0.5);
  EXPECT_EQ(dag.num_nodes(), 10u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 5.0);
  EXPECT_DOUBLE_EQ(dag.span(), 5.0);  // fully sequential
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(count_sinks(dag), 1u);
}

TEST(Generators, ParallelBlock) {
  const Dag dag = make_parallel_block(16, 2.0);
  EXPECT_EQ(dag.num_nodes(), 16u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 32.0);
  EXPECT_DOUBLE_EQ(dag.span(), 2.0);  // fully parallel
  EXPECT_EQ(dag.num_edges(), 0u);
}

TEST(Generators, Fig1ExactShape) {
  // m=4, chain of 6 nodes of weight 2: L = 12, W = m*L = 48.
  const Dag dag = make_fig1_dag(4, 6, 2.0);
  EXPECT_EQ(dag.num_nodes(), 6u + 3u * 6u);
  EXPECT_DOUBLE_EQ(dag.span(), 12.0);
  EXPECT_DOUBLE_EQ(dag.total_work(), 48.0);
  // The paper's construction: L == W/m exactly.
  EXPECT_DOUBLE_EQ(dag.span(), dag.total_work() / 4.0);
}

TEST(Generators, Fig1RequiresTwoProcs) {
  EXPECT_THROW(make_fig1_dag(1, 4, 1.0), std::invalid_argument);
  EXPECT_THROW(make_fig1_dag(4, 0, 1.0), std::invalid_argument);
}

TEST(Generators, Fig2ExactShape) {
  // chain of 9 + block of 30, node size 0.5: span = 10*0.5 = 5.
  const Dag dag = make_fig2_dag(9, 30, 0.5);
  EXPECT_EQ(dag.num_nodes(), 39u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 39 * 0.5);
  EXPECT_DOUBLE_EQ(dag.span(), 5.0);
  // Every block node depends on the chain end.
  EXPECT_EQ(count_sinks(dag), 30u);
  EXPECT_EQ(dag.sources().size(), 1u);
}

TEST(Generators, ForkJoinShape) {
  const Dag dag = make_fork_join(3, 4, 1.0, 0.01);
  // Per segment: fork + join + 4 bodies = 6 nodes.
  EXPECT_EQ(dag.num_nodes(), 18u);
  EXPECT_NEAR(dag.total_work(), 3 * (4 * 1.0 + 2 * 0.01), 1e-12);
  // Span: 3 segments of fork+body+join.
  EXPECT_NEAR(dag.span(), 3 * (1.0 + 2 * 0.01), 1e-12);
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(count_sinks(dag), 1u);
}

TEST(Generators, WavefrontShape) {
  const Dag dag = make_wavefront(4, 6, 2.0);
  EXPECT_EQ(dag.num_nodes(), 24u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 48.0);
  // Span is the staircase path: (rows + cols - 1) * node_work.
  EXPECT_DOUBLE_EQ(dag.span(), 9 * 2.0);
  EXPECT_EQ(dag.sources().size(), 1u);  // corner (0,0)
  EXPECT_EQ(count_sinks(dag), 1u);    // corner (rows-1, cols-1)
  // Interior cells have in-degree 2.
  EXPECT_EQ(dag.in_degree(7), 2u);  // (1,1)
}

TEST(Generators, WavefrontDegenerateToChain) {
  const Dag dag = make_wavefront(1, 5, 1.0);
  EXPECT_DOUBLE_EQ(dag.span(), 5.0);  // single row = chain
  EXPECT_DOUBLE_EQ(dag.total_work(), 5.0);
}

TEST(Generators, Stencil1dShape) {
  const Dag dag = make_stencil_1d(3, 5, 1.0);
  EXPECT_EQ(dag.num_nodes(), 15u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 15.0);
  EXPECT_DOUBLE_EQ(dag.span(), 3.0);  // one node per iteration
  // First row are the only sources.
  EXPECT_EQ(dag.sources().size(), 5u);
  EXPECT_EQ(count_sinks(dag), 5u);
  // An interior cell depends on three halo neighbours.
  EXPECT_EQ(dag.in_degree(5 + 2), 3u);  // (t=1, i=2)
  // Border cells have in-degree 2.
  EXPECT_EQ(dag.in_degree(5 + 0), 2u);
}

TEST(Generators, MapReduceShape) {
  const Dag dag = make_map_reduce(4, 2, 3.0, 5.0, 1.0);
  EXPECT_EQ(dag.num_nodes(), 7u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 4 * 3.0 + 2 * 5.0 + 1.0);
  // Span: one map -> one reduce -> output.
  EXPECT_DOUBLE_EQ(dag.span(), 3.0 + 5.0 + 1.0);
  // Complete bipartite shuffle: every reducer waits on all mappers.
  EXPECT_EQ(dag.in_degree(4), 4u);
  EXPECT_EQ(dag.in_degree(5), 4u);
  EXPECT_EQ(count_sinks(dag), 1u);
}

TEST(Generators, HpcShapesRejectDegenerate) {
  EXPECT_THROW(make_wavefront(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(make_stencil_1d(2, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_map_reduce(0, 2, 1.0, 1.0), std::invalid_argument);
}

TEST(WorkDistTest, ConstantAndClamping) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(WorkDist::constant(3.0).sample(rng), 3.0);
  // Constant 0 would be an invalid node weight; the sampler clamps.
  EXPECT_GT(WorkDist::constant(0.0).sample(rng), 0.0);
}

TEST(WorkDistTest, UniformWithinBounds) {
  Rng rng(2);
  const WorkDist dist = WorkDist::uniform(1.0, 2.0);
  for (int i = 0; i < 200; ++i) {
    const Work w = dist.sample(rng);
    EXPECT_GE(w, 1.0);
    EXPECT_LT(w, 2.0);
  }
}

// ---------------------------------------------------------------------------
// Property sweeps over randomized families.
// ---------------------------------------------------------------------------

class RandomFamilies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFamilies, LayeredIsValidAndLayerDeep) {
  Rng rng(GetParam());
  LayeredParams params;
  params.layers = 5;
  params.min_width = 2;
  params.max_width = 6;
  const Dag dag = make_layered_random(rng, params);
  // Validity (acyclicity etc.) is enforced by build(); check shape: span is
  // at least the number of layers times the min node weight.
  EXPECT_GE(dag.num_nodes(), 10u);
  EXPECT_GT(dag.span(), 0.0);
  EXPECT_LE(dag.span(), dag.total_work() + 1e-9);
}

TEST_P(RandomFamilies, SeriesParallelSingleSourceSink) {
  Rng rng(GetParam());
  SeriesParallelParams params;
  params.max_depth = 3;
  const Dag dag = make_series_parallel(rng, params);
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(count_sinks(dag), 1u);
  EXPECT_LE(dag.span(), dag.total_work() + 1e-9);
}

TEST_P(RandomFamilies, RandomDagRespectsTopoOrder) {
  Rng rng(GetParam());
  RandomDagParams params;
  params.nodes = 24;
  params.edge_prob = 0.15;
  const Dag dag = make_random_dag(rng, params);
  EXPECT_EQ(dag.num_nodes(), 24u);
  // Edges only go forward in node-id order by construction.
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (NodeId succ : dag.successors(v)) EXPECT_GT(succ, v);
  }
}

TEST_P(RandomFamilies, SpanNeverExceedsWorkAndLevelsConsistent) {
  Rng rng(GetParam() ^ 0xABCDEF);
  RandomDagParams params;
  params.nodes = 32;
  params.edge_prob = 0.1;
  const Dag dag = make_random_dag(rng, params);
  const std::vector<Work> top = top_levels(dag);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    // top_level + bottom_level counts the node twice; any path through v is
    // at most the span.
    EXPECT_LE(top[v] + dag.bottom_level(v) - dag.node_work(v),
              dag.span() + 1e-9);
    EXPECT_GE(dag.bottom_level(v), dag.node_work(v));
    EXPECT_GE(top[v], dag.node_work(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFamilies,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dagsched
