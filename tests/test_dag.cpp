// Unit tests for Dag / DagBuilder: validation, CSR adjacency, metrics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "dag/builder.h"
#include "dag/dag.h"
#include "dag/dot.h"

namespace dagsched {
namespace {

Dag diamond() {
  // a -> {b, c} -> d with weights 1, 2, 3, 4.
  DagBuilder b;
  const NodeId a = b.add_node(1.0);
  const NodeId n2 = b.add_node(2.0);
  const NodeId n3 = b.add_node(3.0);
  const NodeId d = b.add_node(4.0);
  b.add_edge(a, n2);
  b.add_edge(a, n3);
  b.add_edge(n2, d);
  b.add_edge(n3, d);
  return std::move(b).build();
}

TEST(DagBuilder, RejectsEmpty) {
  DagBuilder b;
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(DagBuilder, RejectsNonPositiveWork) {
  DagBuilder b;
  EXPECT_THROW(b.add_node(0.0), std::invalid_argument);
  EXPECT_THROW(b.add_node(-1.0), std::invalid_argument);
}

TEST(DagBuilder, RejectsSelfEdge) {
  DagBuilder b;
  const NodeId a = b.add_node(1.0);
  EXPECT_THROW(b.add_edge(a, a), std::invalid_argument);
}

TEST(DagBuilder, RejectsOutOfRangeEdge) {
  DagBuilder b;
  const NodeId a = b.add_node(1.0);
  EXPECT_THROW(b.add_edge(a, 5), std::invalid_argument);
}

TEST(DagBuilder, RejectsDuplicateEdge) {
  DagBuilder b;
  const NodeId a = b.add_node(1.0);
  const NodeId c = b.add_node(1.0);
  b.add_edge(a, c);
  b.add_edge(a, c);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(DagBuilder, RejectsCycle) {
  DagBuilder b;
  const NodeId a = b.add_node(1.0);
  const NodeId c = b.add_node(1.0);
  const NodeId d = b.add_node(1.0);
  b.add_edge(a, c);
  b.add_edge(c, d);
  b.add_edge(d, a);
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(Dag, DiamondMetrics) {
  const Dag dag = diamond();
  EXPECT_EQ(dag.num_nodes(), 4u);
  EXPECT_EQ(dag.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 10.0);
  // Longest path a -> c(3) -> d: 1 + 3 + 4 = 8.
  EXPECT_DOUBLE_EQ(dag.span(), 8.0);
}

TEST(Dag, DiamondAdjacency) {
  const Dag dag = diamond();
  EXPECT_EQ(dag.sources().size(), 1u);
  EXPECT_EQ(dag.sources()[0], 0u);
  // The only sink: no other node lacks successors.
  for (NodeId v = 0; v < 3; ++v) EXPECT_GT(dag.out_degree(v), 0u);
  EXPECT_EQ(dag.out_degree(3), 0u);
  EXPECT_EQ(dag.out_degree(0), 2u);
  EXPECT_EQ(dag.in_degree(3), 2u);
  EXPECT_EQ(dag.successors(1).size(), 1u);
  EXPECT_EQ(dag.successors(1)[0], 3u);
  EXPECT_EQ(dag.predecessors(2).size(), 1u);
  EXPECT_EQ(dag.predecessors(2)[0], 0u);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag dag = diamond();
  const auto topo = dag.topological_order();
  ASSERT_EQ(topo.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (NodeId succ : dag.successors(v)) {
      EXPECT_LT(pos[v], pos[succ]);
    }
  }
}

TEST(Dag, Levels) {
  const Dag dag = diamond();
  const std::vector<Work> top = top_levels(dag);
  EXPECT_DOUBLE_EQ(top[0], 1.0);
  EXPECT_DOUBLE_EQ(top[1], 3.0);   // 1 + 2
  EXPECT_DOUBLE_EQ(top[2], 4.0);   // 1 + 3
  EXPECT_DOUBLE_EQ(top[3], 8.0);   // 1 + 3 + 4
  EXPECT_DOUBLE_EQ(dag.bottom_level(0), 8.0);
  EXPECT_DOUBLE_EQ(dag.bottom_level(1), 6.0);  // 2 + 4
  EXPECT_DOUBLE_EQ(dag.bottom_level(2), 7.0);  // 3 + 4
  EXPECT_DOUBLE_EQ(dag.bottom_level(3), 4.0);
}

TEST(Dag, DisconnectedComponentsAllowed) {
  DagBuilder b;
  b.add_node(2.0);
  b.add_node(3.0);
  const Dag dag = std::move(b).build();
  EXPECT_EQ(dag.sources().size(), 2u);
  EXPECT_DOUBLE_EQ(dag.total_work(), 5.0);
  EXPECT_DOUBLE_EQ(dag.span(), 3.0);
}

TEST(Dag, AddChainHelper) {
  DagBuilder b;
  const auto [first, last] = b.add_chain(5, 2.0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(last, 4u);
  const Dag dag = std::move(b).build();
  EXPECT_DOUBLE_EQ(dag.total_work(), 10.0);
  EXPECT_DOUBLE_EQ(dag.span(), 10.0);
}

TEST(Dot, ExportContainsNodesAndEdges) {
  const std::string dot = to_dot(diamond(), "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  // Critical-path nodes (0, 2, 3) are highlighted.
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);
}

}  // namespace
}  // namespace dagsched
