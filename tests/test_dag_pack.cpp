// pack_dag() against a reference: a test-local copy of the vector-based
// DagBuilder::build() that the packed block replaced (a std::sort of the
// whole edge list, ten separate vectors).  Every generator's DAG and seeded
// random edge lists, fed in shuffled order, must give the same adjacency
// order, topological order, sources, W, L and bottom levels -- or, for an
// invalid list, the same diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dag/builder.h"
#include "dag/generators.h"
#include "util/rng.h"

namespace dagsched {
namespace {

using Edge = std::pair<NodeId, NodeId>;

struct RefDag {
  std::vector<std::vector<NodeId>> succ, pred;
  std::vector<NodeId> sources, topo;
  std::vector<Work> bottom;
  Work total_work = 0.0;
  Work span = 0.0;
};

/// The replaced algorithm, step for step; throws what it threw.
RefDag reference_build(const std::vector<Work>& works, std::vector<Edge> edges) {
  if (works.empty()) throw std::invalid_argument("DAG must be non-empty");
  std::sort(edges.begin(), edges.end());
  const auto dup = std::adjacent_find(edges.begin(), edges.end());
  if (dup != edges.end()) {
    throw std::invalid_argument("duplicate edge " + std::to_string(dup->first) +
                                "->" + std::to_string(dup->second));
  }
  const std::size_t n = works.size();
  RefDag dag;
  dag.succ.resize(n);
  dag.pred.resize(n);
  for (const auto& [from, to] : edges) {
    dag.succ[from].push_back(to);
    dag.pred[to].push_back(from);
  }
  std::vector<std::size_t> indegree(n);
  for (std::size_t v = 0; v < n; ++v) indegree[v] = dag.pred[v].size();
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[v] == 0) {
      dag.topo.push_back(v);
      dag.sources.push_back(v);
    }
  }
  for (std::size_t head = 0; head < dag.topo.size(); ++head) {
    for (const NodeId v : dag.succ[dag.topo[head]]) {
      if (--indegree[v] == 0) dag.topo.push_back(v);
    }
  }
  if (dag.topo.size() != n) throw std::invalid_argument("DAG contains a cycle");
  for (const NodeId v : dag.topo) dag.total_work += works[v];
  dag.bottom.assign(n, 0.0);
  for (auto it = dag.topo.rbegin(); it != dag.topo.rend(); ++it) {
    Work longest_suffix = 0.0;
    for (const NodeId u : dag.succ[*it]) {
      longest_suffix = std::max(longest_suffix, dag.bottom[u]);
    }
    dag.bottom[*it] = longest_suffix + works[*it];
  }
  for (const NodeId v : dag.sources) {
    dag.span = std::max(dag.span, dag.bottom[v]);
  }
  return dag;
}

std::vector<NodeId> as_vector(std::span<const NodeId> ids) {
  return {ids.begin(), ids.end()};
}

/// Every observable of `dag` equals the reference's, bit for bit.
void expect_matches(const Dag& dag, const RefDag& ref,
                    const std::vector<Work>& works) {
  ASSERT_EQ(dag.num_nodes(), works.size());
  std::size_t edges = 0;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(dag.node_work(v), works[v]) << v;
    EXPECT_EQ(as_vector(dag.successors(v)), ref.succ[v]) << v;
    EXPECT_EQ(as_vector(dag.predecessors(v)), ref.pred[v]) << v;
    EXPECT_EQ(dag.out_degree(v), ref.succ[v].size()) << v;
    EXPECT_EQ(dag.in_degree(v), ref.pred[v].size()) << v;
    EXPECT_EQ(dag.bottom_level(v), ref.bottom[v]) << v;
    edges += ref.succ[v].size();
  }
  EXPECT_EQ(dag.num_edges(), edges);
  EXPECT_EQ(as_vector(dag.topological_order()), ref.topo);
  EXPECT_EQ(as_vector(dag.sources()), ref.sources);
  EXPECT_EQ(dag.total_work(), ref.total_work);
  EXPECT_EQ(dag.span(), ref.span);
}

/// The diagnostic `build` throws, or nothing.
template <typename Build>
std::optional<std::string> error_of(Build&& build) {
  try {
    build();
  } catch (const std::invalid_argument& err) {
    return std::string(err.what());
  }
  return std::nullopt;
}

/// Packs (works, edges) three ways -- pack_dag, DagBuilder and the
/// reference -- and requires the same DAG or the same diagnostic.
void check_against_reference(const std::vector<Work>& works,
                             const std::vector<Edge>& edges) {
  std::optional<RefDag> ref;
  const auto ref_error = error_of([&] { ref = reference_build(works, edges); });

  std::vector<NodeId> pending;
  std::optional<Dag> packed;
  const auto pack_error =
      error_of([&] { packed.emplace(pack_dag(works, edges, pending)); });
  ASSERT_EQ(pack_error, ref_error);

  DagBuilder builder;
  for (const Work w : works) builder.add_node(w);
  for (const auto& [from, to] : edges) builder.add_edge(from, to);
  std::optional<Dag> built;
  const auto build_error =
      error_of([&] { built.emplace(std::move(builder).build()); });
  ASSERT_EQ(build_error, ref_error);

  if (ref_error) return;
  expect_matches(*packed, *ref, works);
  expect_matches(*built, *ref, works);
}

/// `dag`'s own node works and edge list, the edges in a seeded shuffle.
std::pair<std::vector<Work>, std::vector<Edge>> shuffled_input(const Dag& dag,
                                                               Rng& rng) {
  std::vector<Work> works(dag.node_works().begin(), dag.node_works().end());
  std::vector<Edge> edges;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (const NodeId succ : dag.successors(v)) edges.emplace_back(v, succ);
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(edges[i - 1], edges[j]);
  }
  return {std::move(works), std::move(edges)};
}

TEST(DagPack, EveryGeneratorMatchesTheReference) {
  Rng rng(2017);
  std::vector<Dag> dags;
  dags.push_back(make_single_node(2.5));
  dags.push_back(make_chain(12, 0.5));
  dags.push_back(make_parallel_block(9, 1.25));
  dags.push_back(make_fig1_dag(4, 5, 1.0));
  dags.push_back(make_fig2_dag(6, 11, 0.5));
  dags.push_back(make_fork_join(3, 5, 1.0, 0.25));
  dags.push_back(make_wavefront(4, 7, 1.5));
  dags.push_back(make_stencil_1d(4, 6, 1.0));
  dags.push_back(make_map_reduce(5, 3, 2.0, 3.0, 1.0));
  for (int seed = 0; seed < 8; ++seed) {
    dags.push_back(make_layered_random(rng, LayeredParams{}));
    dags.push_back(make_series_parallel(rng, SeriesParallelParams{}));
    dags.push_back(make_random_dag(rng, RandomDagParams{}));
  }
  for (const Dag& dag : dags) {
    const auto [works, edges] = shuffled_input(dag, rng);
    check_against_reference(works, edges);
  }
}

TEST(DagPack, SeededRandomEdgeListsMatchTheReference) {
  // Forward edges in random order, with a chance of a duplicate or a back
  // edge (a cycle), so both the valid and the rejecting paths are covered.
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<NodeId>(rng.uniform_int(1, 40));
    std::vector<Work> works;
    for (NodeId v = 0; v < n; ++v) works.push_back(rng.uniform(0.1, 3.0));
    std::vector<Edge> edges;
    // Forward in a random relabelling of the ids, so the topological order
    // is not the id order.
    std::vector<NodeId> label(n);
    for (NodeId v = 0; v < n; ++v) label[v] = v;
    for (NodeId i = n; i > 1; --i) {
      std::swap(label[i - 1], label[static_cast<std::size_t>(
                                  rng.uniform_int(0, std::int64_t{i} - 1))]);
    }
    const double density = rng.uniform(0.0, 0.3);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        if (rng.uniform(0.0, 1.0) < density) {
          edges.emplace_back(label[a], label[b]);
        }
      }
    }
    if (!edges.empty() && rng.uniform(0.0, 1.0) < 0.15) {
      edges.push_back(edges[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(edges.size()) - 1))]);
    }
    if (!edges.empty() && rng.uniform(0.0, 1.0) < 0.15) {
      const Edge e = edges[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(edges.size()) - 1))];
      edges.emplace_back(e.second, e.first);
    }
    for (std::size_t i = edges.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(edges[i - 1], edges[j]);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_against_reference(works, edges);
    if (error_of([&] { reference_build(works, edges); })) ++rejected;
  }
  EXPECT_GT(rejected, 10);
}

TEST(DagPack, DuplicateEdgeNamesTheSmallestDuplicatedPair) {
  // Two duplicated pairs, the larger one listed first.
  const std::vector<Work> works(5, 1.0);
  const std::vector<Edge> edges = {{3, 4}, {1, 2}, {3, 4}, {0, 4}, {1, 2}};
  std::vector<NodeId> pending;
  EXPECT_EQ(error_of([&] { pack_dag(works, edges, pending); }),
            "duplicate edge 1->2");
  check_against_reference(works, edges);
}

TEST(DagPack, BuilderDiagnosticsAreUnchanged) {
  std::vector<NodeId> pending;
  EXPECT_EQ(error_of([&] { pack_dag({}, {}, pending); }),
            "DAG must be non-empty");
  EXPECT_EQ(error_of([&] {
              pack_dag(std::vector<Work>(3, 1.0),
                       std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}}, pending);
            }),
            "DAG contains a cycle");
  DagBuilder b;
  b.add_node(1.0);
  EXPECT_EQ(error_of([&] { b.add_edge(0, 0); }), "self-edge on node 0");
  EXPECT_EQ(error_of([&] { b.add_edge(0, 7); }), "edge endpoint out of range");
  EXPECT_EQ(error_of([&] { b.add_node(0.0); }),
            "node processing time must be > 0, got 0");
  // Shortest round-trip form, not std::to_string's fixed six decimals.
  EXPECT_EQ(error_of([&] { b.add_node(-1e-9); }),
            "node processing time must be > 0, got -1e-09");
  EXPECT_EQ(error_of([&] { b.add_node(-2.5); }),
            "node processing time must be > 0, got -2.5");
}

TEST(DagPack, MemoryBytesCountsTheObjectAndTheBlock) {
  const Dag dag = make_fork_join(2, 3, 1.0, 1.0);
  // 10 nodes, 13 edges: two f64 and three u32 per node, two u32 per edge,
  // two trailing offsets.
  ASSERT_EQ(dag.num_nodes(), 10u);
  ASSERT_EQ(dag.num_edges(), 13u);
  EXPECT_EQ(dag.memory_bytes(),
            sizeof(Dag) + 10 * (2 * sizeof(Work) + 3 * sizeof(NodeId)) +
                (2 * 13 + 2) * sizeof(NodeId));
}

}  // namespace
}  // namespace dagsched
