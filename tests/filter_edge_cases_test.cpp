// Focused edge cases for the max-min timestamp index beyond the
// randomized sweeps: deep chains, duplicate timestamps, directed data,
// labeled edges inside weak embeddings, and memory accounting.
#include <gtest/gtest.h>

#include <cstdint>

#include "dag/query_dag.h"
#include "filter/maxmin_index.h"
#include "graph/temporal_graph.h"
#include "testing/oracle.h"

namespace tcsm {
namespace {

/// Path query u0 - u1 - ... - uk with e_i ≺ e_{i+1} for all i.
QueryGraph ChainQuery(size_t edges, bool directed = false) {
  QueryGraph q(directed);
  q.AddVertex(0);
  for (size_t i = 0; i < edges; ++i) {
    q.AddVertex(0);
    q.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
    if (i > 0) {
      TCSM_CHECK(q.AddOrder(static_cast<EdgeId>(i - 1),
                            static_cast<EdgeId>(i))
                     .ok());
    }
  }
  return q;
}

TEST(FilterEdgeCases, DeepChainPropagation) {
  // Data: a long path with strictly increasing timestamps — the only
  // TC-embedding maps edge i to data edge i. The gate at the chain head
  // must reflect the whole downstream path.
  const size_t k = 6;
  const QueryGraph q = ChainQuery(k);
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);
  TemporalGraph g;
  for (size_t i = 0; i <= k; ++i) g.AddVertex(0);
  for (size_t i = 0; i < k; ++i) {
    g.InsertEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
                 static_cast<Timestamp>(10 * (i + 1)));
  }
  MaxMinIndex index(&g, &dag);
  // Chain rooted at u0: the child endpoint of e0 is u1; its gate for e0
  // is min over the downstream path of the max-min values.
  const VertexId child0 = dag.ChildOf(0);
  const VertexId img = child0 == 1 ? 1 : 0;
  EXPECT_EQ(index.Later(child0, img, 0),
            OracleLater(g, dag, child0, img, 0));
  // All data edges are TC-matchable to their chain positions.
  for (size_t i = 0; i < k; ++i) {
    const TemporalEdge& ed = g.Edge(static_cast<EdgeId>(i));
    EXPECT_TRUE(index.CheckMatchable(static_cast<EdgeId>(i), ed, false) ||
                index.CheckMatchable(static_cast<EdgeId>(i), ed, true))
        << i;
  }
}

TEST(FilterEdgeCases, DuplicateTimestampsNeverSatisfyStrictOrder) {
  // Two adjacent data edges with identical timestamps cannot host a
  // 2-chain with e0 ≺ e1 (strict <), and the filter must know that.
  const QueryGraph q = ChainQuery(2);
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);
  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  g.InsertEdge(0, 1, 5);
  g.InsertEdge(1, 2, 5);
  MaxMinIndex index(&g, &dag);
  const TemporalEdge& first = g.Edge(0);
  // Whatever the DAG orientation, the gate must reject matching e0 to the
  // ts-5 edge because no strictly-later continuation exists.
  EXPECT_FALSE(index.CheckMatchable(0, first, false) ||
               index.CheckMatchable(0, first, true));
}

TEST(FilterEdgeCases, DirectedDataRespectsOrientationInWeakEmbeddings) {
  QueryGraph q(/*directed=*/true);
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddVertex(0);
  const EdgeId e0 = q.AddEdge(0, 1);
  const EdgeId e1 = q.AddEdge(1, 2);
  ASSERT_TRUE(q.AddOrder(e0, e1).ok());
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);

  TemporalGraph g(/*directed=*/true);
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  g.InsertEdge(0, 1, 1);
  // The continuation edge points INTO vertex 1 — wrong direction for e1.
  g.InsertEdge(2, 1, 5);
  MaxMinIndex index(&g, &dag);
  // Copy: InsertEdge below may grow the slot pool and invalidate
  // references returned by Edge().
  const TemporalEdge first = g.Edge(0);
  EXPECT_FALSE(index.CheckMatchable(e0, first, false));
  // Fixing the direction makes it matchable.
  g.InsertEdge(1, 2, 7);
  std::vector<UvPair> touched;
  index.OnEdgeInserted(g.Edge(2), &touched);
  EXPECT_TRUE(index.CheckMatchable(e0, first, false));
}

TEST(FilterEdgeCases, EdgeLabelsFilterWeakEmbeddings) {
  QueryGraph q;
  q.AddVertex(0);
  q.AddVertex(0);
  q.AddVertex(0);
  const EdgeId e0 = q.AddEdge(0, 1, /*elabel=*/1);
  const EdgeId e1 = q.AddEdge(1, 2, /*elabel=*/2);
  ASSERT_TRUE(q.AddOrder(e0, e1).ok());
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);

  TemporalGraph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  g.InsertEdge(0, 1, 1, /*label=*/1);
  g.InsertEdge(1, 2, 5, /*label=*/1);  // wrong label for e1
  MaxMinIndex index(&g, &dag);
  // Copy: InsertEdge below may grow the slot pool and invalidate
  // references returned by Edge().
  const TemporalEdge first = g.Edge(0);
  EXPECT_FALSE(index.CheckMatchable(e0, first, false) ||
               index.CheckMatchable(e0, first, true));
  g.InsertEdge(1, 2, 6, /*label=*/2);
  std::vector<UvPair> touched;
  index.OnEdgeInserted(g.Edge(2), &touched);
  EXPECT_TRUE(index.CheckMatchable(e0, first, false) ||
              index.CheckMatchable(e0, first, true));
}

TEST(FilterEdgeCases, MemoryAndEntryCountsGrow) {
  const QueryGraph q = ChainQuery(3);
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);
  TemporalGraph g;
  for (int i = 0; i < 10; ++i) g.AddVertex(0);
  MaxMinIndex index(&g, &dag);
  EXPECT_EQ(index.NumEntries(), 0u);
  const size_t empty_bytes = index.EstimateMemoryBytes();
  for (Timestamp t = 1; t <= 9; ++t) {
    g.InsertEdge(static_cast<VertexId>(t - 1), static_cast<VertexId>(t), t);
    std::vector<UvPair> touched;
    index.OnEdgeInserted(g.Edge(static_cast<EdgeId>(t - 1)), &touched);
  }
  // Evaluate some gates to force entry materialization.
  for (EdgeId id = 0; id < 9; ++id) {
    (void)index.CheckMatchable(0, g.Edge(id), false);
  }
  EXPECT_GT(index.NumEntries(), 0u);
  EXPECT_GT(index.EstimateMemoryBytes(), empty_bytes);
}

TEST(FilterEdgeCases, MemoryEstimatePinnedForOneEntry) {
#if !defined(__GLIBCXX__) || UINTPTR_MAX != UINT64_MAX
  GTEST_SKIP() << "byte counts below assume libstdc++ on an LP64 target";
#endif
  // u0 -e0- u1 -e1- u2 with e0 ≺ e1, rooted at u0: u1 tracks one Later
  // slot. A label mismatch materializes exactly one entry, at (u1, v0).
  const QueryGraph q = ChainQuery(2);
  const QueryDag dag = QueryDag::BuildDagGreedy(q, 0);
  ASSERT_EQ(dag.TrackedLater(1).size(), 1u);
  ASSERT_EQ(dag.TrackedEarlier(1).size(), 0u);
  TemporalGraph g;
  g.AddVertex(1);
  MaxMinIndex index(&g, &dag);
  EXPECT_FALSE(index.Weak(1, 0));
  ASSERT_EQ(index.NumEntries(), 1u);
  // The entry's vector headers are inside its map node {key 4 + pad,
  // Entry 56 -> 64, +16 links}; only its one 8-byte slot is extra.
  const size_t u1 = (64 + 16) + 13 * 8 + 56 + 1 * 8;
  const size_t empty_map = 1 * 8 + 56;  // u0 and u2
  EXPECT_EQ(index.EstimateMemoryBytes(), u1 + 2 * empty_map);
  EXPECT_EQ(index.EstimateMemoryBytes(), 376u);
}

}  // namespace
}  // namespace tcsm
