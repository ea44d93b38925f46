#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/multi_engine.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "testlib/running_example.h"

namespace tcsm {
namespace {

class TaggingCollector : public MultiMatchSink {
 public:
  void OnMatch(size_t query_index, const Embedding&, MatchKind kind,
               uint64_t multiplicity) override {
    if (kind == MatchKind::kOccurred) occurred[query_index] += multiplicity;
  }
  std::map<size_t, uint64_t> occurred;
};

QueryGraph SingleEdgeQuery(Label a, Label b, bool directed = false) {
  QueryGraph q(directed);
  q.AddVertex(a);
  q.AddVertex(b);
  q.AddEdge(0, 1);
  return q;
}

TEST(MultiQueryEngine, FansOutToAllQueries) {
  // Query 0: the running-example pattern; queries 1/2: single edges with
  // specific endpoint labels.
  std::vector<QueryGraph> queries;
  queries.push_back(testlib::RunningExampleQuery());
  queries.push_back(SingleEdgeQuery(0, 1));  // v1--v2 edges: s1, s6
  queries.push_back(SingleEdgeQuery(2, 3));  // v4--v5: s2, s3, s13

  MultiQueryEngine engine(queries, testlib::RunningExampleSchema());
  TaggingCollector sink;
  engine.set_multi_sink(&sink);
  StreamConfig config;
  config.window = 1000;
  const StreamResult res =
      RunStream(testlib::RunningExampleDataset(), config, &engine);
  ASSERT_TRUE(res.completed);

  EXPECT_EQ(sink.occurred[0], 16u);
  EXPECT_EQ(sink.occurred[1], 2u);
  EXPECT_EQ(sink.occurred[2], 3u);
  EXPECT_EQ(res.occurred, 16u + 2u + 3u);  // aggregated counters
  EXPECT_EQ(engine.NumQueries(), 3u);
  EXPECT_EQ(engine.QueryCounters(1).occurred, 2u);
}

TEST(MultiQueryEngine, MatchesSingleEngineResults) {
  std::vector<QueryGraph> queries{testlib::RunningExampleQuery(),
                                  testlib::RunningExampleQuery()};
  MultiQueryEngine multi(queries, testlib::RunningExampleSchema());
  TaggingCollector sink;
  multi.set_multi_sink(&sink);
  StreamConfig config;
  config.window = 10;
  const StreamResult res =
      RunStream(testlib::RunningExampleDataset(), config, &multi);
  ASSERT_TRUE(res.completed);
  // Duplicated query: both instances see the same 6 windowed matches.
  EXPECT_EQ(sink.occurred[0], 6u);
  EXPECT_EQ(sink.occurred[1], 6u);
}

TEST(MultiQueryEngine, SharesOneGraphAcrossQueries) {
  // Every per-query engine is a view of the one context-owned graph.
  std::vector<QueryGraph> queries(16, testlib::RunningExampleQuery());
  MultiQueryEngine multi(queries, testlib::RunningExampleSchema());
  for (size_t i = 0; i < multi.NumQueries(); ++i) {
    EXPECT_EQ(&multi.QueryEngine(i).graph(), &multi.graph());
  }
}

TEST(MultiQueryEngine, MemoryAggregates) {
  // Shared-graph accounting: N queries cost one graph plus N index states,
  // so the footprint must grow sub-linearly in N — with identical queries,
  // exactly 15 graph copies cheaper than the per-engine-copy baseline.
  std::vector<QueryGraph> one{testlib::RunningExampleQuery()};
  std::vector<QueryGraph> sixteen(16, testlib::RunningExampleQuery());
  MultiQueryEngine small(one, testlib::RunningExampleSchema());
  MultiQueryEngine big(sixteen, testlib::RunningExampleSchema());

  // Fill the window so the graph holds live edges.
  const TemporalDataset ds = testlib::RunningExampleDataset();
  for (const TemporalEdge& e : ds.edges) {
    small.OnEdgeArrival(e);
    big.OnEdgeArrival(e);
  }

  const size_t mem1 = small.EstimateMemoryBytes();
  const size_t mem16 = big.EstimateMemoryBytes();
  const size_t graph_bytes = big.graph().EstimateMemoryBytes();
  ASSERT_GT(graph_bytes, 0u);
  EXPECT_GT(mem16, mem1);
  EXPECT_LT(mem16, 16 * mem1);  // sub-linear growth
  // Identical queries build identical per-query indexes, so the only
  // difference from 16 independent copies is the 15 elided graphs.
  // (Written addition-only so a regression can't wrap the unsigned math.)
  EXPECT_EQ(mem16 + 15 * graph_bytes, 16 * mem1);
}

// ---- Route table (SharedStreamContext::Route) ----------------------------

/// Declares fixed route signatures (std::nullopt: every event) and logs
/// its index on every arrival it receives.
class StubEngine : public ContinuousEngine {
 public:
  StubEngine(std::optional<std::vector<LabelSignature>> sigs, size_t index,
             std::vector<size_t>* log)
      : sigs_(std::move(sigs)), index_(index), log_(log) {}
  std::string name() const override { return "stub"; }
  void OnEdgeInserted(const TemporalEdge&) override { log_->push_back(index_); }
  void OnEdgeExpiring(const TemporalEdge&) override {}
  size_t EstimateMemoryBytes() const override { return 0; }
  std::optional<std::vector<LabelSignature>> RouteSignatures()
      const override {
    return sigs_;
  }

 private:
  std::optional<std::vector<LabelSignature>> sigs_;
  size_t index_;
  std::vector<size_t>* log_;
};

GraphSchema LabeledSchema(bool directed, std::vector<Label> labels) {
  GraphSchema schema;
  schema.directed = directed;
  schema.vertex_labels = std::move(labels);
  return schema;
}

TemporalEdge EdgeOf(VertexId src, VertexId dst, Label label) {
  TemporalEdge e;
  e.id = 0;  // the first arrival's dense id
  e.src = src;
  e.dst = dst;
  e.label = label;
  return e;
}

using Route = std::vector<size_t>;

TEST(RouteTable, UndirectedQueryRoutesBothOrientations) {
  // Vertex labels: v0 = 1, v1 = 2, v2 = 1.
  SharedStreamContext ctx(LabeledSchema(false, {1, 2, 1}));
  TcmEngine engine(SingleEdgeQuery(1, 2), ctx.graph());
  ctx.Attach(&engine);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 0)), Route{0});
  EXPECT_EQ(ctx.Route(EdgeOf(1, 0, 0)), Route{0});
  EXPECT_EQ(ctx.Route(EdgeOf(0, 2, 0)), Route{}) << "labels (1, 1)";
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 5)), Route{}) << "edge label 5";
}

TEST(RouteTable, DirectedQueryRoutesItsOrientationOnly) {
  SharedStreamContext ctx(LabeledSchema(true, {1, 2}));
  TcmEngine engine(SingleEdgeQuery(1, 2, /*directed=*/true), ctx.graph());
  ctx.Attach(&engine);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 0)), Route{0});
  EXPECT_EQ(ctx.Route(EdgeOf(1, 0, 0)), Route{});
}

TEST(RouteTable, DuplicateSignatureGivesOneEntry) {
  std::vector<size_t> log;
  SharedStreamContext ctx(LabeledSchema(false, {3, 3}));
  // Both orientations of an equal-label undirected edge are one signature.
  TcmEngine tcm(SingleEdgeQuery(3, 3), ctx.graph());
  StubEngine stub(std::vector<LabelSignature>{{0, 3, 3}, {0, 3, 3}}, 1, &log);
  ctx.Attach(&tcm);
  ctx.Attach(&stub);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 0)), (Route{0, 1}));
  ctx.OnEdgeArrival(EdgeOf(0, 1, 0));
  EXPECT_EQ(log, Route{1}) << "the stub must be called once per event";
}

TEST(RouteTable, WideLabelsDoNotCollide) {
  // Labels past 21 bits: a key packing three labels into 64 bits would
  // conflate (0, 1, 0) with (2^21, 0, 0) or lose the high bits.
  constexpr Label kWide = Label{1} << 21;
  constexpr Label kTop = 0xFFFFFFFFu;
  SharedStreamContext ctx(LabeledSchema(true, {0, 1, kTop, kTop - 1}));
  std::vector<size_t> log;
  StubEngine a(std::vector<LabelSignature>{{kWide, 0, 0}}, 0, &log);
  StubEngine b(std::vector<LabelSignature>{{kTop, kTop, kTop - 1}}, 1, &log);
  ctx.Attach(&a);
  ctx.Attach(&b);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 0, kWide)), Route{0});
  EXPECT_EQ(ctx.Route(EdgeOf(1, 0, 0)), Route{}) << "(0, 1, 0)";
  EXPECT_EQ(ctx.Route(EdgeOf(0, 0, 0)), Route{});
  EXPECT_EQ(ctx.Route(EdgeOf(2, 3, kTop)), Route{1});
  EXPECT_EQ(ctx.Route(EdgeOf(3, 2, kTop)), Route{});
  EXPECT_EQ(ctx.Route(EdgeOf(2, 3, kTop - 1)), Route{});
}

TEST(RouteTable, EveryEventEngineKeepsAttachOrder) {
  std::vector<size_t> log;
  const LabelSignature s{0, 1, 1};
  const LabelSignature t{1, 1, 1};
  StubEngine e0(std::vector<LabelSignature>{s}, 0, &log);
  StubEngine e1(std::nullopt, 1, &log);
  StubEngine e2(std::vector<LabelSignature>{s, t}, 2, &log);
  StubEngine e3(std::vector<LabelSignature>{t}, 3, &log);
  StubEngine e4(std::nullopt, 4, &log);
  SharedStreamContext ctx(LabeledSchema(true, {1, 1}));
  for (StubEngine* e : {&e0, &e1, &e2, &e3, &e4}) ctx.Attach(e);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 0)), (Route{0, 1, 2, 4}));
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 1)), (Route{1, 2, 3, 4}));
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 7)), (Route{1, 4})) << "unrouted label";
  // Delivery follows the route, in attach order.
  ctx.OnEdgeArrival(EdgeOf(0, 1, 1));
  EXPECT_EQ(log, (Route{1, 2, 3, 4}));
}

TEST(RouteTable, AbsenceQueryTakesEveryEvent) {
  SharedStreamContext ctx(LabeledSchema(false, {1, 2, 3}));
  QueryGraph plain = SingleEdgeQuery(1, 2);
  QueryGraph absent = plain;
  ASSERT_TRUE(absent.AddAbsence(0, 1, 9, 5).ok());
  TcmEngine routed(plain, ctx.graph());
  TcmEngine watching(absent, ctx.graph());
  ctx.Attach(&routed);
  ctx.Attach(&watching);
  EXPECT_EQ(ctx.Route(EdgeOf(0, 1, 0)), (Route{0, 1}));
  EXPECT_EQ(ctx.Route(EdgeOf(0, 2, 9)), Route{1})
      << "an absence window must see arrivals no query edge matches";
}

}  // namespace
}  // namespace tcsm
