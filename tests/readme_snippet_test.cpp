// Keeps the README's code snippets honest: this test mirrors the
// quickstart fragment (directed 3-cycle in time order) and must compile
// and behave as documented.
#include <gtest/gtest.h>

#include "core/stream_driver.h"
#include "core/tcm_engine.h"

namespace tcsm {
namespace {

TEST(ReadmeSnippet, DirectedOrderedTriangle) {
  // 1. Temporal query graph: a directed 3-cycle matched in time order.
  QueryGraph query(/*directed=*/true);
  VertexId a = query.AddVertex(/*label=*/0);
  VertexId b = query.AddVertex(0);
  VertexId c = query.AddVertex(0);
  EdgeId t1 = query.AddEdge(a, b);
  EdgeId t2 = query.AddEdge(b, c);
  EdgeId t3 = query.AddEdge(c, a);
  ASSERT_TRUE(query.AddOrder(t1, t2).ok());  // t1 < t2
  ASSERT_TRUE(query.AddOrder(t2, t3).ok());  // t2 < t3

  // 2. A stream context owning the shared sliding-window graph, with one
  //    TCM engine attached as a read-only view.
  const std::vector<Label> vertex_labels(5, 0);
  SharedStreamContext stream(GraphSchema{/*directed=*/true, vertex_labels});
  TcmEngine engine(query, stream.graph());
  stream.Attach(&engine);
  CollectingSink sink;
  engine.set_sink(&sink);

  // 3. Stream a dataset with a time window.
  TemporalDataset dataset;
  dataset.directed = true;
  dataset.vertex_labels = vertex_labels;
  auto add = [&](VertexId s, VertexId d, Timestamp t) {
    TemporalEdge e;
    e.id = static_cast<EdgeId>(dataset.edges.size());
    e.src = s;
    e.dst = d;
    e.ts = t;
    dataset.edges.push_back(e);
  };
  // The README asks for an edge list sorted by timestamp; the driver
  // refuses one that is not.
  add(0, 1, 10);   // t1 candidate
  add(2, 0, 15);   // violates t2 < t3 and completes no rotation either
  add(1, 2, 20);   // t2 candidate
  add(2, 0, 30);   // completes the ordered ring
  add(0, 1, 900);  // much later; ring members will have expired

  StreamConfig config;
  config.window = 800;
  StreamResult result = RunStream(dataset, config, &stream);

  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.occurred, 1u);
  EXPECT_EQ(result.expired, 1u);
  ASSERT_FALSE(sink.matches().empty());
  const Embedding& m = sink.matches().front().first;
  EXPECT_EQ(m.vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(m.edges, (std::vector<EdgeId>{0, 2, 3}));
}

}  // namespace
}  // namespace tcsm
