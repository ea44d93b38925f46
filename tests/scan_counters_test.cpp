// Scan-selectivity counters (adj_entries_scanned / adj_entries_matched):
// the measurable surface of the label-partitioned adjacency. The flat-scan
// ablation (TcmConfig::partitioned_adjacency = false) visits every
// incident entry, the partitioned default only the statically feasible
// bucket — the matched counts must agree exactly (same verdicts, different
// work) and the match streams must be identical.
#include <gtest/gtest.h>

#include "baselines/local_enum_engine.h"
#include "baselines/timing_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm {
namespace {

struct Workload {
  TemporalDataset dataset;
  QueryGraph query;
  GraphSchema schema;
  StreamConfig config;
};

/// A richly labeled stream where most adjacency entries are statically
/// infeasible for any one query edge — the regime the partitioning targets.
Workload ManyLabelWorkload() {
  SyntheticSpec spec;
  spec.name = "scan_counters";
  spec.num_vertices = 60;
  spec.num_edges = 1500;
  spec.num_vertex_labels = 6;
  spec.num_edge_labels = 3;
  spec.avg_parallel_edges = 1.6;
  spec.seed = 20240721;
  Workload w;
  w.dataset = GenerateSynthetic(spec);
  w.config.window = 60;
  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = w.config.window;
  Rng rng(spec.seed);
  EXPECT_TRUE(GenerateQuery(w.dataset, opt, &rng, &w.query));
  w.schema = GraphSchema{w.dataset.directed, w.dataset.vertex_labels};
  return w;
}

TEST(ScanCounters, PartitionedScansLessMatchesSame) {
  const Workload w = ManyLabelWorkload();

  TcmConfig flat;
  flat.partitioned_adjacency = false;
  SingleQueryContext<TcmEngine> flat_run(w.query, w.schema, flat);
  const StreamResult flat_res = RunStream(w.dataset, w.config, &flat_run);
  ASSERT_TRUE(flat_res.completed);

  SingleQueryContext<TcmEngine> part_run(w.query, w.schema);
  const StreamResult part_res = RunStream(w.dataset, w.config, &part_run);
  ASSERT_TRUE(part_res.completed);

  // Identical results either way.
  EXPECT_EQ(flat_res.occurred, part_res.occurred);
  EXPECT_EQ(flat_res.expired, part_res.expired);
  // The same entries pass the static checks in both modes...
  EXPECT_EQ(flat_res.adj_entries_matched, part_res.adj_entries_matched);
  // ...but the flat scan visits every incident entry to find them. With 6
  // vertex and 3 edge labels most entries are infeasible, so the gap is
  // strict (this is the partitioning win the bench quantifies).
  EXPECT_GT(flat_res.adj_entries_scanned, part_res.adj_entries_scanned);
  EXPECT_GE(part_res.adj_entries_scanned, part_res.adj_entries_matched);
  EXPECT_GT(part_res.adj_entries_scanned, 0u);
}

TEST(ScanCounters, SurfaceThroughEngineCountersAndAggregation) {
  const Workload w = ManyLabelWorkload();
  SingleQueryContext<TcmEngine> run(w.query, w.schema);
  const StreamResult res = RunStream(w.dataset, w.config, &run);
  ASSERT_TRUE(res.completed);
  const EngineCounters& c = run.engine().counters();
  EXPECT_EQ(c.adj_entries_scanned, res.adj_entries_scanned);
  EXPECT_EQ(c.adj_entries_matched, res.adj_entries_matched);
  EXPECT_EQ(run.AggregateCounters().adj_entries_scanned,
            c.adj_entries_scanned);
}

TEST(ScanCounters, BaselineEnginesCountTheirScans) {
  const Workload w = ManyLabelWorkload();
  {
    SingleQueryContext<LocalEnumEngine> run(w.query, w.schema);
    const StreamResult res = RunStream(w.dataset, w.config, &run);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.adj_entries_scanned, 0u);
    EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  }
  {
    SingleQueryContext<TimingEngine> run(w.query, w.schema);
    const StreamResult res = RunStream(w.dataset, w.config, &run);
    ASSERT_TRUE(res.completed);
    EXPECT_GE(res.adj_entries_scanned, res.adj_entries_matched);
  }
}

TEST(ScanCounters, SingleLabelStreamScansEqualFlatScan) {
  // With one vertex label and one edge label every incident entry sits in
  // the one bucket, so partitioned and flat scans do identical work — the
  // no-regression half of the storage-scaling acceptance bar.
  SyntheticSpec spec;
  spec.name = "scan_counters_unlabeled";
  spec.num_vertices = 20;
  spec.num_edges = 400;
  spec.num_vertex_labels = 1;
  spec.num_edge_labels = 1;
  spec.avg_parallel_edges = 1.5;
  spec.seed = 99;
  const TemporalDataset ds = GenerateSynthetic(spec);
  const GraphSchema schema{ds.directed, ds.vertex_labels};
  StreamConfig config;
  config.window = 30;
  QueryGenOptions opt;
  opt.num_edges = 3;
  opt.density = 0.5;
  opt.window = config.window;
  Rng rng(spec.seed);
  QueryGraph q;
  ASSERT_TRUE(GenerateQuery(ds, opt, &rng, &q));

  TcmConfig flat;
  flat.partitioned_adjacency = false;
  SingleQueryContext<TcmEngine> flat_run(q, schema, flat);
  const StreamResult flat_res = RunStream(ds, config, &flat_run);

  SingleQueryContext<TcmEngine> part_run(q, schema);
  const StreamResult part_res = RunStream(ds, config, &part_run);

  EXPECT_EQ(flat_res.occurred, part_res.occurred);
  EXPECT_EQ(flat_res.adj_entries_scanned, part_res.adj_entries_scanned);
  EXPECT_EQ(flat_res.adj_entries_matched, part_res.adj_entries_matched);
}

}  // namespace
}  // namespace tcsm
