// Long-stream soak for the slot-recycled storage (ctest label `slow`):
// after 10x window-lengths of churn, the live state must still be
// O(window) — slots are reused, the id ring stays window-sized, and the
// estimated footprint plateaus instead of growing with the stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/shared_context.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm {
namespace {

struct SoakStats {
  size_t peak_alive = 0;
  size_t peak_slots = 0;
  size_t peak_id_span = 0;
  size_t peak_graph_bytes = 0;
};

/// Replays `ds` through `ctx` with FIFO expiry at `window`, sampling the
/// storage gauges after every event.
SoakStats Replay(const TemporalDataset& ds, Timestamp window,
                 SharedStreamContext* ctx) {
  SoakStats stats;
  auto observe = [&] {
    const TemporalGraph& g = ctx->graph();
    stats.peak_alive = std::max(stats.peak_alive, g.NumAliveEdges());
    stats.peak_slots = std::max(stats.peak_slots, g.NumSlots());
    stats.peak_id_span = std::max(stats.peak_id_span, g.IdSpan());
    stats.peak_graph_bytes =
        std::max(stats.peak_graph_bytes, g.EstimateMemoryBytes());
  };
  size_t arr = 0;
  size_t exp = 0;
  const size_t n = ds.edges.size();
  while (arr < n || exp < arr) {
    const bool do_expire =
        exp < arr &&
        (arr >= n || ds.edges[exp].ts + window <= ds.edges[arr].ts);
    if (do_expire) {
      ctx->OnEdgeExpiry(ds.edges[exp++]);
    } else {
      ctx->OnEdgeArrival(ds.edges[arr++]);
    }
    observe();
  }
  return stats;
}

TemporalDataset ChurnDataset(size_t num_edges, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "storage_soak";
  spec.num_vertices = 400;
  spec.num_edges = num_edges;
  spec.num_vertex_labels = 4;
  spec.num_edge_labels = 2;
  spec.avg_parallel_edges = 1.8;
  spec.degree_skew = 0.9;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(StorageSoak, LiveStateStaysBoundedOverTenWindows) {
  // Timestamps are arrival ranks, so a window of `kWindow` holds about
  // that many live edges; 10 * kWindow arrivals churn every slot ~10x.
  constexpr Timestamp kWindow = 20000;
  constexpr size_t kEdges = 10 * kWindow;

  const TemporalDataset ds = ChurnDataset(kEdges, 4242);
  SharedStreamContext ctx(GraphSchema{ds.directed, ds.vertex_labels});
  const SoakStats stats = Replay(ds, kWindow, &ctx);

  // Slot recycling: the pool never outgrows the most edges that were ever
  // live at once, +1 for the deferred-reclaim tombstone.
  EXPECT_LE(stats.peak_slots, stats.peak_alive + 1);
  // The id ring advances with FIFO expiry instead of accumulating.
  EXPECT_LE(stats.peak_id_span, stats.peak_alive + 1);
  // Sanity: the stream actually churned (many generations per slot).
  EXPECT_GE(ctx.graph().NumEdgesEver(), 8 * stats.peak_alive);
  EXPECT_EQ(ctx.graph().NumAliveEdges(), 0u);
  EXPECT_LE(ctx.graph().NumSlots(), stats.peak_alive + 1);
}

TEST(StorageSoak, MemoryPlateausAcrossStreamLengths) {
  // Same window, 1x vs 10x stream length: the peak graph footprint must
  // not scale with the stream. (Identical generator settings keep the
  // in-window shape comparable; the bound is deliberately loose.)
  constexpr Timestamp kWindow = 15000;
  const TemporalDataset short_ds = ChurnDataset(kWindow, 7);
  const TemporalDataset long_ds = ChurnDataset(10 * kWindow, 7);

  SharedStreamContext short_ctx(
      GraphSchema{short_ds.directed, short_ds.vertex_labels});
  const SoakStats short_stats = Replay(short_ds, kWindow, &short_ctx);

  SharedStreamContext long_ctx(
      GraphSchema{long_ds.directed, long_ds.vertex_labels});
  const SoakStats long_stats = Replay(long_ds, kWindow, &long_ctx);

  ASSERT_GT(short_stats.peak_graph_bytes, 0u);
  EXPECT_LE(long_stats.peak_graph_bytes, 2 * short_stats.peak_graph_bytes);
  EXPECT_LE(long_stats.peak_slots, long_stats.peak_alive + 1);
}

TEST(StorageSoak, EngineAttachedChurnKeepsDifferentialInvariants) {
  // With a TCM engine attached, 10 windows of churn must leave the DCS
  // internally consistent (exhaustive invariant validation) and the graph
  // fully drained — EdgeId-keyed engine state survives slot recycling.
  constexpr Timestamp kWindow = 2500;
  const TemporalDataset ds = ChurnDataset(10 * kWindow, 99);
  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = kWindow;
  Rng rng(1234);
  QueryGraph query;
  ASSERT_TRUE(GenerateQuery(ds, opt, &rng, &query));

  SingleQueryContext<TcmEngine> run(
      query, GraphSchema{ds.directed, ds.vertex_labels});
  const SoakStats stats = Replay(ds, kWindow, &run);
  EXPECT_LE(stats.peak_slots, stats.peak_alive + 1);
  EXPECT_EQ(run.graph().NumAliveEdges(), 0u);
  run.graph().ValidateInvariantsForTest();
  run.engine().dcs().ValidateInvariantsForTest();
  run.engine().filter_q()->ValidateInvariantsForTest();
  run.engine().filter_r()->ValidateInvariantsForTest();
}

}  // namespace
}  // namespace tcsm
