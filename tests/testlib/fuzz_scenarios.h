// Scenario catalogue for the randomized differential stream-fuzz harness
// (stream_fuzz_test.cpp). Each scenario deterministically derives a
// synthetic dataset spec and a query-generation recipe from one seed, so a
// failing scenario reproduces from its name alone. The default catalogue
// sweeps the axes the engines are most sensitive to: graph density /
// parallel-edge multiplicity, window size, vertex/edge label alphabet
// sizes, directedness, query size, and temporal-order density.
#ifndef TCSM_TESTS_TESTLIB_FUZZ_SCENARIOS_H_
#define TCSM_TESTS_TESTLIB_FUZZ_SCENARIOS_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

namespace tcsm::testlib {

struct FuzzScenario {
  std::string name;
  uint64_t seed = 0;
  SyntheticSpec spec;       // dataset shape (spec.seed is set from `seed`)
  QueryGenOptions query;    // random-walk query recipe
  Timestamp window = 40;    // stream window delta
};

/// Deterministic catalogue; every entry is sized so that the from-scratch
/// snapshot oracle stays tractable (the checker re-enumerates all
/// embeddings after every event).
inline std::vector<FuzzScenario> DefaultFuzzScenarios() {
  std::vector<FuzzScenario> out;
  auto add = [&out](std::string name, uint64_t seed, size_t vertices,
                    size_t edges, size_t vlabels, size_t elabels,
                    double parallel, double skew, bool directed,
                    size_t query_edges, double order_density,
                    Timestamp window) {
    FuzzScenario s;
    s.name = std::move(name);
    s.seed = seed;
    s.spec.name = s.name;
    s.spec.num_vertices = vertices;
    s.spec.num_edges = edges;
    s.spec.num_vertex_labels = vlabels;
    s.spec.num_edge_labels = elabels;
    s.spec.avg_parallel_edges = parallel;
    s.spec.degree_skew = skew;
    s.spec.directed = directed;
    s.spec.seed = seed;
    s.query.num_edges = query_edges;
    s.query.density = order_density;
    s.query.window = window;
    s.window = window;
    out.push_back(std::move(s));
  };

  //   name                 seed  |V|  |E|  vl el par  skew dir  qm dens win
  add("sparse_unlabeled",   101,  16,  90,  2, 1, 1.2, 0.6, false, 3, 0.50, 40);
  add("dense_parallel",     102,  10, 120,  2, 1, 3.0, 0.9, false, 4, 0.50, 35);
  add("tiny_window",        103,  14, 110,  3, 1, 2.0, 0.8, false, 4, 0.75, 12);
  add("wide_window",        104,  14, 100,  3, 1, 2.0, 0.8, false, 4, 0.25, 90);
  add("many_labels",        105,  14, 120,  5, 3, 1.8, 0.7, false, 4, 0.50, 45);
  add("directed_sparse",    106,  16, 100,  2, 1, 1.5, 0.7, true,  4, 0.50, 40);
  add("directed_dense",     107,  10, 130,  2, 2, 2.6, 1.0, true,  4, 0.75, 30);
  add("no_order",           108,  12, 100,  3, 1, 2.0, 0.8, false, 4, 0.00, 40);
  add("total_order",        109,  12, 100,  3, 1, 2.0, 0.8, false, 4, 1.00, 40);
  add("bigger_query",       110,  14, 110,  3, 1, 2.2, 0.8, false, 6, 0.50, 45);
  // Storage-layer stressors for the label-partitioned, slot-recycled
  // adjacency: a skewed stream over a wide label alphabet (many sparse
  // buckets per hub vertex), and a tiny window over a long stream so
  // every edge slot is recycled many times mid-replay.
  add("label_skewed_wide",  111,  14, 130,  6, 4, 1.8, 1.2, false, 4, 0.50, 45);
  add("slot_churn",         112,  12, 150,  3, 2, 2.0, 0.8, false, 3, 0.50, 8);
  // Micro-batching stressors (DESIGN.md §9): runs of arrivals share one
  // timestamp, so the coalesced OnEdgeArrivalBatch / OnEdgeExpiryBatch
  // paths — and through them the parallel fan-out — are exercised by
  // every differential test in the catalogue. Windows are sized in the
  // coalesced timestamp unit (|E| / ts_coalesce distinct instants).
  add("same_ts_bursts",     113,  14, 120,  3, 2, 2.0, 0.8, false, 4, 0.50, 10);
  out.back().spec.ts_coalesce = 4;
  add("same_ts_directed",   114,  12, 120,  3, 2, 2.0, 0.9, true,  4, 0.50, 7);
  out.back().spec.ts_coalesce = 6;
  // Temporal-predicate scenarios (DESIGN.md §12). Gap bounds are derived
  // from the witness walk (always satisfiable); absence labels are drawn
  // from the alphabet plus one out-of-alphabet value, so predicates range
  // from vacuous to killing the witness itself.
  add("gap_bounded",        115,  14, 110,  3, 1, 2.0, 0.8, false, 4, 0.25, 45);
  out.back().query.gap_probability = 0.7;
  out.back().query.gap_slack = 12;
  add("gap_tight",          116,  12, 120,  2, 1, 2.4, 0.8, false, 4, 0.00, 30);
  out.back().query.gap_probability = 1.0;
  out.back().query.gap_slack = 2;
  add("absence",            117,  14, 110,  3, 2, 2.0, 0.8, false, 3, 0.50, 40);
  out.back().query.num_absence = 2;
  out.back().query.absence_delta = 6;
  add("absence_directed",   118,  12, 120,  3, 2, 2.0, 0.9, true,  3, 0.50, 35);
  out.back().query.num_absence = 2;
  out.back().query.absence_delta = 10;
  add("order_gap_absence",  119,  14, 120,  3, 2, 2.0, 0.8, false, 4, 0.50, 40);
  out.back().query.gap_probability = 0.5;
  out.back().query.gap_slack = 8;
  out.back().query.num_absence = 1;
  out.back().query.absence_delta = 8;
  return out;
}

}  // namespace tcsm::testlib

#endif  // TCSM_TESTS_TESTLIB_FUZZ_SCENARIOS_H_
