// Randomized differential stream fuzzer: every scenario of the catalogue
// (tests/testlib/fuzz_scenarios.h) is replayed through TCM under all 2^3
// pruning-flag ablations, the filter ablations, and the three baseline
// engines, asserting after every event that the reported occurred/expired
// embedding sets equal the brute-force snapshot oracle's diff
// (tests/testlib/stream_checker.h). The multi-query scenario additionally
// replays each entry through a MultiQueryEngine and diffs every tagged
// per-query stream against an independently run single-query engine, and
// the parallel scenario replays a 4-query fan-out at 2/4/8 threads and
// requires byte-identical per-query streams versus serial execution, and
// the routing scenario requires label-routed delivery to equal delivery
// of every event to every engine. Any divergence reproduces from the
// scenario name, which encodes the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "baselines/timing_engine.h"
#include "common/rng.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "core/tcm_engine.h"
#include "datasets/synthetic.h"
#include "exec/parallel_context.h"
#include "obs/observability.h"
#include "querygen/query_generator.h"
#include "testlib/fuzz_scenarios.h"
#include "testlib/stream_checker.h"

namespace tcsm {
namespace {

using testlib::DefaultFuzzScenarios;
using testlib::FuzzScenario;

std::string ScenarioName(const ::testing::TestParamInfo<FuzzScenario>& info) {
  return info.param.name;
}

class StreamFuzz : public ::testing::TestWithParam<FuzzScenario> {
 protected:
  /// Generates the scenario's dataset and query; fails the test (rather
  /// than skipping) when generation is impossible so a scenario can never
  /// silently stop covering anything.
  void SetUp() override {
    const FuzzScenario& sc = GetParam();
    dataset_ = GenerateSynthetic(sc.spec);
    ASSERT_GT(dataset_.NumEdges(), 0u);
    Rng rng(sc.seed ^ 0x9e3779b97f4a7c15ull);
    ASSERT_TRUE(GenerateQuery(dataset_, sc.query, &rng, &query_))
        << "scenario " << sc.name << " cannot extract a "
        << sc.query.num_edges << "-edge query; re-tune the catalogue";
    schema_ = GraphSchema{dataset_.directed, dataset_.vertex_labels};
  }

  /// Replays the scenario through the rig and records the first run's
  /// total occurred count as the cross-engine reference.
  template <typename EngineT>
  void Check(SingleQueryContext<EngineT>* run) {
    const uint64_t occurred = testlib::CheckEngineAgainstOracle(
        dataset_, query_, GetParam().window, run);
    if (HasFailure()) return;
    if (!have_reference_) {
      have_reference_ = true;
      reference_ = occurred;
    } else {
      EXPECT_EQ(occurred, reference_)
          << run->engine().name() << ": total occurred count diverged";
    }
  }

  TemporalDataset dataset_;
  QueryGraph query_;
  GraphSchema schema_;
  bool have_reference_ = false;
  uint64_t reference_ = 0;
};

// All 2^3 combinations of the three pruning techniques of Section V.
TEST_P(StreamFuzz, TcmPruningAblations) {
  for (int bits = 0; bits < 8; ++bits) {
    TcmConfig config;
    config.prune_no_relation = (bits & 1) != 0;
    config.prune_uniform = (bits & 2) != 0;
    config.prune_failing_set = (bits & 4) != 0;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("pruning bits " + std::to_string(bits));
    Check(&run);
    if (HasFailure()) return;
  }
}

// Filtering/DAG design ablations: TC-matchable filtering off (SymBi-style
// DCS), reverse-DAG filtering off, and greedy-root DAG selection.
TEST_P(StreamFuzz, TcmFilterAblations) {
  {
    SingleQueryContext<TcmEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    TcmConfig config;
    config.use_tc_filter = false;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("tc filter off");
    Check(&run);
    if (HasFailure()) return;
  }
  {
    TcmConfig config;
    config.use_reverse_filter = false;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("reverse filter off");
    Check(&run);
    if (HasFailure()) return;
  }
  {
    TcmConfig config;
    config.use_best_dag = false;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("greedy dag");
    Check(&run);
    if (HasFailure()) return;
  }
  {
    // Storage ablation: flat adjacency scans must be byte-equivalent to
    // the partitioned default (same verdicts, more entries visited).
    TcmConfig config;
    config.partitioned_adjacency = false;
    SingleQueryContext<TcmEngine> run(query_, schema_, config);
    SCOPED_TRACE("flat adjacency scan");
    Check(&run);
  }
}

// The three competing engines must report the same per-event sets.
TEST_P(StreamFuzz, BaselinesMatchOracle) {
  {
    SingleQueryContext<TcmEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<PostFilterEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<LocalEnumEngine> run(query_, schema_);
    Check(&run);
    if (HasFailure()) return;
  }
  {
    SingleQueryContext<TimingEngine> run(query_, schema_);
    Check(&run);
  }
}

// Gap-bound pruning ablation (DESIGN.md §12): with prune_gap_bounds off
// the ECM windows ignore gap constraints and complete embeddings are
// post-filtered instead. Both modes must match the oracle exactly, and
// in-search pruning may only ever shrink the explored tree. On scenarios
// without gaps the two configurations are the identical code path.
TEST_P(StreamFuzz, GapPruningMatchesPostFilter) {
  SingleQueryContext<TcmEngine> pruned(query_, schema_);
  Check(&pruned);
  if (HasFailure()) return;

  TcmConfig config;
  config.prune_gap_bounds = false;
  SingleQueryContext<TcmEngine> post(query_, schema_, config);
  SCOPED_TRACE("gap post-filter mode");
  Check(&post);
  if (HasFailure()) return;

  EXPECT_LE(pruned.engine().counters().search_nodes,
            post.engine().counters().search_nodes)
      << "gap pruning enlarged the search tree";
  if (query_.gaps().empty()) {
    EXPECT_EQ(pruned.engine().counters().search_nodes,
              post.engine().counters().search_nodes)
        << "prune_gap_bounds changed the search on a gap-free query";
  }
}

// Multi-query differential: a MultiQueryEngine over {q, q-variant} on the
// one shared graph must emit, per query, exactly the match stream of an
// independently run single-query TCM engine with its own context.
TEST_P(StreamFuzz, MultiQueryMatchesSingleQueryEngines) {
  // Variant query from an independent walk seed; if the dataset cannot
  // yield one, duplicating the primary still exercises the fan-out.
  QueryGraph variant;
  Rng rng(GetParam().seed ^ 0x517cc1b727220a95ull);
  if (!GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
    variant = query_;
  }
  const std::vector<QueryGraph> queries{query_, variant};

  struct TaggedStreams : MultiMatchSink {
    std::array<std::vector<std::pair<Embedding, MatchKind>>, 2> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  } tagged;

  MultiQueryEngine multi(queries, schema_);
  multi.set_multi_sink(&tagged);
  StreamConfig config;
  config.window = GetParam().window;
  const StreamResult res = RunStream(dataset_, config, &multi);
  ASSERT_TRUE(res.completed);

  uint64_t total = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SingleQueryContext<TcmEngine> solo(queries[qi], schema_);
    CollectingSink sink;
    solo.engine().set_sink(&sink);
    const StreamResult solo_res = RunStream(dataset_, config, &solo);
    ASSERT_TRUE(solo_res.completed);
    EXPECT_EQ(tagged.streams[qi], sink.matches())
        << "tagged stream of query " << qi
        << " diverged from the single-query engine";
    total += solo_res.occurred + solo_res.expired;
  }
  EXPECT_EQ(res.occurred + res.expired, total);
}

// Parallel differential: the same multi-query fan-out sharded across 2,
// 4, and 8 threads by the ParallelStreamContext machinery must emit
// exactly the match stream of the serial MultiQueryEngine — per query AND
// globally, occurred and expired sets byte-identical *including order*
// (the deterministic attach-order merge of DESIGN.md §6). Scan counters
// must match too: every engine performs the same reads whichever worker
// runs it, not merely the same final embedding sets.
TEST_P(StreamFuzz, ParallelMatchesSerialMultiQuery) {
  // Query sets of 4 and 16: the primary plus independent walk variants
  // (falling back to earlier queries where the dataset yields no new
  // walk). With 4 engines every home slice of the pool holds at most one
  // at 4/8 threads; with 16 each slice holds several, so claims within a
  // slice and steals across slices both run.
  std::vector<QueryGraph> all_queries{query_};
  for (uint64_t k = 1; k < 16; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      all_queries.push_back(variant);
    } else {
      all_queries.push_back(all_queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    /// The global interleaving across queries, for the whole-stream
    /// byte-identity check (per-query equality alone would not catch a
    /// merge-order bug).
    std::vector<std::tuple<size_t, Embedding, MatchKind>> global;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
        global.emplace_back(query_index, embedding, kind);
      }
    }
  };

  StreamConfig config;
  config.window = GetParam().window;

  for (const size_t num_queries : {size_t{4}, size_t{16}}) {
    SCOPED_TRACE("queries " + std::to_string(num_queries));
    const std::vector<QueryGraph> queries(all_queries.begin(),
                                          all_queries.begin() + num_queries);
    TaggedStreams serial(queries.size());
    StreamResult serial_res;
    {
      MultiQueryEngine engine(queries, schema_);
      engine.set_multi_sink(&serial);
      serial_res = RunStream(dataset_, config, &engine);
      ASSERT_TRUE(serial_res.completed);
      ASSERT_EQ(serial_res.num_threads, 1u);
    }

    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      TaggedStreams parallel(queries.size());
      MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
      engine.set_multi_sink(&parallel);
      const StreamResult res = RunStream(dataset_, config, &engine);
      ASSERT_TRUE(res.completed);
      EXPECT_EQ(res.num_threads, threads);
      EXPECT_EQ(res.occurred + res.expired,
                serial_res.occurred + serial_res.expired);
      EXPECT_EQ(res.adj_entries_scanned, serial_res.adj_entries_scanned)
          << "parallel execution scanned different adjacency entries";
      EXPECT_EQ(res.adj_entries_matched, serial_res.adj_entries_matched);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(parallel.streams[qi], serial.streams[qi])
            << "per-query stream of query " << qi
            << " diverged from serial execution";
      }
      EXPECT_EQ(parallel.global, serial.global)
          << "global match interleaving diverged from serial execution";
    }
  }
}

// Hides an engine's RouteSignatures: forwards the three hooks and the
// engine's reports, so the context delivers it every event, the path of
// an engine that declares no signatures.
class UnroutedEngine : public ContinuousEngine {
 public:
  explicit UnroutedEngine(ContinuousEngine* inner)
      : inner_(inner), forward_(this) {
    inner_->set_sink(&forward_);
  }
  UnroutedEngine(const UnroutedEngine&) = delete;
  UnroutedEngine& operator=(const UnroutedEngine&) = delete;

  std::string name() const override { return inner_->name(); }
  void OnEdgeInserted(const TemporalEdge& ed) override {
    inner_->OnEdgeInserted(ed);
  }
  void OnEdgeExpiring(const TemporalEdge& ed) override {
    inner_->OnEdgeExpiring(ed);
  }
  void OnEdgeRemoved(const TemporalEdge& ed) override {
    inner_->OnEdgeRemoved(ed);
  }
  size_t EstimateMemoryBytes() const override {
    return inner_->EstimateMemoryBytes();
  }

 private:
  class Forward : public MatchSink {
   public:
    explicit Forward(const UnroutedEngine* owner) : owner_(owner) {}
    bool wants_each_embedding() const override {
      return owner_->sink() != nullptr &&
             owner_->sink()->wants_each_embedding();
    }
    void OnMatch(const Embedding& embedding, MatchKind kind,
                 uint64_t multiplicity) override {
      if (owner_->sink() != nullptr) {
        owner_->sink()->OnMatch(embedding, kind, multiplicity);
      }
    }

   private:
    const UnroutedEngine* owner_;
  };

  ContinuousEngine* inner_;
  Forward forward_;
};

// Routing differential: label-routed delivery (SharedStreamContext::Route)
// must emit exactly what delivering every event to every engine emits —
// per query, in global (query, embedding, kind) order, and in every
// engine's counters, serially and through the 4-thread fan-out. The
// engine list mixes routed TCM engines with two that take every event:
// a TCM engine with an absence predicate and a LocalEnumEngine.
TEST_P(StreamFuzz, RoutedMatchesUnrouted) {
  std::vector<QueryGraph> tcm_queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      tcm_queries.push_back(variant);
    } else {
      tcm_queries.push_back(tcm_queries[k - 1]);
    }
  }
  QueryGraph absence = query_;
  if (absence.absences().empty()) {
    const QueryEdge& e0 = absence.Edge(0);
    ASSERT_TRUE(absence
                    .AddAbsence(e0.u, e0.v, e0.elabel,
                                std::max<Timestamp>(2, GetParam().window / 5))
                    .ok());
  }

  struct Tagged {
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    std::vector<std::tuple<size_t, Embedding, MatchKind>> global;
    std::vector<EngineCounters> counters;
  };
  struct TagSink : MatchSink {
    TagSink(Tagged* out, size_t index) : out(out), index(index) {}
    void OnMatch(const Embedding& embedding, MatchKind kind,
                 uint64_t multiplicity) override {
      for (uint64_t i = 0; i < multiplicity; ++i) {
        out->streams[index].emplace_back(embedding, kind);
        out->global.emplace_back(index, embedding, kind);
      }
    }
    Tagged* out;
    size_t index;
  };

  StreamConfig config;
  config.window = GetParam().window;
  const auto run = [&](size_t threads, bool routed) {
    ParallelStreamContext ctx(schema_, threads);
    std::vector<std::unique_ptr<ContinuousEngine>> engines;
    engines.push_back(std::make_unique<TcmEngine>(tcm_queries[0], ctx.graph()));
    engines.push_back(std::make_unique<TcmEngine>(tcm_queries[1], ctx.graph()));
    engines.push_back(std::make_unique<LocalEnumEngine>(query_, ctx.graph()));
    engines.push_back(std::make_unique<TcmEngine>(tcm_queries[2], ctx.graph()));
    engines.push_back(std::make_unique<TcmEngine>(absence, ctx.graph()));
    engines.push_back(std::make_unique<TcmEngine>(tcm_queries[3], ctx.graph()));
    Tagged out;
    out.streams.resize(engines.size());
    std::vector<std::unique_ptr<TagSink>> sinks;
    std::vector<std::unique_ptr<UnroutedEngine>> wrappers;
    for (size_t i = 0; i < engines.size(); ++i) {
      sinks.push_back(std::make_unique<TagSink>(&out, i));
      ContinuousEngine* attached = engines[i].get();
      if (!routed) {
        wrappers.push_back(std::make_unique<UnroutedEngine>(attached));
        attached = wrappers.back().get();
      }
      attached->set_sink(sinks.back().get());
      ctx.Attach(attached);
    }
    const StreamResult res = RunStream(dataset_, config, &ctx);
    EXPECT_TRUE(res.completed);
    for (const auto& e : engines) out.counters.push_back(e->counters());
    return out;
  };

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Tagged unrouted = run(threads, false);
    const Tagged routed = run(threads, true);
    ASSERT_EQ(routed.streams.size(), unrouted.streams.size());
    for (size_t qi = 0; qi < routed.streams.size(); ++qi) {
      EXPECT_EQ(routed.streams[qi], unrouted.streams[qi])
          << "per-engine stream of engine " << qi << " diverged under routing";
      const EngineCounters& a = routed.counters[qi];
      const EngineCounters& b = unrouted.counters[qi];
      EXPECT_EQ(a.occurred, b.occurred) << "engine " << qi;
      EXPECT_EQ(a.expired, b.expired) << "engine " << qi;
      EXPECT_EQ(a.search_nodes, b.search_nodes) << "engine " << qi;
      EXPECT_EQ(a.adj_entries_scanned, b.adj_entries_scanned)
          << "engine " << qi;
      EXPECT_EQ(a.adj_entries_matched, b.adj_entries_matched)
          << "engine " << qi;
    }
    EXPECT_EQ(routed.global, unrouted.global)
        << "global match interleaving diverged under routing";
  }
}

// Batching differential: driving the same 4-query fan-out with
// micro-batching disabled (max_batch = 1, the historical one-call-per-
// event behavior) and with the default batching must emit byte-identical
// per-query match streams, serially and through the parallel fan-out
// (DESIGN.md §9). On the same_ts_* scenarios the batches are
// real; elsewhere this degenerates to the single-event path.
TEST_P(StreamFuzz, BatchedMatchesUnbatchedDelivery) {
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  };

  StreamConfig unbatched;
  unbatched.window = GetParam().window;
  unbatched.max_batch = 1;
  StreamConfig batched = unbatched;
  batched.max_batch = 0;  // default coalescing

  TaggedStreams reference(queries.size());
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&reference);
    const StreamResult res = RunStream(dataset_, unbatched, &engine);
    ASSERT_TRUE(res.completed);
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TaggedStreams run(queries.size());
    MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
    engine.set_multi_sink(&run);
    const StreamResult res = RunStream(dataset_, batched, &engine);
    ASSERT_TRUE(res.completed);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(run.streams[qi], reference.streams[qi])
          << "per-query stream of query " << qi
          << " diverged under batched delivery";
    }
  }
}

// Observability differential: running with a metrics registry attached
// (no tracing — DESIGN.md §11's zero-perturbation contract) must emit
// byte-identical per-query match streams, and the registry's event
// accounting must reconcile exactly with the StreamResult totals —
// through the parallel fan-out at 1 and 4 threads.
TEST_P(StreamFuzz, MetricsDoNotPerturbMatching) {
  std::vector<QueryGraph> queries{query_};
  for (uint64_t k = 1; k <= 3; ++k) {
    QueryGraph variant;
    Rng rng(GetParam().seed ^ (0x517cc1b727220a95ull * k));
    if (GenerateQuery(dataset_, GetParam().query, &rng, &variant)) {
      queries.push_back(variant);
    } else {
      queries.push_back(queries[k - 1]);
    }
  }

  struct TaggedStreams : MultiMatchSink {
    explicit TaggedStreams(size_t n) : streams(n) {}
    std::vector<std::vector<std::pair<Embedding, MatchKind>>> streams;
    void OnMatch(size_t query_index, const Embedding& embedding,
                 MatchKind kind, uint64_t multiplicity) override {
      ASSERT_LT(query_index, streams.size());
      for (uint64_t i = 0; i < multiplicity; ++i) {
        streams[query_index].emplace_back(embedding, kind);
      }
    }
  };

  StreamConfig plain;
  plain.window = GetParam().window;

  TaggedStreams reference(queries.size());
  {
    MultiQueryEngine engine(queries, schema_);
    engine.set_multi_sink(&reference);
    const StreamResult res = RunStream(dataset_, plain, &engine);
    ASSERT_TRUE(res.completed);
  }

  const auto check = [&](const StreamResult& res, const TaggedStreams& run,
                         const Observability& obs) {
    ASSERT_TRUE(res.completed);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(run.streams[qi], reference.streams[qi])
          << "per-query stream of query " << qi << " diverged with metrics on";
    }
    const MetricsSnapshot snap = obs.Snapshot();
    EXPECT_EQ(snap.CounterValue("stream.arrivals") +
                  snap.CounterValue("stream.expirations"),
              res.events)
        << "per-stage event counters do not reconcile with the result";
    EXPECT_EQ(snap.GaugeValue("engine.occurred"),
              static_cast<int64_t>(res.occurred));
    EXPECT_EQ(snap.GaugeValue("engine.expired"),
              static_cast<int64_t>(res.expired));
    EXPECT_EQ(snap.GaugeValue("stream.peak_event_index"),
              static_cast<int64_t>(res.peak_memory_event_index));
    EXPECT_LE(res.peak_memory_event_index, res.events);
  };

  std::vector<uint64_t> engine_calls;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Observability obs;
    StreamConfig config = plain;
    config.obs = &obs;
    TaggedStreams run(queries.size());
    MultiQueryEngine engine(queries, schema_, TcmConfig{}, threads);
    engine.set_multi_sink(&run);
    const StreamResult res = RunStream(dataset_, config, &engine);
    check(res, run, obs);
    // The parallel context times every fan-out phase (one per arrival,
    // two per expiration) and the sink drain after it; serially neither
    // stage runs.
    const MetricsSnapshot snap = obs.Snapshot();
    const uint64_t all_phases = snap.CounterValue("stream.arrivals") +
                                2 * snap.CounterValue("stream.expirations");
    const uint64_t phases = threads > 1 ? all_phases : 0;
    for (const char* stage :
         {"stage.pipeline_step_ns", "stage.sink_drain_ns"}) {
      const HistogramSnapshot* hist = snap.FindHistogram(stage);
      ASSERT_NE(hist, nullptr) << stage;
      EXPECT_EQ(hist->count, phases) << stage;
    }
    // Routing delivers at most every engine on every phase.
    engine_calls.push_back(snap.CounterValue("stream.engine_calls"));
    EXPECT_LE(engine_calls.back(), queries.size() * all_phases);
  }
  EXPECT_EQ(engine_calls[0], engine_calls[1])
      << "the threaded fan-out delivered a different set of hook calls";
}

INSTANTIATE_TEST_SUITE_P(Catalogue, StreamFuzz,
                         ::testing::ValuesIn(DefaultFuzzScenarios()),
                         ScenarioName);

}  // namespace
}  // namespace tcsm
