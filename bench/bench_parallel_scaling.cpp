// Parallel multi-query scaling: events/sec versus the thread count of
// the ParallelStreamContext fan-out (1, 2, 4, 8 threads) at 16 and 64
// concurrently monitored queries. The 1-thread measurement IS the serial
// shared context (the pool bypasses itself at one thread), so the
// speedup column reads directly as "sharded fan-out vs. PR 2 serial
// baseline". Each measurement is emitted as a BENCH JSON line
// (bench_util/bench_json.h).
//
// The workload differs deliberately from bench_multiquery_scaling: that
// bench maximizes per-event *irrelevance* (16 vertex labels, so the
// context's label routing delivers most events to no engine at all) to
// showcase shared-graph maintenance, which would make a parallelism
// bench measure only the driver. Here the label alphabet is small and
// the window wide, so most events are routed to many engines and reach
// the per-engine filter/DCS/backtracking work that the pool actually
// shards. Correctness is re-checked on the fly: every thread
// count must report exactly the serial run's occurred/expired counts
// (the differential guarantee lives in stream_fuzz_test's
// ParallelMatchesSerialMultiQuery scenario).
#include <iostream>
#include <vector>

#include "bench_util/bench_json.h"
#include "bench_util/experiment.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "datasets/synthetic.h"
#include "querygen/query_generator.h"

using namespace tcsm;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);

  SyntheticSpec spec;
  spec.name = "parallel";
  spec.num_vertices =
      std::max<size_t>(16, static_cast<size_t>(400 * args.scale));
  spec.num_edges =
      std::max<size_t>(64, static_cast<size_t>(10000 * args.scale));
  spec.num_vertex_labels = 4;
  spec.num_edge_labels = 2;
  spec.avg_parallel_edges = 2.0;
  spec.seed = args.seed;
  const TemporalDataset ds = GenerateSynthetic(spec);
  const Timestamp window =
      std::max<Timestamp>(1, static_cast<Timestamp>(ds.NumEdges() / 10));

  QueryGenOptions opt;
  opt.num_edges = 4;
  opt.density = 0.5;
  opt.window = window;
  const size_t kMaxQueries = 64;
  const std::vector<QueryGraph> pool =
      GenerateQuerySet(ds, opt, kMaxQueries, args.seed + 1);
  if (pool.empty()) {
    std::cerr << "could not generate any query for the preset\n";
    return 1;
  }

  std::cout << "=== Parallel fan-out scaling: events/sec vs threads "
               "(|E|=" << ds.NumEdges() << ", window=" << window << ") ===\n";

  StreamConfig config;
  config.window = window;
  for (const size_t n : {size_t{16}, size_t{64}}) {
    std::vector<QueryGraph> queries;
    queries.reserve(n);
    for (size_t i = 0; i < n; ++i) queries.push_back(pool[i % pool.size()]);

    double serial_ms = 0;
    uint64_t serial_occurred = 0;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      MultiQueryEngine engine(queries, SchemaOf(ds), TcmConfig{}, threads);
      const StreamResult res = RunStream(ds, config, &engine);
      if (threads == 1) {
        serial_ms = res.elapsed_ms;
        serial_occurred = res.occurred;
      } else if (res.occurred != serial_occurred) {
        std::cerr << "ERROR: occurred counts diverged at " << threads
                  << " threads\n";
        return 1;
      }
      const double secs = res.elapsed_ms / 1000.0;
      const double speedup =
          res.elapsed_ms > 0 ? serial_ms / res.elapsed_ms : 0.0;
      BenchJsonLine line("parallel_scaling");
      line.Field("queries", static_cast<uint64_t>(n))
          .Field("threads", static_cast<uint64_t>(res.num_threads))
          .Field("events", static_cast<uint64_t>(res.events))
          .Field("elapsed_ms", res.elapsed_ms)
          .Field("events_per_sec",
                 secs > 0 ? static_cast<double>(res.events) / secs : 0.0)
          .Field("occurred", res.occurred)
          .Field("speedup_vs_serial", speedup);
      line.Print(std::cout);
      std::cout << "queries=" << n << " threads=" << threads << ": "
                << res.elapsed_ms << " ms (" << speedup << "x serial)\n";
    }
  }
  return 0;
}
