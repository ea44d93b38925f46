// perfbench — the repository benchmark's driver program.
//
//   perfbench workloads
//   perfbench hash      --workload W --seed N
//   perfbench reference --workload W --seed N
//   perfbench measure   --workload W --seed N --seconds S
//   perfbench trace     --workload W --seed N --seconds S --trace-out FILE
//   perfbench selftest
//
// Each mode prints one JSON object on stdout; perfbench/run.py turns them
// into the benchmark's result line. See perfbench/README.md.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/local_enum_engine.h"
#include "baselines/post_filter_engine.h"
#include "common/memory_meter.h"
#include "contexts.h"
#include "core/multi_engine.h"
#include "core/stream_driver.h"
#include "exec/parallel_context.h"
#include "io/replay.h"
#include "io/stream_reader.h"
#include "obs/observability.h"
#include "query/query_io.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tcsm;

/// Wall-clock cap on one pass. A pass that hits it delivers only part of
/// the stream; the rest counts as failed events.
constexpr double kPassLimitMs = 60000;
/// Spans kept in a traced run's chrome-trace file.
constexpr size_t kMaxTraceSpans = 60000;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
};

struct QueryCount {
  uint64_t occurred = 0;
  uint64_t expired = 0;
};

/// One set-up plus one full pass over the stream.
struct Pass {
  std::string phase;
  /// Empty = every event was delivered; else why some were not.
  std::string error;
  size_t attempted = 0;
  size_t delivered = 0;
  double setup_s = 0;
  double stream_s = 0;
  uint64_t reader_init_ns = 0;
  uint64_t engine_build_ns = 0;
  std::vector<QueryCount> counts;
  StreamResult result;

  // Traced passes only.
  size_t threads = 1;
  std::vector<uint64_t> notify_ns;  // per query
  EngineCounters engine;            // summed over queries
  uint64_t sink_reports = 0;
  uint64_t sink_matches = 0;
  uint64_t sink_drain_ns = 0;

  double ev_per_s() const {
    return stream_s > 0 ? static_cast<double>(delivered) / stream_s : 0.0;
  }
};

struct PassSpec {
  std::string phase;
  size_t threads = 1;
  Pacer* pacer = nullptr;
  /// Wrap engines in TimedEngine and feed `probe`/`obs`.
  LayerProbe* probe = nullptr;
  Observability* obs = nullptr;
};

GraphSchema SchemaOf(const TemporalDataset& ds) {
  GraphSchema schema;
  schema.directed = ds.directed;
  schema.vertex_labels = ds.vertex_labels;
  return schema;
}

Pass RunPass(const Workload& w, const PassSpec& spec) {
  Pass pass;
  pass.phase = spec.phase;
  pass.threads = spec.threads;
  pass.attempted = w.NumEvents();
  Instruments ins;
  ins.pacer = spec.pacer;
  ins.probe = spec.probe;
  const bool traced = spec.probe != nullptr;

  // Set-up: reader Init, query loading, context + engine construction.
  const Clock::time_point t0 = Clock::now();
  std::istringstream in;
  std::unique_ptr<StreamReader> reader;
  GraphSchema schema;
  if (w.replay) {
    in.str(w.tel_text);
    reader = std::make_unique<StreamReader>(in, w.name + ".tel");
    const Status s = reader->Init();
    if (!s.ok()) {
      pass.error = s.ToString();
      return pass;
    }
    schema = reader->schema();
  } else {
    schema = SchemaOf(w.dataset);
  }
  const Clock::time_point t1 = Clock::now();
  std::vector<QueryGraph> queries;
  for (const std::string& text : w.query_texts) {
    StatusOr<QueryGraph> q = ParseQueryString(text);
    if (!q.ok()) {
      pass.error = q.status().ToString();
      return pass;
    }
    queries.push_back(std::move(q).value());
  }
  const Clock::time_point t2 = Clock::now();
  const TcmConfig config;
  std::unique_ptr<SharedStreamContext> ctx;
  if (w.multi_query && !traced) {
    ctx = std::make_unique<BenchContext<MultiQueryEngine>>(
        &ins, queries, schema, config, spec.threads);
  } else if (w.multi_query || spec.threads > 1) {
    // MultiQueryEngine is a ParallelStreamContext with one TcmEngine per
    // query; the traced run rebuilds exactly that with wrapped engines.
    ctx = std::make_unique<BenchContext<ParallelStreamContext>>(
        &ins, schema, spec.threads);
  } else {
    ctx = std::make_unique<BenchContext<SharedStreamContext>>(&ins, schema);
  }
  // Declared after ctx: engines go first on destruction.
  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  std::vector<TimedEngine*> timed;
  std::vector<std::unique_ptr<BenchSink>> sinks;
  if (!(w.multi_query && !traced)) {
    for (const QueryGraph& q : queries) {
      auto tcm = std::make_unique<TcmEngine>(q, ctx->graph(), config);
      if (traced) {
        auto t = std::make_unique<TimedEngine>(std::move(tcm), spec.probe);
        timed.push_back(t.get());
        engines.push_back(std::move(t));
      } else {
        engines.push_back(std::move(tcm));
      }
      sinks.push_back(std::make_unique<BenchSink>(traced));
      engines.back()->set_sink(sinks.back().get());
      ctx->Attach(engines.back().get());
    }
  }
  if (traced) {
    spec.probe->sample_indexes = [&timed] {
      std::array<uint64_t, 5> s{};
      for (TimedEngine* t : timed) {
        TcmEngine& e = t->inner();
        for (const auto* f : {e.filter_q(), e.filter_r()}) {
          if (f == nullptr) continue;
          s[0] += f->NumEntries();
          s[1] += f->EstimateMemoryBytes();
        }
        s[2] += e.dcs().stats().num_edges;
        s[3] += e.dcs().stats().num_d2_nodes;
        s[4] += e.dcs().EstimateMemoryBytes();
      }
      return s;
    };
    spec.probe->index_sample_every = std::max<size_t>(1, w.NumEvents() / 256);
    // About 1.5 engine spans per event and query (arrivals one, expiries
    // two); spend half of the span budget on them, spread over the whole
    // stream, and leave the rest for memory-sample spans. The stride is
    // odd: in-memory streams alternate arrival and expiry batches.
    const size_t engine_spans = w.NumEvents() * 3 / 2 * queries.size();
    spec.probe->trace_every =
        (2 * engine_spans / std::max<size_t>(1, spec.probe->max_spans)) | 1;
  }
  const Clock::time_point t3 = Clock::now();

  // The stream.
  if (w.replay) {
    ReplayOptions options;
    options.window = w.window;
    options.time_limit_ms = kPassLimitMs;
    options.obs = spec.obs;
    StatusOr<StreamResult> r = ReplayStream(reader.get(), options, ctx.get());
    if (r.ok()) {
      pass.result = r.value();
    } else {
      pass.error = r.status().ToString();
    }
  } else {
    StreamConfig config_run;
    config_run.window = w.window;
    config_run.time_limit_ms = kPassLimitMs;
    config_run.obs = spec.obs;
    pass.result = RunStream(w.dataset, config_run, ctx.get());
    if (!pass.result.error.ok()) pass.error = pass.result.error.ToString();
  }
  const Clock::time_point t4 = Clock::now();
  if (spec.probe != nullptr) spec.probe->sample_indexes = nullptr;

  const Clock::time_point first = ins.started ? ins.first_event : t4;
  pass.setup_s = std::chrono::duration<double>(first - t0).count();
  pass.stream_s = std::chrono::duration<double>(t4 - first).count();
  pass.reader_init_ns = NsBetween(t0, t1);
  pass.engine_build_ns = NsBetween(t2, t3);
  if (pass.error.empty()) {
    pass.delivered = pass.result.events;
    if (!pass.result.completed) {
      pass.error = ctx->overflowed() ? "engine overflow" : "pass deadline";
    } else if (pass.delivered != pass.attempted) {
      pass.error = "delivered event count differs from the stream";
    }
  }
  for (const ContinuousEngine* e : ctx->engines()) {
    pass.counts.push_back({e->counters().occurred, e->counters().expired});
  }
  if (traced) {
    for (TimedEngine* t : timed) pass.notify_ns.push_back(t->notify_ns());
    pass.engine = ctx->AggregateCounters();
    for (const auto& s : sinks) {
      pass.sink_reports += s->reports();
      pass.sink_matches += s->occurred() + s->expired();
      pass.sink_drain_ns += s->drain_ns();
    }
  }
  return pass;
}

/// Per-query counts from the independent enumeration path: the same
/// stream replayed in memory through a baseline engine per query.
std::vector<QueryCount> Reference(const Workload& w, std::string* error) {
  SharedStreamContext ctx(SchemaOf(w.dataset));
  std::vector<std::unique_ptr<ContinuousEngine>> engines;
  for (const std::string& text : w.query_texts) {
    StatusOr<QueryGraph> q = ParseQueryString(text);
    if (!q.ok()) {
      *error = q.status().ToString();
      return {};
    }
    if (w.reference == ReferenceEngine::kPostFilter) {
      engines.push_back(
          std::make_unique<PostFilterEngine>(q.value(), ctx.graph()));
    } else {
      engines.push_back(
          std::make_unique<LocalEnumEngine>(q.value(), ctx.graph()));
    }
    ctx.Attach(engines.back().get());
  }
  StreamConfig config;
  config.window = w.window;
  config.time_limit_ms = 2 * kPassLimitMs;
  const StreamResult r = RunStream(w.dataset, config, &ctx);
  if (!r.error.ok()) *error = r.error.ToString();
  if (!r.completed && error->empty()) {
    *error = "reference pass did not complete";
  }
  std::vector<QueryCount> counts;
  for (const auto& e : engines) {
    counts.push_back({e->counters().occurred, e->counters().expired});
  }
  return counts;
}

// ---- JSON output -----------------------------------------------------

std::string Num(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CountsJson(const std::vector<QueryCount>& counts) {
  std::string out = "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += "[" + std::to_string(counts[i].occurred) + "," +
           std::to_string(counts[i].expired) + "]";
  }
  return out + "]";
}

/// Per-pass records: phase, delivery, counts. run.py checks every pass's
/// counts against the reference and turns undelivered events into
/// failures.
std::string PassesJson(const std::vector<Pass>& passes) {
  std::string out = "[";
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    if (i > 0) out += ",";
    out += "{\"phase\":" + Str(p.phase) +
           ",\"attempted\":" + std::to_string(p.attempted) +
           ",\"delivered\":" + std::to_string(p.delivered) +
           ",\"error\":" + Str(p.error) +
           ",\"counts\":" + CountsJson(p.counts) + "}";
  }
  return out + "]";
}

class JsonObject {
 public:
  void Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + Str(key) + ":" + raw;
  }
  void AddNum(const std::string& key, double v) { Add(key, Num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string HashHex(uint64_t h) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h;
  return out.str();
}

void AddHeader(const Workload& w, uint64_t seed, JsonObject* out) {
  out->Add("workload", Str(w.name));
  out->AddNum("seed", static_cast<double>(seed));
  out->Add("input_hash", Str(HashHex(InputHash(w))));
  out->AddNum("queries", static_cast<double>(w.query_texts.size()));
  out->AddNum("stream_events", static_cast<double>(w.NumEvents()));
  out->AddNum("threads", static_cast<double>(w.threads));
}

// ---- modes -----------------------------------------------------------

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Closed-loop passes until `budget_s` is spent (at least `min_reps`).
std::vector<Pass> ClosedLoop(const Workload& w, size_t threads,
                             double budget_s, size_t min_reps) {
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < min_reps || Seconds(start) < budget_s) {
    PassSpec spec;
    spec.phase = "closed";
    spec.threads = threads;
    passes.push_back(RunPass(w, spec));
    if (!passes.back().error.empty()) break;
  }
  return passes;
}

int Measure(const Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  // Closed- and open-loop passes alternate, each kind getting half of the
  // budget, so both sample the same stretch of machine time. Every pass
  // is also one set-up sample.
  std::vector<Pass> passes;
  std::vector<double> ev_per_s;
  std::vector<double> setup_s;
  std::vector<uint64_t> lat;
  uint64_t source_late_ns = 0;
  size_t source_late_events = 0;
  size_t batches_waited = 0;
  size_t open_passes = 0;
  double closed_time = 0;
  double open_time = 0;
  double last_closed = 0;
  double last_open = 0;
  double peak_rss_mb = 0;
  bool failed = false;
  while (!failed) {
    const bool open = !ev_per_s.empty() && open_time < closed_time;
    // Past the minimum, stop rather than run a pass that would end more
    // than half a pass after the budget.
    if (ev_per_s.size() >= 3 && open_passes >= 1 &&
        Seconds(start) + 0.5 * (open ? last_open : last_closed) >
            args.seconds) {
      break;
    }
    std::unique_ptr<Pacer> pacer;
    PassSpec spec;
    spec.phase = open ? "open" : "closed";
    spec.threads = w.threads;
    if (open) {
      pacer = std::make_unique<Pacer>(w.open_loop_ts_per_s, w.window);
      spec.pacer = pacer.get();
    }
    const Clock::time_point t0 = Clock::now();
    passes.push_back(RunPass(w, spec));
    (open ? last_open : last_closed) = Seconds(t0);
    (open ? open_time : closed_time) += Seconds(t0);
    const Pass& p = passes.back();
    failed = !p.error.empty();
    setup_s.push_back(p.setup_s);
    if (!open) {
      ev_per_s.push_back(p.ev_per_s());
      // The program's high-water mark: generation plus one full pass.
      // Read before the benchmark's own latency samples pile up.
      if (ev_per_s.size() == 1) {
        peak_rss_mb = static_cast<double>(ProcessPeakRssBytes()) / (1 << 20);
      }
      continue;
    }
    ++open_passes;
    lat.insert(lat.end(), pacer->latencies_ns().begin(),
               pacer->latencies_ns().end());
    source_late_ns = std::max(source_late_ns, pacer->max_source_late_ns());
    source_late_events += pacer->source_late_events();
    batches_waited += pacer->batches_waited();
  }
  std::sort(lat.begin(), lat.end());
  const double tail_q = TailQuantile(lat.size(), 0.99);
  const double p50 = lat.empty() ? 0.0 : NearestRank(lat, 0.5) / 1e3;
  const double p99 = tail_q > 0 ? NearestRank(lat, tail_q) / 1e3 : 0.0;
  // The source fell behind (not the program) when it released a batch
  // the program was ready for more than 1 ms late. A run where that hit
  // enough events to reach the reported tail is invalid.
  const double gen_late_ms = static_cast<double>(source_late_ns) / 1e6;
  const bool lat_valid =
      tail_q > 0 && static_cast<double>(source_late_events) <
                        (1.0 - tail_q) * static_cast<double>(lat.size()) / 10;

  JsonObject out;
  AddHeader(w, args.seed, &out);
  out.Add("passes", PassesJson(passes));
  JsonObject closed;
  closed.AddNum("passes", static_cast<double>(ev_per_s.size()));
  closed.AddNum("ev_per_s", Median(ev_per_s));
  std::string reps = "[";
  for (const double v : ev_per_s) reps += (reps.size() > 1 ? "," : "") + Num(v);
  closed.Add("ev_per_s_passes", reps + "]");
  out.Add("closed", closed.str());
  out.AddNum("setup_s", Median(setup_s));
  out.AddNum("setup_samples", static_cast<double>(setup_s.size()));
  JsonObject open;
  open.AddNum("ts_per_s", w.open_loop_ts_per_s);
  open.Add("rate_reason", Str(w.rate_reason));
  open.AddNum("samples", static_cast<double>(lat.size()));
  open.AddNum("lat_p50_us", p50);
  open.AddNum("lat_p99_us", p99);
  open.AddNum("tail_quantile", tail_q);
  JsonObject shape;
  const std::pair<const char*, double> shape_points[] = {
      {"p90", 0.9}, {"p95", 0.95}, {"p98", 0.98},
      {"p99", 0.99}, {"p99.5", 0.995}, {"p99.9", 0.999}};
  for (const auto& [name, q] : shape_points) {
    if (!lat.empty()) shape.AddNum(name, NearestRank(lat, q) / 1e3);
  }
  open.Add("lat_shape_us", shape.str());
  open.AddNum("gen_late_ms", gen_late_ms);
  open.AddNum("source_late_events", static_cast<double>(source_late_events));
  open.AddNum("batches_waited", static_cast<double>(batches_waited));
  open.Add("valid", lat_valid ? "true" : "false");
  open.AddNum("passes", static_cast<double>(open_passes));
  out.Add("open", open.str());
  out.AddNum("peak_rss_mb", peak_rss_mb);
  out.AddNum("wall_s", Seconds(start));
  std::cout << out.str() << std::endl;
  return 0;
}

int Trace(const Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  // Untraced reference throughput for the tracing overhead ratio.
  std::vector<Pass> passes = ClosedLoop(w, w.threads, 0.5 * args.seconds, 2);
  std::vector<double> untraced;
  std::vector<double> build_ns;
  std::vector<double> reader_ns;
  for (const Pass& p : passes) {
    untraced.push_back(p.ev_per_s());
    build_ns.push_back(static_cast<double>(p.engine_build_ns));
    reader_ns.push_back(static_cast<double>(p.reader_init_ns));
  }

  // With a fan-out, mutation time is not observable from outside the
  // pipeline; it is taken from a serial traced pass over the same inputs.
  double serial_mutate_ns = -1;
  if (w.threads > 1) {
    LayerProbe serial_probe;
    PassSpec spec;
    spec.phase = "traced_serial";
    spec.threads = 1;
    spec.probe = &serial_probe;
    passes.push_back(RunPass(w, spec));
    serial_mutate_ns = static_cast<double>(serial_probe.batch_ns) -
                       static_cast<double>(serial_probe.fanout_ns);
  }

  Observability obs;
  TraceWriter trace;
  LayerProbe probe;
  probe.trace = &trace;
  probe.max_spans = kMaxTraceSpans;
  PassSpec spec;
  spec.phase = "traced";
  spec.threads = w.threads;
  spec.probe = &probe;
  spec.obs = &obs;
  passes.push_back(RunPass(w, spec));
  const Pass& t = passes.back();
  const MetricsSnapshot snap = obs.Snapshot();

  bool trace_written = false;
  if (!args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    trace.WriteJson(f);
    trace_written = static_cast<bool>(f);
  }

  const double threads = static_cast<double>(t.threads);
  double engine_ns = 0;
  double top_ns = 0;
  for (const uint64_t ns : t.notify_ns) {
    engine_ns += static_cast<double>(ns);
    top_ns = std::max(top_ns, static_cast<double>(ns));
  }
  const double batch_ns = static_cast<double>(probe.batch_ns);
  const auto hist_sum = [&snap](const char* name) {
    const HistogramSnapshot* h = snap.FindHistogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->sum);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  JsonObject m;
  m.AddNum("io.parse_ns", hist_sum("stage.parse_ns"));
  const auto counter = [&snap](const char* name) {
    return static_cast<double>(snap.CounterValue(name));
  };
  m.AddNum("io.records", counter("io.ingest_records"));
  m.AddNum("io.bytes", counter("io.ingest_bytes"));
  m.AddNum("core.driver.batches", static_cast<double>(probe.batches));
  m.AddNum("core.driver.batch_mean",
           ratio(static_cast<double>(probe.batch_events),
                 static_cast<double>(probe.batches)));
  m.AddNum("core.driver.mem_samples", static_cast<double>(probe.mem_samples));
  m.AddNum("core.driver.mem_sample_ns",
           static_cast<double>(probe.mem_sample_ns));
  m.AddNum("core.driver.index_bytes_peak",
           static_cast<double>(probe.index_bytes_peak));
  // Serial contexts fan out through the Notify* seam once per event;
  // everything else inside a batch is mutation.
  double mutate_ns = batch_ns - static_cast<double>(probe.fanout_ns);
  if (w.threads > 1) mutate_ns = serial_mutate_ns;
  m.AddNum("graph.mutate_ns", std::max(0.0, mutate_ns));
  m.AddNum("graph.live_edges_peak", static_cast<double>(probe.live_edges_peak));
  // The exec layer is the fan-out; serial workloads have none.
  const bool fanout = w.threads > 1;
  m.AddNum("exec.overhead_ns",
           fanout ? std::max(0.0, batch_ns - mutate_ns - engine_ns / threads)
                  : 0.0);
  m.AddNum("exec.busy_frac",
           fanout ? ratio(engine_ns, threads * batch_ns) : 0.0);
  m.AddNum("exec.sink_drain_ns", static_cast<double>(t.sink_drain_ns));
  m.AddNum("core.tcm.notify_ns", engine_ns);
  m.AddNum("core.tcm.update_ns", static_cast<double>(t.engine.update_ns));
  m.AddNum("core.tcm.search_ns", static_cast<double>(t.engine.search_ns));
  m.AddNum("core.tcm.search_nodes", static_cast<double>(t.engine.search_nodes));
  m.AddNum("core.tcm.reports_per_node",
           ratio(static_cast<double>(t.sink_reports),
                 static_cast<double>(t.engine.search_nodes)));
  m.AddNum("core.tcm.adj_scanned",
           static_cast<double>(t.engine.adj_entries_scanned));
  m.AddNum("core.tcm.scan_sel",
           ratio(static_cast<double>(t.engine.adj_entries_matched),
                 static_cast<double>(t.engine.adj_entries_scanned)));
  m.AddNum("core.tcm.top_query_share", ratio(top_ns, engine_ns));
  m.AddNum("filter.entries_peak", static_cast<double>(probe.index_peaks[0]));
  m.AddNum("filter.bytes_peak", static_cast<double>(probe.index_peaks[1]));
  m.AddNum("dcs.edges_peak", static_cast<double>(probe.index_peaks[2]));
  m.AddNum("dcs.d2_nodes_peak", static_cast<double>(probe.index_peaks[3]));
  m.AddNum("dcs.bytes_peak", static_cast<double>(probe.index_peaks[4]));
  m.AddNum("setup.engine_build_ns", Median(build_ns));
  m.AddNum("setup.reader_init_ns", Median(reader_ns));
  m.AddNum("sink.reports", static_cast<double>(t.sink_reports));
  m.AddNum("sink.matches", static_cast<double>(t.sink_matches));
  m.AddNum("obs.trace_overhead", ratio(Median(untraced), t.ev_per_s()));

  // Reconciliation of the per-layer numbers.
  JsonObject checks;
  checks.Add("engine_within_batches",
             engine_ns <= threads * batch_ns ? "true" : "false");
  const uint64_t arrivals = t.result.events / 2;
  checks.Add("io_records_match_events",
             !w.replay || snap.CounterValue("io.ingest_records") == arrivals
                 ? "true"
                 : "false");
  checks.Add("sink_matches_reconcile",
             t.sink_matches == t.result.occurred + t.result.expired ? "true"
                                                                     : "false");
  checks.Add("trace_written", trace_written ? "true" : "false");

  JsonObject out;
  AddHeader(w, args.seed, &out);
  out.Add("passes", PassesJson(passes));
  out.Add("metrics", m.str());
  out.Add("checks", checks.str());
  out.AddNum("trace_spans", static_cast<double>(trace.NumSpans()));
  out.AddNum("wall_s", Seconds(start));
  std::cout << out.str() << std::endl;
  return 0;
}

int ReferenceMode(const Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  std::string error;
  const std::vector<QueryCount> counts = Reference(w, &error);
  JsonObject out;
  AddHeader(w, args.seed, &out);
  out.Add("engine", Str(w.reference == ReferenceEngine::kPostFilter
                            ? "post_filter"
                            : "local_enum"));
  out.Add("error", Str(error));
  out.Add("counts", CountsJson(counts));
  out.AddNum("wall_s", Seconds(start));
  std::cout << out.str() << std::endl;
  return error.empty() ? 0 : 1;
}

int HashMode(const Workload& w, const Args& args) {
  JsonObject out;
  AddHeader(w, args.seed, &out);
  std::cout << out.str() << std::endl;
  return 0;
}

// ---- self-test -------------------------------------------------------

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAIL: " << what << "\n";
  }
}

int SelfTest() {
  // Same seed, byte-identical inputs; another seed, other inputs.
  for (const std::string& name : WorkloadNames()) {
    const uint64_t a = InputHash(MakeWorkload(name, 7));
    Expect(a == InputHash(MakeWorkload(name, 7)),
           name + ": same seed, same inputs");
    Expect(a != InputHash(MakeWorkload(name, 8)),
           name + ": other seed, other inputs");
  }
  Expect(InputHash(MakeWorkload("labeled_multiq", 3)) ==
             InputHash(MakeWorkload("labeled_multiq_t4", 3)),
         "labeled_multiq and labeled_multiq_t4 share their inputs");

  // Percentile rule.
  std::vector<uint64_t> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  Expect(NearestRank(v, 0.5) == 500, "p50 of 1..1000 is 500");
  Expect(TailQuantile(1000, 0.99) == 0.99, "1000 samples support p99");
  Expect(NearestRank(v, TailQuantile(1000, 0.99)) == 990,
         "p99 of 1..1000 is 990");
  Expect(TailQuantile(999, 0.99) < 0.99, "999 samples fall back below p99");
  for (size_t n : {11, 50, 200, 999, 1000, 5000}) {
    std::vector<uint64_t> s(n);
    for (size_t i = 0; i < n; ++i) s[i] = i + 1;
    const double q = TailQuantile(n, 0.99);
    const uint64_t value = NearestRank(s, q);
    Expect(n - value >= kTailSamples,
           "tail percentile leaves 10 samples beyond it");
    Expect(q == 0.99 || n - value == kTailSamples,
           "fallback is the highest percentile with 10 samples beyond it");
  }
  Expect(TailQuantile(10, 0.99) == 0.0,
         "10 samples support no tail percentile");

  // The open-loop source never releases a batch before it is due, and
  // keeps bursts together (one due time per timestamp).
  const double ts_per_s = 20000;  // 50 us per timestamp unit
  Pacer pacer(ts_per_s, 100);
  const std::vector<std::pair<Timestamp, bool>> batches = {
      {10, false}, {10, false}, {11, false}, {15, false}, {10, true},
      {40, false}, {40, false}, {300, false}};
  for (const auto& [ts, expiry] : batches) {
    const Clock::time_point due = pacer.Release(ts, expiry);
    const Clock::time_point released = Clock::now();
    const Timestamp t = expiry ? ts + 100 : ts;
    const auto expect_due =
        pacer.start() + std::chrono::nanoseconds(static_cast<int64_t>(
                            static_cast<double>(t - 10) * 1e9 / ts_per_s));
    Expect(due == expect_due, "due time is linear in the timestamp");
    Expect(released >= expect_due, "no batch is released before it is due");
    pacer.Complete(due, 3);
  }
  Expect(pacer.latencies_ns().size() == 3 * batches.size(),
         "one latency sample per event");

  std::cout << (failures == 0 ? "selftest OK" : "selftest FAILED") << std::endl;
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->mode == "selftest" || args->mode == "workloads" ||
         IsWorkload(args->workload);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench workloads|hash|reference|measure|trace|"
                 "selftest --workload W --seed N [--seconds S] "
                 "[--trace-out FILE]\n";
    return 2;
  }
  if (args.mode == "selftest") return SelfTest();
  if (args.mode == "workloads") {
    std::string list = "[";
    for (const std::string& name : WorkloadNames()) {
      list += (list.size() > 1 ? "," : "") + Str(name);
    }
    std::cout << "{\"workloads\":" << list << "]}" << std::endl;
    return 0;
  }
  const Workload w = MakeWorkload(args.workload, args.seed);
  if (args.mode == "hash") return HashMode(w, args);
  if (args.mode == "reference") return ReferenceMode(w, args);
  if (args.mode == "measure") return Measure(w, args);
  if (args.mode == "trace") return Trace(w, args);
  std::cerr << "unknown mode " << args.mode << "\n";
  return 2;
}
