// Shared sliding-window graph for continuous matching. A stream carries
// one data graph regardless of how many queries watch it, so the context
// owns the one canonical TemporalGraph, applies every arrival/expiration
// to it exactly once, and fans the applied event out to the engines
// attached to it. Engines are read-only views (const TemporalGraph&) and
// keep only per-query state — O(1) graph storage and one adjacency update
// per event for any number of queries (DESIGN.md §1).
//
// An event reaches only the engines routed for its label signature
// (edge label, label(src), label(dst)): Attach files each engine under
// the signatures it declares (ContinuousEngine::RouteSignatures), and an
// engine that declares none receives every event.
//
// The fan-out itself is a protected virtual seam (NotifyInserted /
// NotifyExpiring / NotifyRemoved): the base class notifies the event's
// routed engines in attach order on the calling thread, and
// ParallelStreamContext (exec/parallel_context.h) overrides the seam to
// shard the same per-engine work across a worker pool while the graph
// mutations stay on the driver thread (DESIGN.md §6).
#ifndef TCSM_CORE_SHARED_CONTEXT_H_
#define TCSM_CORE_SHARED_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "graph/temporal_graph.h"
#include "query/query_graph.h"

namespace tcsm {

class Observability;
class TraceWriter;

class SharedStreamContext {
 public:
  explicit SharedStreamContext(const GraphSchema& schema);
  virtual ~SharedStreamContext() = default;

  SharedStreamContext(const SharedStreamContext&) = delete;
  SharedStreamContext& operator=(const SharedStreamContext&) = delete;

  /// The canonical windowed graph. Engines bind to this at construction.
  const TemporalGraph& graph() const { return g_; }

  /// Registers an engine constructed against graph() and files it in the
  /// route table under its RouteSignatures(). The engine must outlive all
  /// subsequent event processing.
  void Attach(ContinuousEngine* engine);
  const std::vector<ContinuousEngine*>& engines() const { return engines_; }

  /// Indices into engines(), in attach order, of the engines an event on
  /// the live or just-removed graph edge `ed` is delivered to: those
  /// filed under its label signature plus those that take every event.
  const std::vector<size_t>& Route(const TemporalEdge& ed) const;

  /// Applies an arrival to the shared graph (edge ids must be the dense
  /// arrival indices 0, 1, 2, ... of TemporalDataset::Normalize()) and
  /// notifies the edge's routed engines with the canonical graph edge.
  void OnEdgeArrival(const TemporalEdge& ed);

  /// Two-phase expiration (DESIGN.md §3): engines first enumerate the
  /// embeddings that die with the edge against the pre-deletion graph,
  /// then the edge is removed once and engines update their indexes.
  void OnEdgeExpiry(const TemporalEdge& ed);

  /// Micro-batch entry points (DESIGN.md §9): `count` consecutive events
  /// of one kind sharing a timestamp, delivered together so a driver can
  /// amortize its per-event bookkeeping. The event protocol is NOT
  /// relaxed: each edge is applied to the graph and fanned out to every
  /// engine before the next edge of the batch mutates anything, so the
  /// match stream is byte-identical to `count` single-event calls by
  /// construction. The implementations simply loop over the single-event
  /// path, whose Notify* seam is where a parallel context fans out.
  virtual void OnEdgeArrivalBatch(const TemporalEdge* edges, size_t count);
  virtual void OnEdgeExpiryBatch(const TemporalEdge* edges, size_t count);

  /// Honest multi-query footprint: the shared graph accounted once plus
  /// every attached engine's per-query state.
  virtual size_t EstimateMemoryBytes() const;

  /// True when any attached engine overflowed (results incomplete).
  bool overflowed() const;

  /// Propagates the per-run deadline to every attached engine (including
  /// engines attached later).
  void set_deadline(Deadline* deadline);

  /// Installs (or clears, with null) the run's observability bundle:
  /// caches the stage-metric handles and the optional trace writer for
  /// the context's own instrumented seams and propagates the stage
  /// metrics to every attached engine (including engines attached
  /// later). The drivers call this once before the first event.
  void set_observability(Observability* obs);
  Observability* observability() const { return obs_; }

  /// Sum of the attached engines' counters.
  EngineCounters AggregateCounters() const;

  /// Total parallelism of the engine fan-out, including the driver
  /// thread. The serial base class always reports 1.
  virtual size_t num_threads() const { return 1; }

 protected:
  /// Engine fan-out seam. The base implementations notify the event's
  /// Route() in attach order on the calling thread; overrides may
  /// distribute the calls but must preserve the event protocol: the
  /// arrival is already applied when NotifyInserted runs, the expiring
  /// edge is still live throughout NotifyExpiring and already removed
  /// when NotifyRemoved runs, and every engine must have returned before
  /// the context mutates the graph again.
  virtual void NotifyInserted(const TemporalEdge& ed);
  virtual void NotifyExpiring(const TemporalEdge& ed);
  virtual void NotifyRemoved(const TemporalEdge& ed);

  /// Cached observability handles for subclass seams; null when the run
  /// carries no bundle (the default), in which case instrumented sites
  /// must do nothing.
  const StageMetrics* stage_metrics() const { return stages_; }
  TraceWriter* trace_writer() const { return trace_; }

  /// Records one fan-out phase that delivers `width` hook calls.
  void CountEngineCalls(size_t width) const {
    if (stages_ != nullptr) stages_->engine_calls->Add(width);
  }

 private:
  struct LabelSignatureHash {
    size_t operator()(const LabelSignature& sig) const {
      // Mixes all 96 bits; equality still compares the full labels.
      uint64_t h = ((uint64_t{sig[0]} << 32) | sig[1]) * 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 29) ^ sig[2]) * 0xbf58476d1ce4e5b9ull;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  TemporalGraph g_;
  std::vector<ContinuousEngine*> engines_;
  /// Engines that take every event, in attach order.
  std::vector<size_t> every_event_;
  /// Per label signature: its engines merged with every_event_, in attach
  /// order. A signature no engine declared routes to every_event_ alone.
  std::unordered_map<LabelSignature, std::vector<size_t>, LabelSignatureHash>
      routes_;
  Deadline* deadline_ = nullptr;
  Observability* obs_ = nullptr;
  const StageMetrics* stages_ = nullptr;
  TraceWriter* trace_ = nullptr;
};

/// Context owning a single engine — the shape of most call sites (CLI,
/// per-figure benches, single-query tests): one query over one stream.
/// Extra constructor arguments are forwarded to the engine after the
/// graph reference (e.g. a TcmConfig).
template <typename EngineT>
class SingleQueryContext : public SharedStreamContext {
 public:
  template <typename... Args>
  SingleQueryContext(const QueryGraph& query, const GraphSchema& schema,
                     Args&&... args)
      : SharedStreamContext(schema),
        engine_(query, graph(), std::forward<Args>(args)...) {
    Attach(&engine_);
  }

  EngineT& engine() { return engine_; }
  const EngineT& engine() const { return engine_; }

 private:
  EngineT engine_;
};

}  // namespace tcsm

#endif  // TCSM_CORE_SHARED_CONTEXT_H_
