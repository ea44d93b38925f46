#include "core/shared_context.h"

#include <optional>

#include "common/logging.h"
#include "obs/observability.h"

namespace tcsm {

SharedStreamContext::SharedStreamContext(const GraphSchema& schema)
    : g_(schema.directed) {
  g_.EnsureVertices(schema.vertex_labels.size());
  for (size_t v = 0; v < schema.vertex_labels.size(); ++v) {
    g_.SetVertexLabel(static_cast<VertexId>(v), schema.vertex_labels[v]);
  }
}

void SharedStreamContext::Attach(ContinuousEngine* engine) {
  TCSM_CHECK(engine != nullptr);
  engine->set_deadline(deadline_);
  engine->set_stage_metrics(stages_);
  const size_t index = engines_.size();
  engines_.push_back(engine);
  // `index` exceeds every index filed so far, so appending keeps each
  // route in attach order.
  const std::optional<std::vector<LabelSignature>> sigs =
      engine->RouteSignatures();
  if (!sigs.has_value()) {
    every_event_.push_back(index);
    for (auto& [sig, route] : routes_) route.push_back(index);
    return;
  }
  for (const LabelSignature& sig : *sigs) {
    std::vector<size_t>& route = routes_.try_emplace(sig, every_event_)
                                     .first->second;
    if (route.empty() || route.back() != index) route.push_back(index);
  }
}

const std::vector<size_t>& SharedStreamContext::Route(
    const TemporalEdge& ed) const {
  if (routes_.empty()) return every_event_;
  const auto it = routes_.find(
      {ed.label, g_.VertexLabel(ed.src), g_.VertexLabel(ed.dst)});
  return it != routes_.end() ? it->second : every_event_;
}

void SharedStreamContext::OnEdgeArrival(const TemporalEdge& ed) {
  // The driver assigns dense arrival indices; honoring them (rather than
  // recounting) keeps EdgeId-keyed state identical to a full replay even
  // when a seeked replay starts mid-stream at a non-zero first id.
  const EdgeId id = g_.InsertEdgeAs(ed.id, ed.src, ed.dst, ed.ts, ed.label);
  NotifyInserted(g_.Edge(id));
}

void SharedStreamContext::OnEdgeExpiry(const TemporalEdge& ed) {
  TCSM_CHECK(ed.id < g_.NumEdgesEver() && g_.Alive(ed.id));
  // Copy: the canonical record outlives the removal, but engines receive a
  // stable value either way.
  const TemporalEdge applied = g_.Edge(ed.id);
  NotifyExpiring(applied);
  g_.RemoveEdge(applied.id);
  NotifyRemoved(applied);
}

void SharedStreamContext::OnEdgeArrivalBatch(const TemporalEdge* edges,
                                             size_t count) {
  for (size_t i = 0; i < count; ++i) OnEdgeArrival(edges[i]);
}

void SharedStreamContext::OnEdgeExpiryBatch(const TemporalEdge* edges,
                                            size_t count) {
  for (size_t i = 0; i < count; ++i) OnEdgeExpiry(edges[i]);
}

void SharedStreamContext::NotifyInserted(const TemporalEdge& ed) {
  const std::vector<size_t>& route = Route(ed);
  CountEngineCalls(route.size());
  for (const size_t i : route) engines_[i]->OnEdgeInserted(ed);
}

void SharedStreamContext::NotifyExpiring(const TemporalEdge& ed) {
  const std::vector<size_t>& route = Route(ed);
  CountEngineCalls(route.size());
  for (const size_t i : route) engines_[i]->OnEdgeExpiring(ed);
}

void SharedStreamContext::NotifyRemoved(const TemporalEdge& ed) {
  const std::vector<size_t>& route = Route(ed);
  CountEngineCalls(route.size());
  for (const size_t i : route) engines_[i]->OnEdgeRemoved(ed);
}

size_t SharedStreamContext::EstimateMemoryBytes() const {
  size_t bytes = g_.EstimateMemoryBytes();
  for (const ContinuousEngine* engine : engines_) {
    bytes += engine->EstimateMemoryBytes();
  }
  return bytes;
}

bool SharedStreamContext::overflowed() const {
  for (const ContinuousEngine* engine : engines_) {
    if (engine->overflowed()) return true;
  }
  return false;
}

void SharedStreamContext::set_deadline(Deadline* deadline) {
  deadline_ = deadline;
  for (ContinuousEngine* engine : engines_) engine->set_deadline(deadline);
}

void SharedStreamContext::set_observability(Observability* obs) {
  obs_ = obs;
  stages_ = obs != nullptr ? &obs->stages() : nullptr;
  trace_ = obs != nullptr ? obs->trace() : nullptr;
  for (ContinuousEngine* engine : engines_) {
    engine->set_stage_metrics(stages_);
  }
}

EngineCounters SharedStreamContext::AggregateCounters() const {
  EngineCounters total;
  for (const ContinuousEngine* engine : engines_) {
    const EngineCounters& c = engine->counters();
    total.occurred += c.occurred;
    total.expired += c.expired;
    total.search_nodes += c.search_nodes;
    total.update_ns += c.update_ns;
    total.search_ns += c.search_ns;
    total.adj_entries_scanned += c.adj_entries_scanned;
    total.adj_entries_matched += c.adj_entries_matched;
  }
  return total;
}

}  // namespace tcsm
