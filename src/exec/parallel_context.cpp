#include "exec/parallel_context.h"

#include "obs/stage_timer.h"

namespace tcsm {

ParallelStreamContext::ParallelStreamContext(const GraphSchema& schema,
                                             size_t num_threads)
    : SharedStreamContext(schema), pool_(num_threads) {}

void ParallelStreamContext::SyncSinks(const std::vector<size_t>& route) {
  const std::vector<ContinuousEngine*>& attached = engines();
  while (buffers_.size() < attached.size()) {
    buffers_.push_back(std::make_unique<BufferedMatchSink>());
  }
  for (const size_t i : route) {
    MatchSink* current = attached[i]->sink();
    if (current == buffers_[i].get()) continue;
    // The caller (re)installed a sink since the last event: buffer in
    // front of it. A null sink stays null — the engine then only counts,
    // exactly as in serial execution.
    buffers_[i]->set_downstream(current);
    if (current != nullptr) attached[i]->set_sink(buffers_[i].get());
  }
}

void ParallelStreamContext::RunPhase(
    void (ContinuousEngine::*hook)(const TemporalEdge&),
    const TemporalEdge& ed, const std::vector<size_t>& route,
    const char* span_name) {
  const std::vector<ContinuousEngine*>& attached = engines();
  const StageMetrics* const stages = stage_metrics();
  CountEngineCalls(route.size());
  try {
    const ScopedStage span(
        stages != nullptr ? stages->pipeline_step_ns : nullptr,
        trace_writer(), span_name, "pipeline");
    pool_.ParallelFor(route.size(),
                      [&](size_t k) { (attached[route[k]]->*hook)(ed); });
  } catch (...) {
    // A failed phase poisons the event: engines that did complete must
    // not have their buffered matches replayed under a later event's
    // drain, so discard them before propagating. (Engine index state may
    // be inconsistent after an exception either way; the context is not
    // fit to continue the same stream.)
    for (const size_t i : route) buffers_[i]->Discard();
    throw;
  }
  // Draining after every phase (after OnEdgeExpiring too, before the
  // context removes the edge) keeps even the inter-phase sink timing
  // identical to serial execution.
  const ScopedStage drain(stages != nullptr ? stages->sink_drain_ns : nullptr,
                          trace_writer(), "drain", "pipeline");
  for (const size_t i : route) buffers_[i]->Drain();
}

void ParallelStreamContext::NotifyInserted(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyInserted(ed);
    return;
  }
  const std::vector<size_t>& route = Route(ed);
  SyncSinks(route);
  RunPhase(&ContinuousEngine::OnEdgeInserted, ed, route, "insert_fanout");
}

void ParallelStreamContext::NotifyExpiring(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyExpiring(ed);
    return;
  }
  const std::vector<size_t>& route = Route(ed);
  SyncSinks(route);
  RunPhase(&ContinuousEngine::OnEdgeExpiring, ed, route, "expiring_fanout");
}

void ParallelStreamContext::NotifyRemoved(const TemporalEdge& ed) {
  if (!pool_.pooled()) {
    SharedStreamContext::NotifyRemoved(ed);
    return;
  }
  // NotifyExpiring synced the sinks of this edge's route.
  RunPhase(&ContinuousEngine::OnEdgeRemoved, ed, Route(ed), "removed_fanout");
}

}  // namespace tcsm
