// Sharded multi-query fan-out over the one shared sliding-window graph.
//
// A ParallelStreamContext is a SharedStreamContext whose notification
// fan-out runs on a worker pool instead of a loop: the graph mutation for
// an event is still applied exactly once on the driver thread (the
// two-phase expiry protocol of DESIGN.md §3 is unchanged), and then the
// per-engine OnEdgeInserted / OnEdgeExpiring / OnEdgeRemoved work of the
// event's route (SharedStreamContext::Route) — embarrassingly parallel
// because engines are read-only views of a const graph — is spread across
// the pool (each participant keeps its home slice of the route and steals
// when it runs dry), with a full barrier at the end of each phase. A
// route of zero or one engine never wakes the pool. In particular the barrier
// between OnEdgeExpiring and the graph removal guarantees every engine
// enumerated its dying embeddings against the pre-deletion state before
// the edge disappears.
//
// Determinism: during a phase each engine reports into a private
// BufferedMatchSink interposed in front of the sink the caller installed;
// at the end of the event the driver thread drains the buffers in
// engine-attach order. Each engine runs single-threaded per phase, so the
// resulting match stream — per query and globally — is byte-identical to
// serial execution regardless of the thread count or scheduling
// (DESIGN.md §6). Constructed with num_threads <= 1 the context spawns no
// workers and behaves exactly like its serial base class.
#ifndef TCSM_EXEC_PARALLEL_CONTEXT_H_
#define TCSM_EXEC_PARALLEL_CONTEXT_H_

#include <memory>
#include <vector>

#include "core/shared_context.h"
#include "exec/result_sink.h"
#include "exec/thread_pool.h"

namespace tcsm {

class ParallelStreamContext : public SharedStreamContext {
 public:
  ParallelStreamContext(const GraphSchema& schema, size_t num_threads);

  /// Total parallelism of the notification phases, including the driver
  /// thread; 1 means the serial bypass.
  size_t num_threads() const override { return pool_.num_threads(); }

 protected:
  void NotifyInserted(const TemporalEdge& ed) override;
  void NotifyExpiring(const TemporalEdge& ed) override;
  void NotifyRemoved(const TemporalEdge& ed) override;

 private:
  /// Interposes a BufferedMatchSink in front of the current sink of every
  /// engine in `route`. Runs on the driver thread before each event's
  /// fan-out, so engines attached or re-sinked between events are picked
  /// up by the next event routed to them.
  void SyncSinks(const std::vector<size_t>& route);
  /// Runs `hook` on every engine in `route` across the pool, blocks until
  /// all of them finished (the phase barrier), then drains their buffers
  /// in attach order (serial match order). With metrics on, the fan-out
  /// is timed as a `span_name` stage and the drain as `drain`, also for an
  /// empty route.
  void RunPhase(void (ContinuousEngine::*hook)(const TemporalEdge&),
                const TemporalEdge& ed, const std::vector<size_t>& route,
                const char* span_name);

  ThreadPool pool_;
  std::vector<std::unique_ptr<BufferedMatchSink>> buffers_;
};

}  // namespace tcsm

#endif  // TCSM_EXEC_PARALLEL_CONTEXT_H_
