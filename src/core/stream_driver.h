// Replays a temporal dataset as a stream of arrival/expiration events
// against a SharedStreamContext (Algorithm 1's event list L): edge e with
// timestamp t yields (e, t, +) and (e, t + delta, -). Events are processed
// in chronological order with expirations before arrivals on ties, so an
// embedding can never use an edge that expires exactly when a new edge
// arrives (Example II.2). The context applies each event to the shared
// graph once and fans it out to the attached engines it is routed to.
#ifndef TCSM_CORE_STREAM_DRIVER_H_
#define TCSM_CORE_STREAM_DRIVER_H_

#include <cstdint>
#include <iosfwd>

#include "common/status.h"
#include "core/shared_context.h"
#include "graph/temporal_dataset.h"

namespace tcsm {

class Observability;

/// Micro-batch cap used when a driver's max_batch knob is 0. Large enough
/// to amortize the per-event fan-out cost, small enough that drivers
/// still check deadlines and overflow flags frequently.
inline constexpr size_t kDefaultMaxBatch = 64;

struct StreamConfig {
  /// Time window delta; edges with ts <= now - delta are expired.
  Timestamp window = 0;
  /// Per-run wall-clock limit; 0 = unlimited. A run that exceeds it is
  /// reported as not completed ("unsolved" in the paper's terms).
  double time_limit_ms = 0;
  /// Context memory is sampled every this many events; 0 = adaptive
  /// (at least ~32 samples across the run, so sampling never dominates).
  size_t memory_sample_every = 0;
  /// Stop the replay after this many arrivals (0 = all). Expirations of
  /// already-arrived edges are still delivered.
  size_t max_arrivals = 0;
  /// Largest micro-batch handed to the context in one
  /// OnEdgeArrivalBatch/OnEdgeExpiryBatch call (consecutive events of one
  /// kind sharing a timestamp; DESIGN.md §9). 0 = default (64); 1 =
  /// unbatched, exactly the historical one-call-per-event behavior. The
  /// match stream is identical for every setting; the cap only bounds how
  /// long the driver goes between deadline/overflow checks.
  size_t max_batch = 0;
  /// Observability bundle (obs/observability.h); null = metrics off, the
  /// driver and context then skip every metrics/trace site (DESIGN.md
  /// §11's no-op contract). The driver installs it on the context before
  /// the first event and publishes the run's engine counter deltas into
  /// the registry at the end.
  Observability* obs = nullptr;
  /// Emit one StatsReporter line to `stats_out` every `stats_every`
  /// delivered events (0 = never; requires `obs`). `stats_json` selects
  /// the JSON line form over the text form.
  size_t stats_every = 0;
  bool stats_json = false;
  std::ostream* stats_out = nullptr;
};

struct StreamResult {
  bool completed = true;
  /// Why the run refused to start (completed == false, zero events):
  /// currently only timestamp/window magnitudes that could overflow the
  /// expiry arithmetic (ts + window); see kMaxStreamTimestamp. Runs that
  /// merely hit the time limit or overflow an engine keep an OK status.
  Status error = Status::Ok();
  double elapsed_ms = 0;
  /// Summed over all engines attached to the context.
  uint64_t occurred = 0;
  uint64_t expired = 0;
  size_t events = 0;
  /// Peak of the context estimate: shared graph once + per-query state.
  size_t peak_memory_bytes = 0;
  /// Event count (result.events at observation time) when the memory
  /// peak was sampled, so a spike is attributable to a stream position.
  size_t peak_memory_event_index = 0;
  /// Scan-selectivity totals over this run (see EngineCounters): adjacency
  /// entries visited vs. entries passing all static checks. The gap is the
  /// work the label-partitioned storage avoids.
  uint64_t adj_entries_scanned = 0;
  uint64_t adj_entries_matched = 0;
  /// Fan-out width of the context that was driven (1 for serial contexts,
  /// the pool width for a ParallelStreamContext) — recorded so bench/CLI
  /// output always states how a measurement was produced.
  size_t num_threads = 1;
};

StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_CORE_STREAM_DRIVER_H_
