#include "core/stream_driver.h"

#include "common/logging.h"
#include "common/memory_meter.h"
#include "common/timer.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"

namespace tcsm {

StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context) {
  TCSM_CHECK(config.window > 0);
  StreamResult result;
  const size_t n = dataset.edges.size();
  const size_t arrivals =
      config.max_arrivals == 0 ? n : std::min(n, config.max_arrivals);

  // The expiry comparison below computes ts + window in signed 64-bit.
  // The .tel parser caps what it accepts, but programmatically built and
  // synthetic datasets reach this loop unparsed — refuse magnitudes that
  // could overflow instead of computing undefined behavior. Timestamps
  // are normalized ascending, so checking the last arrival suffices.
  if (config.window > kMaxStreamTimestamp ||
      (arrivals > 0 && dataset.edges[arrivals - 1].ts > kMaxStreamTimestamp)) {
    result.completed = false;
    result.error = Status::InvalidArgument(
        "stream timestamp or window exceeds kMaxStreamTimestamp; "
        "ts + window could overflow");
    return result;
  }

  Deadline deadline(config.time_limit_ms);
  context->set_deadline(config.time_limit_ms > 0 ? &deadline : nullptr);

  // Observability: install the bundle on the context (which fans the
  // stage-metric handles out to the engines) and cache the handles the
  // driver's own sites use. All of `stages`/`trace` stay null when
  // metrics are off, so each site below is one pointer test.
  context->set_observability(config.obs);
  const StageMetrics* const stages =
      config.obs != nullptr ? &config.obs->stages() : nullptr;
  TraceWriter* const trace =
      config.obs != nullptr ? config.obs->trace() : nullptr;
  StatsReporter reporter(config.obs, config.stats_every, config.stats_json,
                         config.stats_out);

  // Adaptive cadence: ~32 samples across the ~2*arrivals events of a full
  // run. Compared against result.events — which counts arrivals AND
  // expirations — so the divisor is the total event count, not the
  // arrival count.
  size_t sample_every = config.memory_sample_every;
  if (sample_every == 0) {
    sample_every = std::max<size_t>(1, arrivals * 2 / 32);
  }
  const size_t max_batch =
      config.max_batch == 0 ? kDefaultMaxBatch : config.max_batch;

  PeakMeter peak;
  StopWatch watch;
  const EngineCounters base = context->AggregateCounters();

  size_t arr = 0;
  size_t exp = 0;
  while (arr < arrivals || exp < arr) {
    if (deadline.ExpiredNow() || context->overflowed()) {
      result.completed = false;
      break;
    }
    const bool have_arrival = arr < arrivals;
    // Expiration time of edge `exp` is its timestamp + window; process
    // expirations first on ties.
    const bool do_expire =
        exp < arr &&
        (!have_arrival ||
         dataset.edges[exp].ts + config.window <= dataset.edges[arr].ts);
    // Coalesce the run of consecutive same-timestamp events of the same
    // kind into one batch call (DESIGN.md §9). Same arrival timestamp
    // means same expiry timestamp, and an arrival batch never needs an
    // expiration between its members (window > 0), so batching by equal
    // ts never reorders events across the two queues.
    size_t batch = 1;
    if (do_expire) {
      const Timestamp t = dataset.edges[exp].ts;
      while (batch < max_batch && exp + batch < arr &&
             dataset.edges[exp + batch].ts == t) {
        ++batch;
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->expiry_batch_ns : nullptr, trace,
            "expiry_batch", "stream", "events", batch);
        context->OnEdgeExpiryBatch(&dataset.edges[exp], batch);
      }
      exp += batch;
      if (stages != nullptr) {
        stages->expirations->Add(batch);
        stages->expiry_batches->Add(1);
      }
    } else {
      TCSM_CHECK(have_arrival);
      const Timestamp t = dataset.edges[arr].ts;
      while (batch < max_batch && arr + batch < arrivals &&
             dataset.edges[arr + batch].ts == t) {
        ++batch;
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->arrival_batch_ns : nullptr, trace,
            "arrival_batch", "stream", "events", batch);
        context->OnEdgeArrivalBatch(&dataset.edges[arr], batch);
      }
      arr += batch;
      if (stages != nullptr) {
        stages->arrivals->Add(batch);
        stages->arrival_batches->Add(1);
      }
      if (arr == arrivals) {
        // The window is at its fullest right after the last arrival —
        // from here on the graph only shrinks, so sample the high-water
        // point explicitly rather than hoping the cadence lands on it.
        peak.Observe(context->EstimateMemoryBytes(), result.events + batch);
      }
    }
    const size_t before = result.events;
    result.events += batch;
    if (stages != nullptr) {
      stages->live_edges->Set(static_cast<int64_t>(arr - exp));
    }
    if (result.events / sample_every != before / sample_every) {
      peak.Observe(context->EstimateMemoryBytes(), result.events);
    }
    if (reporter.Due(result.events)) {
      reporter.Tick(result.events, arr - exp, context->AggregateCounters());
    }
  }
  peak.Observe(context->EstimateMemoryBytes(), result.events);

  result.elapsed_ms = watch.ElapsedMs();
  const EngineCounters now = context->AggregateCounters();
  result.occurred = now.occurred - base.occurred;
  result.expired = now.expired - base.expired;
  result.adj_entries_scanned =
      now.adj_entries_scanned - base.adj_entries_scanned;
  result.adj_entries_matched =
      now.adj_entries_matched - base.adj_entries_matched;
  result.peak_memory_bytes = peak.peak_bytes();
  result.peak_memory_event_index = peak.peak_event_index();
  result.num_threads = context->num_threads();
  if (config.obs != nullptr) {
    // Publish this run's deltas so a registry snapshot, --json, and
    // BENCH JSON all read one source of truth.
    EngineCounters delta;
    delta.occurred = result.occurred;
    delta.expired = result.expired;
    delta.search_nodes = now.search_nodes - base.search_nodes;
    delta.adj_entries_scanned = result.adj_entries_scanned;
    delta.adj_entries_matched = result.adj_entries_matched;
    config.obs->PublishEngineCounters(delta);
    if (stages != nullptr) {
      stages->peak_bytes->Set(static_cast<int64_t>(result.peak_memory_bytes));
      stages->peak_event_index->Set(
          static_cast<int64_t>(result.peak_memory_event_index));
      stages->live_edges->Set(static_cast<int64_t>(arr - exp));
    }
  }
  context->set_deadline(nullptr);
  return result;
}

}  // namespace tcsm
