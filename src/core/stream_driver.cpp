#include "core/stream_driver.h"

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "common/timer.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"

namespace tcsm {

Status DriveStream(const EventSource& source, const StreamConfig& config,
                   SharedStreamContext* context, StreamResult* result) {
  // ts + window is formed in signed 64-bit; with |ts| and the window both
  // capped, it cannot overflow.
  if (source.window > kMaxStreamTimestamp) {
    return Status::InvalidArgument(
        "window too large (must stay below 2^61 so ts + window cannot "
        "overflow)");
  }
  const bool explicit_mode = source.window == 0;

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
  // A sample costs a DCS walk per engine (DESIGN.md §7). A source that
  // knows its length gets ~32 samples across its ~2 * arrivals events; a
  // file's length is unknown up front, so it is sampled every 64 events.
  const size_t known =
      config.max_arrivals == 0
          ? source.known_arrivals
          : std::min(source.known_arrivals, config.max_arrivals);
  const size_t sample_every =
      known > 0 ? std::max<size_t>(1, known * 2 / 32) : 64;
  const size_t max_batch =
      config.max_batch == 0 ? kDefaultMaxBatch : config.max_batch;

  PeakMeter peak;
  StopWatch watch;
  const EngineCounters base = context->AggregateCounters();

  // FIFO of delivered-but-not-expired edges: the O(window) live state.
  std::deque<TemporalEdge> live;
  StreamRecord pending;
  bool has_pending = false;
  bool stopped = false;    // no further reads (end of stream or arrival cap)
  bool truncated = false;  // stopped by the cap, not by the stream ending
  size_t arrivals = 0;
  Timestamp last_ts = kMinusInfinity;

  const auto pull = [&]() -> Status {
    if (has_pending || stopped) return Status::Ok();
    if (config.max_arrivals > 0 && arrivals >= config.max_arrivals) {
      // Rate control: stop consuming the stream; live edges still expire.
      stopped = truncated = true;
      return Status::Ok();
    }
    bool done = false;
    const Status s = source.next(&pending, &done);
    if (!s.ok() || done) {
      stopped = done;
      return s;
    }
    // The .tel reader already checks these; an in-memory dataset reaches
    // the loop unchecked. Refuse what would overflow ts + window or break
    // the FIFO expiry order.
    const Timestamp ts = pending.edge.ts;
    if (ts < last_ts || ts < -kMaxStreamTimestamp || ts > kMaxStreamTimestamp) {
      return Status::InvalidArgument(
          "timestamp " + std::to_string(ts) + " after " +
          std::to_string(last_ts) +
          ": timestamps must be non-decreasing with |ts| below 2^61");
    }
    last_ts = ts;
    has_pending = true;
    return Status::Ok();
  };

  // Scratch for coalesced deliveries (DESIGN.md §9): consecutive
  // same-timestamp events of one kind handed to the context as a batch.
  std::vector<TemporalEdge> batch;
  bool high_water_sampled = false;

  Status s = pull();
  while (s.ok()) {
    if (deadline.ExpiredNow() || context->overflowed()) {
      result->completed = false;
      break;
    }
    if (stopped && !high_water_sampled) {
      // No more arrivals: the window is at its fullest right now, before
      // the remaining expirations shrink it. Sample the high-water point
      // explicitly rather than hoping the cadence lands on it.
      peak.Observe(context->EstimateMemoryBytes(), result->events);
      high_water_sampled = true;
    }
    const bool explicit_expiry =
        has_pending && pending.kind == StreamRecord::Kind::kExpiry;
    const bool have_arrival = has_pending && !explicit_expiry;
    // Explicit records carry their own schedule, and a truncated run
    // drains the live FIFO so every delivered arrival still expires.
    // Derived expirations go first on ties.
    const bool expire =
        explicit_mode
            ? explicit_expiry || (truncated && !live.empty())
            : !live.empty() &&
                  (!have_arrival ||
                   live.front().ts + source.window <= pending.edge.ts);
    if (expire) {
      TCSM_CHECK(!live.empty());
      batch.assign(1, live.front());
      live.pop_front();
      if (explicit_expiry) has_pending = false;
      // Derived mode: same arrival timestamp means same expiry time, so
      // the front run of equal-ts live edges expires together. One
      // explicit record is one expiry, never coalesced.
      while (!explicit_mode && batch.size() < max_batch && !live.empty() &&
             live.front().ts == batch.front().ts) {
        batch.push_back(live.front());
        live.pop_front();
      }
    } else if (have_arrival) {
      // Pull ahead to coalesce consecutive same-timestamp arrivals. An
      // arrival batch never needs an expiration between its members
      // (window > 0), so this never reorders the two queues. Stops at the
      // batch cap, a kind or timestamp change, the end of the stream or a
      // read error — which surfaces after the batch so far is delivered.
      batch.clear();
      do {
        batch.push_back(pending.edge);
        has_pending = false;
        ++arrivals;
        if (batch.size() == max_batch) break;
        s = pull();
      } while (s.ok() && has_pending &&
               pending.kind == StreamRecord::Kind::kArrival &&
               pending.edge.ts == batch.front().ts);
      if (source.on_arrival) {
        for (const TemporalEdge& e : batch) source.on_arrival(e);
      }
      live.insert(live.end(), batch.begin(), batch.end());
    } else {
      break;  // stream exhausted and nothing left to expire
    }
    {
      const ScopedStage span(
          stages == nullptr ? nullptr
          : expire          ? stages->expiry_batch_ns
                            : stages->arrival_batch_ns,
          trace, expire ? "expiry_batch" : "arrival_batch", "stream",
          "events", batch.size());
      if (expire) {
        context->OnEdgeExpiryBatch(batch.data(), batch.size());
      } else {
        context->OnEdgeArrivalBatch(batch.data(), batch.size());
      }
    }
    const size_t before = result->events;
    result->events += batch.size();
    if (stages != nullptr) {
      (expire ? stages->expirations : stages->arrivals)->Add(batch.size());
      (expire ? stages->expiry_batches : stages->arrival_batches)->Add(1);
      stages->live_edges->Set(static_cast<int64_t>(live.size()));
    }
    if (result->events / sample_every != before / sample_every) {
      peak.Observe(context->EstimateMemoryBytes(), result->events);
    }
    if (reporter.Due(result->events)) {
      reporter.Tick(result->events, live.size(),
                    context->AggregateCounters());
    }
    if (s.ok()) s = pull();
  }
  context->set_deadline(nullptr);
  if (!s.ok()) return s;
  peak.Observe(context->EstimateMemoryBytes(), result->events);

  result->elapsed_ms = watch.ElapsedMs();
  // Deltas of the counters the result and the registry report.
  EngineCounters delta = context->AggregateCounters();
  delta.occurred -= base.occurred;
  delta.expired -= base.expired;
  delta.search_nodes -= base.search_nodes;
  delta.adj_entries_scanned -= base.adj_entries_scanned;
  delta.adj_entries_matched -= base.adj_entries_matched;
  result->occurred = delta.occurred;
  result->expired = delta.expired;
  result->adj_entries_scanned = delta.adj_entries_scanned;
  result->adj_entries_matched = delta.adj_entries_matched;
  result->peak_memory_bytes = peak.peak_bytes();
  result->peak_memory_event_index = peak.peak_event_index();
  result->num_threads = context->num_threads();
  if (config.obs != nullptr) {
    // Publish this run's deltas so a registry snapshot, --json, and
    // BENCH JSON all read one source of truth.
    config.obs->PublishEngineCounters(delta);
    if (stages != nullptr) {
      stages->peak_bytes->Set(static_cast<int64_t>(result->peak_memory_bytes));
      stages->peak_event_index->Set(
          static_cast<int64_t>(result->peak_memory_event_index));
      stages->live_edges->Set(static_cast<int64_t>(live.size()));
    }
  }
  return Status::Ok();
}

StreamResult RunStream(const TemporalDataset& dataset,
                       const StreamConfig& config,
                       SharedStreamContext* context) {
  TCSM_CHECK(config.window > 0);
  size_t next = 0;
  EventSource source;
  source.window = config.window;
  source.known_arrivals = dataset.edges.size();
  source.next = [&](StreamRecord* record, bool* done) {
    *done = next == dataset.edges.size();
    if (!*done) {
      *record = {StreamRecord::Kind::kArrival, dataset.edges[next++]};
    }
    return Status::Ok();
  };
  StreamResult result;
  result.error = DriveStream(source, config, context, &result);
  result.completed = result.completed && result.error.ok();
  return result;
}

}  // namespace tcsm
