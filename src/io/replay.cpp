#include "io/replay.h"

#include <deque>

#include "common/logging.h"
#include "common/memory_meter.h"
#include "common/timer.h"
#include "io/flight_recorder.h"
#include "obs/observability.h"
#include "obs/stage_timer.h"
#include "obs/stats_reporter.h"

namespace tcsm {

StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context) {
  const bool explicit_mode = reader->header().explicit_expiry;
  Timestamp window = options.window > 0 ? options.window
                                        : reader->header().window;
  if (!explicit_mode && window <= 0) {
    return Status::InvalidArgument(
        reader->source() +
        ": no expiry window (pass one explicitly or record window= in the "
        "header)");
  }
  if (!explicit_mode && window > kMaxTelTimestamp) {
    // Same bound the reader enforces on timestamps: ts + window must not
    // overflow, however the window reached us. (Explicit-expiry streams
    // never form that sum — their window is ignored entirely.)
    return Status::InvalidArgument("window too large (must stay below 2^61)");
  }

  StreamResult result;
  Deadline deadline(options.time_limit_ms);
  context->set_deadline(options.time_limit_ms > 0 ? &deadline : nullptr);
  context->set_observability(options.obs);
  const StageMetrics* const stages =
      options.obs != nullptr ? &options.obs->stages() : nullptr;
  reader->set_stage_metrics(stages);
  TraceWriter* const trace =
      options.obs != nullptr ? options.obs->trace() : nullptr;
  StatsReporter reporter(options.obs, options.stats_every, options.stats_json,
                         options.stats_out);
  const size_t sample_every =
      options.memory_sample_every > 0 ? options.memory_sample_every : 64;
  const size_t max_batch =
      options.max_batch == 0 ? kDefaultMaxBatch : options.max_batch;

  PeakMeter peak;
  StopWatch watch;
  const EngineCounters base = context->AggregateCounters();

  // FIFO of delivered-but-not-expired edges: the O(window) live state.
  std::deque<TemporalEdge> live;
  StreamRecord pending;
  bool has_pending = false;
  bool stopped = false;    // no further reads (EOF or arrival cap)
  bool truncated = false;  // stopped by the cap, not by the file ending
  size_t arrivals = 0;
  // After SeekToTimestamp the index supplies the count of skipped
  // arrivals, so ids in the suffix match the full replay's exactly.
  EdgeId next_id = static_cast<EdgeId>(reader->first_arrival_index());

  const auto pull = [&]() -> Status {
    if (has_pending || stopped) return Status::Ok();
    bool done = false;
    const Status s = reader->Next(&pending, &done);
    if (!s.ok()) return s;
    if (done) {
      stopped = true;
    } else {
      has_pending = true;
    }
    return Status::Ok();
  };

  // Scratch for coalesced deliveries (DESIGN.md §9): consecutive
  // same-timestamp events of one kind handed to the context as a batch.
  std::vector<TemporalEdge> batch;
  bool high_water_sampled = false;

  Status s = pull();
  while (s.ok()) {
    if (deadline.ExpiredNow() || context->overflowed()) {
      result.completed = false;
      break;
    }
    if (options.max_arrivals > 0 && arrivals >= options.max_arrivals &&
        !stopped) {
      // Rate control: stop consuming the stream; live edges still expire.
      has_pending = false;
      stopped = true;
      truncated = true;
    }
    if (stopped && !high_water_sampled) {
      // No more arrivals: the window is at its fullest right now, before
      // the remaining expirations shrink it. Sample the high-water point
      // explicitly rather than hoping the cadence lands on it.
      peak.Observe(context->EstimateMemoryBytes(), result.events);
      high_water_sampled = true;
    }
    const bool have_arrival =
        has_pending && pending.kind == StreamRecord::Kind::kArrival;
    bool do_expire;
    if (explicit_mode) {
      // The file carries its own schedule; a truncated run (cap hit)
      // drains the live FIFO so every delivered arrival still expires.
      do_expire =
          (has_pending && pending.kind == StreamRecord::Kind::kExpiry) ||
          (stopped && truncated && !live.empty());
    } else {
      do_expire = !live.empty() &&
                  (!have_arrival ||
                   live.front().ts + window <= pending.edge.ts);
    }
    if (do_expire) {
      TCSM_CHECK(!live.empty());
      batch.clear();
      batch.push_back(live.front());
      live.pop_front();
      if (has_pending && pending.kind == StreamRecord::Kind::kExpiry) {
        // One explicit record = one expiry; never coalesced.
        has_pending = false;
      } else if (!explicit_mode) {
        // Derived mode: same arrival timestamp means same expiry time, so
        // the front run of equal-ts live edges expires together.
        const Timestamp t = batch.front().ts;
        while (batch.size() < max_batch && !live.empty() &&
               live.front().ts == t) {
          batch.push_back(live.front());
          live.pop_front();
        }
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->expiry_batch_ns : nullptr, trace,
            "expiry_batch", "stream", "events", batch.size());
        context->OnEdgeExpiryBatch(batch.data(), batch.size());
      }
      if (stages != nullptr) {
        stages->expirations->Add(batch.size());
        stages->expiry_batches->Add(1);
      }
    } else if (have_arrival) {
      batch.clear();
      pending.edge.id = next_id++;
      batch.push_back(pending.edge);
      has_pending = false;
      ++arrivals;
      // Pull ahead to coalesce consecutive same-timestamp arrivals. Stops
      // at the arrival cap, a kind or timestamp change, or a read error —
      // in which case the batch accumulated so far is delivered before
      // the error surfaces.
      while (batch.size() < max_batch &&
             (options.max_arrivals == 0 || arrivals < options.max_arrivals)) {
        s = pull();
        if (!s.ok() || !has_pending ||
            pending.kind != StreamRecord::Kind::kArrival ||
            pending.edge.ts != batch.front().ts) {
          break;
        }
        pending.edge.id = next_id++;
        batch.push_back(pending.edge);
        has_pending = false;
        ++arrivals;
      }
      if (options.recorder != nullptr) {
        for (const TemporalEdge& e : batch) options.recorder->Record(e);
      }
      {
        const ScopedStage span(
            stages != nullptr ? stages->arrival_batch_ns : nullptr, trace,
            "arrival_batch", "stream", "events", batch.size());
        context->OnEdgeArrivalBatch(batch.data(), batch.size());
      }
      if (stages != nullptr) {
        stages->arrivals->Add(batch.size());
        stages->arrival_batches->Add(1);
      }
      live.insert(live.end(), batch.begin(), batch.end());
      if (!s.ok()) break;
    } else {
      break;  // stream exhausted and nothing left to expire
    }
    const size_t before = result.events;
    result.events += batch.size();
    if (stages != nullptr) {
      stages->live_edges->Set(static_cast<int64_t>(live.size()));
    }
    if (result.events / sample_every != before / sample_every) {
      peak.Observe(context->EstimateMemoryBytes(), result.events);
    }
    if (reporter.Due(result.events)) {
      reporter.Tick(result.events, live.size(), context->AggregateCounters());
    }
    s = pull();
  }
  context->set_deadline(nullptr);
  if (!s.ok()) return s;
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
  if (options.obs != nullptr) {
    EngineCounters delta;
    delta.occurred = result.occurred;
    delta.expired = result.expired;
    delta.search_nodes = now.search_nodes - base.search_nodes;
    delta.adj_entries_scanned = result.adj_entries_scanned;
    delta.adj_entries_matched = result.adj_entries_matched;
    options.obs->PublishEngineCounters(delta);
    if (stages != nullptr) {
      stages->peak_bytes->Set(static_cast<int64_t>(result.peak_memory_bytes));
      stages->peak_event_index->Set(
          static_cast<int64_t>(result.peak_memory_event_index));
      stages->live_edges->Set(static_cast<int64_t>(live.size()));
    }
  }
  return result;
}

}  // namespace tcsm
