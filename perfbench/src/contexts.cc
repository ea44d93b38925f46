#include "contexts.h"

#include <thread>

namespace perfbench {

using namespace tcsm;

namespace {

// Sleeping is coarse and lets the core drop into idle states; the source
// spins through the last 2 ms so it releases within a microsecond or so of
// the due time, onto a core that stayed busy.
constexpr auto kSpinWindow = std::chrono::milliseconds(2);

}  // namespace

Clock::time_point Pacer::Release(Timestamp ts, bool expiry) {
  const Timestamp t = expiry ? ts + window_ : ts;
  if (!started_) {
    started_ = true;
    start_ = Clock::now();
    ts0_ = t;
  }
  const Clock::time_point due =
      start_ + std::chrono::nanoseconds(static_cast<int64_t>(
                   static_cast<double>(t - ts0_) * ns_per_ts_));
  Clock::time_point now = Clock::now();
  pending_late_ns_ = 0;
  if (now < due) {
    ++batches_waited_;
    if (due - now > kSpinWindow) {
      std::this_thread::sleep_until(due - kSpinWindow);
    }
    do {
      now = Clock::now();
    } while (now < due);
    pending_late_ns_ = NsBetween(due, now);
    if (pending_late_ns_ > max_source_late_ns_) {
      max_source_late_ns_ = pending_late_ns_;
    }
  }
  return due;
}

void Pacer::Complete(Clock::time_point due, size_t events) {
  const uint64_t latency = NsBetween(due, Clock::now());
  latencies_ns_.insert(latencies_ns_.end(), events, latency);
  if (pending_late_ns_ > kSourceLateNs) source_late_events_ += events;
}

TimedEngine::TimedEngine(std::unique_ptr<TcmEngine> inner, LayerProbe* probe)
    : inner_(std::move(inner)), forward_(this), probe_(probe) {
  inner_->set_sink(&forward_);
}

template <typename Hook>
void TimedEngine::Timed(const char* span, const TemporalEdge& ed, Hook hook) {
  // The context installs stage metrics on the wrapper; pass them on so
  // the engine's own phase histograms still fill.
  inner_->set_stage_metrics(stage_metrics_);
  t_in_engine = true;
  const Clock::time_point t0 = Clock::now();
  hook();
  const Clock::time_point t1 = Clock::now();
  t_in_engine = false;
  notify_ns_ += NsBetween(t0, t1);
  counters_ = inner_->counters();
  if (probe_->tracing_batch) {
    probe_->trace->Emit(span, "engine", probe_->trace->ToNs(t0),
                        NsBetween(t0, t1), "seq",
                        probe_->seq + (ed.id - probe_->batch_first_id));
  }
}

void TimedEngine::OnEdgeInserted(const TemporalEdge& ed) {
  Timed("engine_insert", ed, [&] { inner_->OnEdgeInserted(ed); });
}

void TimedEngine::OnEdgeExpiring(const TemporalEdge& ed) {
  Timed("engine_expiring", ed, [&] { inner_->OnEdgeExpiring(ed); });
}

void TimedEngine::OnEdgeRemoved(const TemporalEdge& ed) {
  Timed("engine_removed", ed, [&] { inner_->OnEdgeRemoved(ed); });
}

}  // namespace perfbench
