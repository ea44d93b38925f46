// Benchmark-side instrumentation around the program's public seams.
//
// Nothing here reaches inside src/: layers are measured from outside by
// timing calls into their public functions.
//
//  * BenchContext<Base> derives from a stream context (SharedStreamContext,
//    ParallelStreamContext or MultiQueryEngine) and overrides the public
//    batch entry points, the virtual EstimateMemoryBytes and the Notify*
//    fan-out seam. It records when the first event was delivered (the end
//    of set-up), paces deliveries on an open-loop schedule (Pacer), and —
//    in traced runs — times batches, fan-outs and the driver's memory
//    samples (LayerProbe).
//  * TimedEngine wraps one engine and times its OnEdgeInserted /
//    OnEdgeExpiring / OnEdgeRemoved calls; it forwards everything else.
//  * BenchSink counts one query's reports and matches.
#ifndef PERFBENCH_CONTEXTS_H_
#define PERFBENCH_CONTEXTS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/shared_context.h"
#include "core/tcm_engine.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return b <= a ? 0
               : static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count());
}

/// Open-loop event source. Each batch falls due at a time mapped linearly
/// from its stream timestamp (an expiry of an edge with timestamp t at
/// t + window); the schedule starts when the first event is delivered and
/// never slows down when the program does. Release waits until the due
/// time (sleep, then spin for the last stretch) and never returns early.
class Pacer {
 public:
  Pacer(double ts_per_s, tcsm::Timestamp window)
      : ns_per_ts_(1e9 / ts_per_s), window_(window) {}

  /// Blocks until the batch whose first event has stream time `ts` is due;
  /// returns its due time. Call Complete before the next Release.
  Clock::time_point Release(tcsm::Timestamp ts, bool expiry);
  /// Records one latency sample per event of the batch: from `due` until
  /// now, i.e. until the program returned from delivering the batch.
  void Complete(Clock::time_point due, size_t events);

  /// Schedule origin: the wall time the first batch fell due.
  Clock::time_point start() const { return start_; }
  const std::vector<uint64_t>& latencies_ns() const { return latencies_ns_; }
  /// Largest wake-up overshoot of the source itself, over batches the
  /// program was ready for before they fell due.
  uint64_t max_source_late_ns() const { return max_source_late_ns_; }
  /// Events of batches the source released more than kSourceLateNs late.
  size_t source_late_events() const { return source_late_events_; }
  size_t batches_waited() const { return batches_waited_; }

  /// Release overshoot beyond which the source, not the program, made a
  /// batch late.
  static constexpr uint64_t kSourceLateNs = 1000000;

 private:
  double ns_per_ts_;
  tcsm::Timestamp window_;
  bool started_ = false;
  Clock::time_point start_;
  tcsm::Timestamp ts0_ = 0;
  std::vector<uint64_t> latencies_ns_;
  uint64_t max_source_late_ns_ = 0;
  size_t source_late_events_ = 0;
  size_t batches_waited_ = 0;
  /// Overshoot of the batch in flight, charged to its events on Complete.
  uint64_t pending_late_ns_ = 0;
};

/// Per-layer accumulators of one traced run. Driver-thread fields are
/// written only by BenchContext; engine fields live in each TimedEngine.
struct LayerProbe {
  tcsm::TraceWriter* trace = nullptr;
  /// Spans are recorded only while fewer than this many exist, so a trace
  /// stays small; the accumulators below cover the whole run.
  size_t max_spans = 0;
  /// Batch (and engine) spans are recorded for one batch in this many, so
  /// the trace samples the whole stream rather than its first moments.
  size_t trace_every = 1;
  /// Index-structure sampling cadence, in delivered events.
  size_t index_sample_every = 1;
  /// Sampled at index-sampling points (outside every timed span):
  /// returns {filter entries, filter bytes, dcs edges, dcs d2, dcs bytes}.
  std::function<std::array<uint64_t, 5>()> sample_indexes;

  // Driver thread.
  uint64_t batches = 0;
  uint64_t batch_events = 0;
  uint64_t batch_ns = 0;
  /// Time inside the context's engine fan-out seam (Notify*), which the
  /// serial contexts call once per event and phase. Batch time outside it
  /// is graph mutation.
  uint64_t fanout_ns = 0;
  uint64_t mem_samples = 0;
  uint64_t mem_sample_ns = 0;
  uint64_t index_bytes_peak = 0;
  uint64_t live_edges_peak = 0;
  std::array<uint64_t, 5> index_peaks{};
  uint64_t last_index_sample = 0;

  /// Event sequence number of the in-flight batch's first event and its
  /// first edge id: engine spans derive their own event's sequence number
  /// (edge ids within a batch are consecutive) so a trace links each
  /// engine span to its batch.
  uint64_t seq = 0;
  tcsm::EdgeId batch_first_id = 0;
  bool tracing_batch = false;

  bool SpanBudgetLeft() const {
    return trace != nullptr && trace->NumSpans() < max_spans;
  }
};

/// What a BenchContext does around each delivery. Owned by the caller so
/// contexts of any base type can be handled through SharedStreamContext*.
struct Instruments {
  Pacer* pacer = nullptr;      // open loop; null = closed loop
  LayerProbe* probe = nullptr;  // traced run; null = untraced
  /// Set at the first delivered batch: the end of set-up.
  bool started = false;
  Clock::time_point first_event;
};

template <typename Base>
class BenchContext : public Base {
 public:
  template <typename... Args>
  explicit BenchContext(Instruments* ins, Args&&... args)
      : Base(std::forward<Args>(args)...), ins_(ins) {}

  void OnEdgeArrivalBatch(const tcsm::TemporalEdge* edges,
                          size_t count) override {
    Deliver(edges, count, false);
  }
  void OnEdgeExpiryBatch(const tcsm::TemporalEdge* edges,
                         size_t count) override {
    Deliver(edges, count, true);
  }

  size_t EstimateMemoryBytes() const override {
    if (ins_->probe == nullptr) return Base::EstimateMemoryBytes();
    const Clock::time_point t0 = Clock::now();
    const size_t bytes = Base::EstimateMemoryBytes();
    const Clock::time_point t1 = Clock::now();
    LayerProbe& p = *ins_->probe;
    ++p.mem_samples;
    p.mem_sample_ns += NsBetween(t0, t1);
    if (bytes > p.index_bytes_peak) p.index_bytes_peak = bytes;
    if (p.SpanBudgetLeft()) {
      p.trace->Emit("mem_sample", "driver", p.trace->ToNs(t0),
                    NsBetween(t0, t1), "seq", p.seq);
    }
    return bytes;
  }

 protected:
  void NotifyInserted(const tcsm::TemporalEdge& ed) override {
    Fanout([&] { Base::NotifyInserted(ed); });
  }
  void NotifyExpiring(const tcsm::TemporalEdge& ed) override {
    Fanout([&] { Base::NotifyExpiring(ed); });
  }
  void NotifyRemoved(const tcsm::TemporalEdge& ed) override {
    Fanout([&] { Base::NotifyRemoved(ed); });
  }

 private:
  template <typename F>
  void Fanout(F notify) {
    if (ins_->probe == nullptr) {
      notify();
      return;
    }
    const Clock::time_point t0 = Clock::now();
    notify();
    ins_->probe->fanout_ns += NsBetween(t0, Clock::now());
  }

  void Deliver(const tcsm::TemporalEdge* edges, size_t count, bool expiry) {
    Clock::time_point due;
    if (ins_->pacer != nullptr) due = ins_->pacer->Release(edges[0].ts, expiry);
    if (!ins_->started) {
      ins_->started = true;
      ins_->first_event = Clock::now();
    }
    if (ins_->probe == nullptr) {
      Call(edges, count, expiry);
    } else {
      Traced(edges, count, expiry);
    }
    if (ins_->pacer != nullptr) ins_->pacer->Complete(due, count);
  }

  void Call(const tcsm::TemporalEdge* edges, size_t count, bool expiry) {
    if (expiry) {
      Base::OnEdgeExpiryBatch(edges, count);
    } else {
      Base::OnEdgeArrivalBatch(edges, count);
    }
  }

  void Traced(const tcsm::TemporalEdge* edges, size_t count, bool expiry) {
    LayerProbe& p = *ins_->probe;
    p.batch_first_id = edges[0].id;
    p.tracing_batch = p.batches % p.trace_every == 0 && p.SpanBudgetLeft();
    const Clock::time_point t0 = Clock::now();
    Call(edges, count, expiry);
    const Clock::time_point t1 = Clock::now();
    p.batch_ns += NsBetween(t0, t1);
    ++p.batches;
    p.batch_events += count;
    if (p.tracing_batch) {
      p.trace->Emit(expiry ? "expiry_batch" : "arrival_batch", "driver",
                    p.trace->ToNs(t0), NsBetween(t0, t1), "seq", p.seq);
    }
    p.seq += count;
    const uint64_t live = this->graph().NumAliveEdges();
    if (live > p.live_edges_peak) p.live_edges_peak = live;
    if (p.sample_indexes &&
        p.seq - p.last_index_sample >= p.index_sample_every) {
      p.last_index_sample = p.seq;
      const std::array<uint64_t, 5> now = p.sample_indexes();
      for (size_t i = 0; i < now.size(); ++i) {
        if (now[i] > p.index_peaks[i]) p.index_peaks[i] = now[i];
      }
    }
  }

  Instruments* ins_;
};

/// True on a thread while it runs a TimedEngine hook.
inline thread_local bool t_in_engine = false;

/// Counts one query's sink traffic: reports (OnMatch calls) and matches
/// (the sum of multiplicities), split by kind. Accepts factored reports,
/// like the program's own CountingSink. When `timed`, it also clocks the
/// reports it receives outside any engine hook — the fan-out draining its
/// per-engine buffers.
class BenchSink : public tcsm::MatchSink {
 public:
  explicit BenchSink(bool timed = false) : timed_(timed) {}
  bool wants_each_embedding() const override { return false; }
  void OnMatch(const tcsm::Embedding&, tcsm::MatchKind kind,
               uint64_t multiplicity) override {
    const bool clocked = timed_ && !t_in_engine;
    const Clock::time_point t0 = clocked ? Clock::now() : Clock::time_point();
    ++reports_;
    (kind == tcsm::MatchKind::kOccurred ? occurred_ : expired_) +=
        multiplicity;
    if (clocked) drain_ns_ += NsBetween(t0, Clock::now());
  }
  uint64_t reports() const { return reports_; }
  uint64_t occurred() const { return occurred_; }
  uint64_t expired() const { return expired_; }
  uint64_t drain_ns() const { return drain_ns_; }

 private:
  bool timed_;
  uint64_t reports_ = 0;
  uint64_t occurred_ = 0;
  uint64_t expired_ = 0;
  uint64_t drain_ns_ = 0;
};

/// Times one wrapped TcmEngine's notification hooks. The inner engine
/// reports into a forwarding sink that follows whatever sink the context
/// installs on the wrapper (ParallelStreamContext interposes its
/// per-engine buffers there), so match routing is unchanged.
class TimedEngine : public tcsm::ContinuousEngine {
 public:
  TimedEngine(std::unique_ptr<tcsm::TcmEngine> inner, LayerProbe* probe);

  std::string name() const override { return inner_->name(); }
  void OnEdgeInserted(const tcsm::TemporalEdge& ed) override;
  void OnEdgeExpiring(const tcsm::TemporalEdge& ed) override;
  void OnEdgeRemoved(const tcsm::TemporalEdge& ed) override;
  size_t EstimateMemoryBytes() const override {
    return inner_->EstimateMemoryBytes();
  }
  bool overflowed() const override { return inner_->overflowed(); }

  tcsm::TcmEngine& inner() { return *inner_; }
  uint64_t notify_ns() const { return notify_ns_; }

 private:
  class Forward : public tcsm::MatchSink {
   public:
    explicit Forward(const TimedEngine* owner) : owner_(owner) {}
    bool wants_each_embedding() const override {
      return owner_->sink() != nullptr &&
             owner_->sink()->wants_each_embedding();
    }
    void OnMatch(const tcsm::Embedding& e, tcsm::MatchKind kind,
                 uint64_t multiplicity) override {
      if (owner_->sink() != nullptr) {
        owner_->sink()->OnMatch(e, kind, multiplicity);
      }
    }

   private:
    const TimedEngine* owner_;
  };

  template <typename Hook>
  void Timed(const char* span, const tcsm::TemporalEdge& ed, Hook hook);

  std::unique_ptr<tcsm::TcmEngine> inner_;
  Forward forward_;
  LayerProbe* probe_;
  uint64_t notify_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CONTEXTS_H_
