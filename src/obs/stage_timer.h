// RAII stage timing helpers bridging the hot paths to the metrics
// registry and the trace writer (DESIGN.md §11).
//
// Both helpers honor the no-op contract: with null handles they never
// read the clock, so an instrumented site with observability off costs
// two pointer tests.
#ifndef TCSM_OBS_STAGE_TIMER_H_
#define TCSM_OBS_STAGE_TIMER_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tcsm {

namespace obs_internal {

inline uint64_t DurationNs(std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end) {
  return end < start
             ? 0
             : static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       end - start)
                       .count());
}

}  // namespace obs_internal

/// Times one scope: on destruction observes the elapsed nanoseconds into
/// `hist` (if non-null) and emits a trace span (if `trace` non-null).
/// `name`/`cat`/`arg_key` must be string literals.
class ScopedStage {
 public:
  ScopedStage(Histogram* hist, TraceWriter* trace, const char* name,
              const char* cat, const char* arg_key = nullptr,
              uint64_t arg_value = 0)
      : hist_(hist),
        trace_(trace),
        name_(name),
        cat_(cat),
        arg_key_(arg_key),
        arg_value_(arg_value) {
    if (hist_ != nullptr || trace_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  ~ScopedStage() {
    if (hist_ == nullptr && trace_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const uint64_t dur = obs_internal::DurationNs(start_, end);
    if (hist_ != nullptr) hist_->Observe(dur);
    if (trace_ != nullptr) {
      trace_->Emit(name_, cat_, trace_->ToNs(start_), dur, arg_key_,
                   arg_value_);
    }
  }

 private:
  Histogram* const hist_;
  TraceWriter* const trace_;
  const char* const name_;
  const char* const cat_;
  const char* const arg_key_;
  const uint64_t arg_value_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tcsm

#endif  // TCSM_OBS_STAGE_TIMER_H_
