// Persistent worker pool for the parallel execution subsystem. One pool
// is created per ParallelStreamContext and reused across every stream
// event, so the per-phase cost is a hand-off + barrier, not thread
// creation. The one primitive is a blocking ParallelFor: fan a loop body
// out over the workers plus the calling thread, wait for every claimed
// index to finish, and rethrow the first exception on the caller.
//
// Dispatch (DESIGN.md §6): the caller publishes a job with a release
// store of a new job id into one atomic word, workers join it by
// incrementing that word's count and leave by decrementing it, and the
// caller acquires a zero count — a phase needs no mutex. Each participant
// owns a contiguous home slice of the index range — the same engines on
// the same thread phase after phase — drains it, then steals from the
// others. Between jobs, workers spin briefly before parking in an atomic
// wait; when the participants outnumber the cores nobody spins. With
// `num_threads <= 1` no workers are spawned at all and ParallelFor runs
// the body inline on the caller thread (the serial fast path — contexts
// constructed with one thread behave exactly like serial code).
#ifndef TCSM_EXEC_THREAD_POOL_H_
#define TCSM_EXEC_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcsm {

class ThreadPool {
 public:
  /// `num_threads` is the total parallelism including the thread that
  /// calls ParallelFor: `num_threads - 1` workers are spawned, none for
  /// `num_threads <= 1`.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the caller thread (>= 1).
  size_t num_threads() const { return workers_.size() + 1; }
  /// True when worker threads exist; false in the inline bypass mode.
  bool pooled() const { return !workers_.empty(); }

  /// Runs body(0) ... body(n-1) on the calling thread and the workers
  /// that join in time, and returns once every claimed index has completed
  /// (a full completion barrier — no body is still running when this
  /// returns). Participant p of P claims its home slice [p*n/P,
  /// (p+1)*n/P) first, the caller being participant 0, then steals
  /// unclaimed indices from the other slices. A worker that is not
  /// running when the job opens cannot hold it up: once every index is
  /// claimed the job closes, and a latecomer skips it.
  /// If a body throws, indices not yet claimed may be skipped and the
  /// first exception is rethrown to the caller after the barrier. Without
  /// workers — and for single-index jobs, where waking the pool buys
  /// nothing — the loop runs inline on the caller thread (exceptions then
  /// propagate directly). Not reentrant: a body must not call ParallelFor
  /// on the same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  /// One participant's claim cursor over its home slice [next, end),
  /// alone on its cache line so claims on different slices never contend.
  struct alignas(64) Slice {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  void WorkerLoop(size_t self);
  /// Drains participant `self`'s home slice, then steals from the other
  /// slices until every index of the job is claimed; captures the first
  /// exception and cancels the unclaimed indices.
  void RunShard(size_t self);
  /// Waits until `ok(job word)` holds and returns that word: spins with a
  /// CPU pause for up to `spin` (not at all when oversubscribed), then
  /// parks in an atomic wait on the job word.
  template <typename Pred>
  uint32_t AwaitJob(Pred ok, std::chrono::nanoseconds spin) const;
  /// Wakes every worker and joins them.
  void Shutdown();

  /// Spin before parking only when every participant can have a core.
  const bool spin_;

  // The current job. Written by the caller only while no worker is inside
  // a job (before the job opens, after its count drops to zero), read by
  // the workers that joined it.
  const std::function<void(size_t)>* body_ = nullptr;
  std::vector<Slice> slices_;  // one per participant; [0] is the caller's
  std::mutex error_mu_;
  std::exception_ptr first_error_;  // guarded by error_mu_ while a job runs

  /// The job word: job id in the high bits, then a closed flag, then the
  /// number of workers inside the job. The caller opens a job with one
  /// release store of a new id; a worker joins by a CAS that increments
  /// the count while the job is open and leaves with a release decrement;
  /// the caller closes the job once every index is claimed and acquires a
  /// zero count. A worker that comes late finds the job closed and skips
  /// it, so no job waits for a worker that is not running. Parked threads
  /// sleep in an atomic wait on this word. 32 bits, so the wait is a
  /// futex on the word itself; the id wraps, which can at worst let a
  /// worker sleep through a job that then runs without it.
  alignas(64) std::atomic<uint32_t> job_{0};
  std::atomic<bool> stop_{false};

  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace tcsm

#endif  // TCSM_EXEC_THREAD_POOL_H_
