#include "exec/thread_pool.h"

#include <utility>

#include "common/logging.h"

namespace tcsm {

namespace {

/// How long an idle worker spins for the next job before it parks. The
/// driver's work between two fan-out phases (graph mutation, sink drain)
/// takes microseconds, so a spinning worker usually catches the next phase
/// without a futex wake-up.
constexpr std::chrono::microseconds kIdleSpin{100};
/// How long the caller spins for the stragglers of a job before it parks.
constexpr std::chrono::microseconds kDrainSpin{1000};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Layout of ThreadPool::job_: the count of workers inside the job in the
// low 16 bits, the closed flag above it, the job id in the rest.
constexpr uint32_t kActiveMask = (uint32_t{1} << 16) - 1;
constexpr uint32_t kClosed = uint32_t{1} << 16;
constexpr int kIdShift = 17;

uint32_t NextJobId(uint32_t word) { return ((word >> kIdShift) + 1) << kIdShift; }

bool FitsOnCores(size_t num_threads) {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores != 0 && num_threads <= cores;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : spin_(FitsOnCores(num_threads)),
      slices_(num_threads > 1 ? num_threads : 0) {
  if (num_threads <= 1) return;
  TCSM_CHECK(num_threads - 1 <= kActiveMask);
  workers_.reserve(num_threads - 1);
  try {
    for (size_t t = 1; t < num_threads; ++t) {
      workers_.emplace_back([this, t] { WorkerLoop(t); });
    }
  } catch (...) {
    // Thread exhaustion (std::system_error): shut down the workers that
    // did start, then surface the error as a catchable exception instead
    // of letting ~vector terminate on joinable threads.
    Shutdown();
    throw;
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  job_.store(NextJobId(job_.load()) | kClosed);
  job_.notify_all();
  for (std::thread& w : workers_) w.join();
}

template <typename Pred>
uint32_t ThreadPool::AwaitJob(Pred ok, std::chrono::nanoseconds spin) const {
  uint32_t word = job_.load(std::memory_order_acquire);
  if (ok(word)) return word;
  if (spin_) {
    const auto deadline = std::chrono::steady_clock::now() + spin;
    do {
      for (int i = 0; i < 64; ++i) {
        CpuRelax();
        word = job_.load(std::memory_order_acquire);
        if (ok(word)) return word;
      }
    } while (std::chrono::steady_clock::now() < deadline);
  }
  while (!ok(word)) {
    job_.wait(word, std::memory_order_acquire);
    word = job_.load(std::memory_order_acquire);
  }
  return word;
}

void ThreadPool::RunShard(size_t self) {
  const size_t participants = slices_.size();
  for (size_t k = 0; k < participants; ++k) {
    Slice& slice = slices_[(self + k) % participants];  // k = 0: home
    // Load before claiming: an exhausted victim costs a shared read, not
    // a read-modify-write that pulls its cache line away from its owner.
    while (slice.next.load(std::memory_order_relaxed) < slice.end) {
      const size_t i = slice.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= slice.end) break;
      try {
        (*body_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
        // Cancel the indices nobody claimed yet; bodies already running
        // finish first (the barrier still holds).
        for (Slice& s : slices_) s.next.store(s.end, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::WorkerLoop(size_t self) {
  uint32_t seen = 0;  // id of the last job this worker looked at
  for (;;) {
    uint32_t word =
        AwaitJob([&](uint32_t w) { return w >> kIdShift != seen; }, kIdleSpin);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Join the job unless the caller has closed it already.
    seen = word >> kIdShift;
    bool joined = false;
    while ((word & kClosed) == 0 && !joined) {
      joined = job_.compare_exchange_weak(word, word + 1,
                                          std::memory_order_acquire);
      if (word >> kIdShift != seen) break;  // moved on to a newer job
    }
    if (!joined) continue;
    RunShard(self);
    // The last worker out of a closed job wakes the caller if it parked.
    if ((job_.fetch_sub(1) & (kClosed | kActiveMask)) == (kClosed | 1)) {
      job_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline bypass: with no workers, or a single index that one thread
    // would claim anyway, waking the pool buys nothing — the body runs
    // on the caller with no pool machinery at all.
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const size_t participants = slices_.size();
  for (size_t p = 0; p < participants; ++p) {
    slices_[p].next.store(p * n / participants, std::memory_order_relaxed);
    slices_[p].end = (p + 1) * n / participants;
  }
  body_ = &body;
  first_error_ = nullptr;
  job_.store(NextJobId(job_.load(std::memory_order_relaxed)));  // open
  job_.notify_all();
  RunShard(0);  // the caller thread claims indices too
  // Every index is claimed: close the job to latecomers and wait for the
  // workers still inside it.
  job_.fetch_or(kClosed);
  AwaitJob([](uint32_t w) { return (w & kActiveMask) == 0; }, kDrainSpin);
  body_ = nullptr;
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

}  // namespace tcsm
