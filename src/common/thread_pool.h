// Fixed-size thread pool with fixed ownership: parallel_for(n, fn) always
// runs index i on worker i % size(), and the calling thread is worker 0.
//
// Ownership is the point. A federated round runs participant i's local
// training step on the same worker every round, so the buffers that step
// keeps alive between rounds (the replica's layer caches, the conv
// kernels' thread-local workspaces) are allocated, freed and reused by
// one thread and stay in one malloc arena. A shared task queue would
// scatter them across the arenas of every worker and fragment the heap
// (DESIGN.md §5.7). Fixed ownership also makes a worker's profiler tree
// and thread-local state a function of the index set alone, not of
// scheduling.
//
// Contract:
//   * every index in [0, n) runs exactly once, even when some throw;
//   * after the join, the exception of the lowest throwing index is
//     rethrown;
//   * ThreadPool(1) starts no thread: the caller runs every index inline;
//   * concurrent callers take turns, one parallel_for at a time; fn must
//     not call back into the same pool (that throws CheckError);
//   * each worker opens its profiler zones beneath the caller's open zone
//     (src/obs/profile.h), so a parallel phase profiles under the same
//     paths as a serial one.
//
// shared_thread_pool(n) below hands out process-wide pools that live until
// exit, so worker threads (and their arenas) outlive any one search.
//
// A pool with more than one worker also stops glibc from trimming its
// arenas (retain_arena_memory below, DESIGN.md §5.7).
//
// Locking discipline is compile-time-checked via the thread-safety
// annotations (src/common/thread_annotations.h): the job slot and the
// generation/stop/pending counters are guarded by mu_, callers are
// serialized by call_mu_, and the clang CI jobs fail on any unguarded
// access.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/check.h"
#include "src/common/thread_annotations.h"
#include "src/obs/profile.h"

namespace fms {

// Raises glibc's trim threshold, once per process, so free memory at the
// top of a malloc arena stays mapped for the next allocation instead of
// going back to the kernel. A round frees and re-allocates megabytes of
// temporaries; with the default 128 KiB threshold each round re-faults
// them page by page, and faults taken on several workers at once contend
// in the kernel, so a parallel round's time swings from run to run. Peak
// RSS is unchanged: the retained pages were touched before. A no-op
// outside glibc.
inline void retain_arena_memory() {
#if defined(__GLIBC__)
  static const int kOnce = mallopt(M_TRIM_THRESHOLD, 256 << 20);
  static_cast<void>(kOnce);
#endif
}

class ThreadPool {
 public:
  // num_threads workers, the caller included (0 counts as 1).
  explicit ThreadPool(std::size_t num_threads)
      : failures_(std::max<std::size_t>(num_threads, 1)) {
    if (failures_.size() > 1) retain_arena_memory();
    for (std::size_t w = 1; w < failures_.size(); ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  // Workers, counting the calling thread as worker 0.
  std::size_t size() const { return failures_.size(); }

  // Runs fn(i) for every i in [0, n), index i on worker i % size(), and
  // blocks until all have run.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      FMS_EXCLUDES(call_mu_, mu_) {
    if (n == 0) return;
    FMS_CHECK_MSG(running_ != this, "ThreadPool::parallel_for is not reentrant");
    MutexLock call(call_mu_);
    Job job{&fn, n, obs::open_zone_path()};
    const std::size_t helpers = std::min(workers_.size(), n - 1);
    if (helpers > 0) {
      {
        MutexLock lock(mu_);
        job_ = job;
        pending_ = helpers;
        ++generation_;
      }
      wake_cv_.notify_all();
    }
    run_share(job, 0);
    if (helpers > 0) {
      MutexLock lock(mu_);
      while (pending_ > 0) done_cv_.wait(mu_);
    }
    // Each worker's slot holds its lowest failing index (it walks its
    // indices in ascending order); the join above orders these reads
    // after the workers' writes.
    const Failure* first = nullptr;
    for (const Failure& f : failures_) {
      if (f.error && (first == nullptr || f.index < first->index)) first = &f;
    }
    if (first != nullptr) {
      const std::exception_ptr error = first->error;
      for (Failure& f : failures_) f = Failure{};
      std::rethrow_exception(error);
    }
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::vector<const char*> zone;  // caller's open profiler zone path
  };

  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
  };

  // Worker w's share of the job: indices w, w + size(), ... in order.
  // Catches so every index still runs; keeps the first (lowest) failure.
  void run_share(const Job& job, std::size_t w) {
    Failure& failure = failures_[w];
    const ThreadPool* outer = running_;
    running_ = this;
    for (std::size_t i = w; i < job.n; i += size()) {
      try {
        (*job.fn)(i);
      } catch (...) {
        if (!failure.error) failure = Failure{i, std::current_exception()};
      }
    }
    running_ = outer;
  }

  void worker_loop(std::size_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      Job job;
      {
        MutexLock lock(mu_);
        // Explicit loop (not the predicate overload): the analysis sees
        // the guarded reads happen with mu_ held; wait() re-acquires
        // before returning.
        while (!stopping_ && generation_ == seen) wake_cv_.wait(mu_);
        if (stopping_) return;
        seen = generation_;
        job = job_;
      }
      // A worker at or past n owns no index; the caller did not count it
      // in pending_.
      if (w < job.n) {
        const obs::AdoptedZones adopted(job.zone);
        run_share(job, w);
        MutexLock lock(mu_);
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  // The pool whose indices this thread is running, if any.
  static inline thread_local const ThreadPool* running_ = nullptr;

  std::vector<std::thread> workers_;       // workers 1 .. size()-1
  std::vector<Failure> failures_;          // one slot per worker
  Mutex call_mu_;  // held by the caller for a whole parallel_for
  Mutex mu_;
  Job job_ FMS_GUARDED_BY(mu_);
  std::uint64_t generation_ FMS_GUARDED_BY(mu_) = 0;
  std::size_t pending_ FMS_GUARDED_BY(mu_) = 0;
  bool stopping_ FMS_GUARDED_BY(mu_) = false;
  std::condition_variable_any wake_cv_;
  std::condition_variable_any done_cv_;
};

// Process-wide pool of n workers, started on first use and stopped at
// exit. A worker thread then lives as long as the process, so its
// malloc arena keeps serving the same participants' buffers in every
// search the process runs; a pool per search would restart its threads,
// which pick up the old arenas in arbitrary order and fragment them
// (DESIGN.md §5.7).
inline ThreadPool& shared_thread_pool(std::size_t n) {
  struct Registry {
    Mutex mu;
    std::map<std::size_t, std::unique_ptr<ThreadPool>> pools
        FMS_GUARDED_BY(mu);
  };
  // Destroyed at exit, joining the pools' (by then idle) workers.
  static Registry registry;
  MutexLock lock(registry.mu);
  std::unique_ptr<ThreadPool>& pool =
      registry.pools[std::max<std::size_t>(n, 1)];
  if (!pool) pool = std::make_unique<ThreadPool>(n);
  return *pool;
}

}  // namespace fms
