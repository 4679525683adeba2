// Worker pool of the exact tier (runExact).
//
// The children of one frontier chunk are independent and the machine models
// are pure, so runExact expands and prices a chunk's entries concurrently.
// A plain std::thread + mutex/condition-variable pool: one mutex guards every
// batch field, and the index claim is the one lock-free operation a batch
// depends on. The caller runs indices too, and a batch of n indices starts at
// most min(threads, n) - 1 workers, so a batch of 0 or 1 index runs inline.
//
// Determinism contract: the pool only *computes* costs — all search
// decisions stay on the calling thread and every batch is consumed in
// submission order — so results are bit-identical for any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfdojo::search {

class ParallelEvaluator {
 public:
  /// threads <= 0 selects std::thread::hardware_concurrency().
  explicit ParallelEvaluator(int threads = 0);
  ~ParallelEvaluator();

  ParallelEvaluator(const ParallelEvaluator&) = delete;
  ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and returns once every worker checked
  /// out of the batch; fn must be re-entrant. The first exception any index
  /// throws is rethrown then, and indices not yet claimed are skipped. Not
  /// itself re-entrant: one batch at a time.
  void forEach(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void workerLoop(std::uint64_t seen);
  void runIndices(const std::function<void(std::size_t)>& fn, std::size_t n);

  int threads_ = 1;
  std::mutex mu_;
  std::condition_variable work_cv_;  // a batch was published, or stop_
  std::condition_variable done_cv_;  // active_ reached 0
  // Batch fields, written under mu_. batch_ and active_ are atomic only so
  // idle workers and the caller can poll them; each poll is rechecked under
  // mu_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::uint64_t> batch_{0};  // batches published so far
  std::atomic<std::size_t> active_{0};   // workers still in the batch
  std::exception_ptr error_;
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};  // the index claim
  std::vector<std::thread> workers_;  // touched by the calling thread only
};

}  // namespace perfdojo::search
