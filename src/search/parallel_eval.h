// Worker pool for concurrent candidate evaluation.
//
// Candidate programs proposed by the search methods are independent of each
// other, and the machine models are pure functions of the program, so whole
// batches can be priced concurrently. The pool is a plain std::thread +
// mutex/condition-variable design (no external dependencies); the calling
// thread participates in every batch, so `threads == 1` degenerates to an
// inline loop with zero synchronization.
//
// Determinism contract: the pool only *computes* costs — all search
// decisions stay on the calling thread and every batch is consumed in
// submission order — so results are bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace perfdojo::search {

class ParallelEvaluator {
 public:
  /// threads <= 0 selects std::thread::hardware_concurrency().
  explicit ParallelEvaluator(int threads = 0);
  ~ParallelEvaluator();

  ParallelEvaluator(const ParallelEvaluator&) = delete;
  ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n), distributed over the pool; the caller
  /// participates and the call blocks until all indices completed. fn must
  /// be re-entrant. The first exception thrown by any index is rethrown
  /// after the batch drains. Not itself re-entrant: one batch at a time.
  void forEach(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  void workerLoop();
  void runIndices();

  int threads_ = 1;
  Impl* impl_ = nullptr;  // owned; raw to keep the header dependency-free
};

}  // namespace perfdojo::search
