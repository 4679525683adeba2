#include "search/parallel_eval.h"

#include <algorithm>
#include <utility>

namespace perfdojo::search {

namespace {
/// Bounded poll before blocking on a condition variable: idle workers poll
/// for the next batch, the caller for the last worker's check-out. The exact
/// tier dispatches its phases chunk after chunk, so both usually arrive
/// within the window (DESIGN.md "Where threads remain" has the numbers).
constexpr int kSpinIters = 4096;

template <class Pred>
void poll(Pred done) {
  for (int i = 1; i < kSpinIters && !done(); ++i)
    if ((i & 63) == 0) std::this_thread::yield();
}
}  // namespace

ParallelEvaluator::ParallelEvaluator(int threads) : threads_(threads) {
  if (threads_ <= 0)
    threads_ = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
}

ParallelEvaluator::~ParallelEvaluator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelEvaluator::runIndices(const std::function<void(std::size_t)>& fn,
                                   std::size_t n) {
  for (std::size_t i = next_++; i < n; i = next_++) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      next_ = n;  // skip the indices nobody has claimed yet
    }
  }
}

void ParallelEvaluator::workerLoop(std::uint64_t seen) {
  for (;;) {
    poll([&] { return batch_ != seen; });
    std::unique_lock<std::mutex> lk(mu_);
    work_cv_.wait(lk, [&] { return stop_ || batch_ != seen; });
    if (stop_) return;
    seen = batch_;
    const auto& fn = *fn_;
    const std::size_t n = n_;
    lk.unlock();
    runIndices(fn, n);
    lk.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ParallelEvaluator::forEach(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  const std::size_t want = std::min(static_cast<std::size_t>(threads_), n);
  if (want <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  // Start the missing workers before publishing: each one is handed the
  // number of the last batch, so it takes the one published below as new.
  // A failed start leaves nothing published.
  while (workers_.size() < want - 1)
    workers_.emplace_back(&ParallelEvaluator::workerLoop, this, batch_.load());
  // Every worker checked out of the previous batch before its forEach
  // returned, so the batch fields are ours to reset.
  fn_ = &fn;
  n_ = n;
  error_ = nullptr;
  next_ = 0;
  active_ = workers_.size();
  ++batch_;
  lk.unlock();
  work_cv_.notify_all();
  runIndices(fn, n);
  poll([&] { return active_ == 0; });
  lk.lock();
  done_cv_.wait(lk, [&] { return active_ == 0; });
  fn_ = nullptr;
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lk.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace perfdojo::search
