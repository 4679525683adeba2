#include "search/parallel_eval.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/common.h"

namespace perfdojo::search {

namespace {

/// Spin iterations before a worker gives up on the next batch arriving
/// back-to-back and falls asleep on the condition variable. Search steps
/// dispatch batches in a tight loop, so the spin path is the steady state;
/// the cv path only pays when the search thread is off doing serial work
/// (dedup, acceptance decisions) for longer than the spin window.
constexpr int kSpinIters = 4096;

}  // namespace

struct ParallelEvaluator::Impl {
  std::mutex mu;  // guards the sleep path only (publication is lock-free)
  std::condition_variable cv_work;
  std::vector<std::thread> workers;

  // Batch state. The plain fields are published by the release store on
  // `generation` and read by workers only after acquiring it — never while a
  // batch is in flight, because forEach() does not return until every worker
  // has checked out of the previous batch (`exited == workers.size()`).
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::exception_ptr error;  // first throw; written under mu, read at barrier
  std::atomic<std::size_t> next{0};     // lock-free index claim ticket
  std::atomic<std::size_t> done{0};     // indices completed (incl. skipped)
  std::atomic<int> exited{0};           // workers done with this batch
  std::atomic<bool> abort_batch{false}; // drain without running fn
  std::atomic<std::uint64_t> generation{0};
  std::atomic<int> sleepers{0};
  std::atomic<bool> stop{false};
};

ParallelEvaluator::ParallelEvaluator(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  threads_ = threads;
  impl_ = new Impl;
  // The calling thread joins every batch, so spawn threads-1 workers.
  for (int i = 1; i < threads_; ++i)
    impl_->workers.emplace_back([this] { workerLoop(); });
}

ParallelEvaluator::~ParallelEvaluator() {
  impl_->stop.store(true);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ParallelEvaluator::runIndices() {
  const auto& fn = *impl_->fn;
  const std::size_t total = impl_->n;
  std::size_t i;
  while ((i = impl_->next.fetch_add(1, std::memory_order_relaxed)) < total) {
    if (!impl_->abort_batch.load(std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(impl_->mu);
          if (!impl_->error) impl_->error = std::current_exception();
        }
        impl_->abort_batch.store(true, std::memory_order_relaxed);
      }
    }
    // Skipped indices count too: completion means every index is accounted
    // for, not that every index ran.
    impl_->done.fetch_add(1, std::memory_order_release);
  }
}

void ParallelEvaluator::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin for the next generation first — the lock-free steady state when
    // the search loop dispatches batches back to back — then sleep.
    std::uint64_t g;
    int spins = 0;
    while ((g = impl_->generation.load(std::memory_order_acquire)) == seen &&
           !impl_->stop.load(std::memory_order_relaxed)) {
      if (++spins < kSpinIters) {
        if ((spins & 63) == 0) std::this_thread::yield();
        continue;
      }
      spins = 0;
      impl_->sleepers.fetch_add(1);  // seq_cst: pairs with the publish check
      {
        std::unique_lock<std::mutex> lk(impl_->mu);
        impl_->cv_work.wait(lk, [&] {
          return impl_->stop.load(std::memory_order_relaxed) ||
                 impl_->generation.load(std::memory_order_relaxed) != seen;
        });
      }
      impl_->sleepers.fetch_sub(1);
    }
    if (impl_->stop.load(std::memory_order_relaxed)) return;
    seen = g;
    runIndices();
    impl_->exited.fetch_add(1, std::memory_order_release);
  }
}

void ParallelEvaluator::forEach(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Publish the batch: plain stores first, then the release increment of
  // `generation` makes them visible to any worker that observes it. No
  // worker is still reading the previous batch's fields — the previous
  // forEach waited for all of them to check out.
  impl_->fn = &fn;
  impl_->n = n;
  impl_->error = nullptr;
  impl_->next.store(0, std::memory_order_relaxed);
  impl_->done.store(0, std::memory_order_relaxed);
  impl_->exited.store(0, std::memory_order_relaxed);
  impl_->abort_batch.store(false, std::memory_order_relaxed);
  impl_->generation.fetch_add(1);  // seq_cst, ordered before the sleepers read
  if (impl_->sleepers.load() > 0) {
    // Bracketing the notify with the mutex closes the race against a worker
    // between its predicate check and the actual wait; a worker that locks
    // after us is guaranteed to see the bumped generation in its predicate.
    {
      std::lock_guard<std::mutex> lk(impl_->mu);
    }
    impl_->cv_work.notify_all();
  }
  runIndices();
  // Lock-free completion barrier: all indices accounted for, then all
  // workers checked out (so the batch fields are ours to reuse). Workers
  // that claimed nothing still pass through exited once per generation.
  int spins = 0;
  while (impl_->done.load(std::memory_order_acquire) < n)
    if ((++spins & 63) == 0) std::this_thread::yield();
  while (impl_->exited.load(std::memory_order_acquire) <
         static_cast<int>(impl_->workers.size()))
    if ((++spins & 63) == 0) std::this_thread::yield();
  impl_->fn = nullptr;
  if (impl_->error) {
    auto e = impl_->error;
    impl_->error = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace perfdojo::search
