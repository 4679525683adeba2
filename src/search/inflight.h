// The table of finished and in-flight values by content-addressed key (the
// futurepacker idiom): N concurrent requests for the same key cost one
// computation, and every later request for it is served from the table.
//
// The first claimant of a key becomes its *owner* and computes the value;
// every other claim receives the entry's shared_future instead. The owner
// publishes through fulfill(), which keeps the entry: a claim made after it
// gets a ready future and never becomes an owner. fail() propagates the
// owner's exception to every waiter and retires the entry, so the next
// claim of a failed key becomes a fresh owner and retries.
#pragma once

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfdojo::search {

template <class V>
class InflightMap {
 public:
  struct Ticket {
    std::shared_future<V> future;
    bool owner = false;  // this claim created the entry: compute + publish
  };

  Ticket claim(std::uint64_t key) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) return {it->second->future, false};
    auto e = std::make_shared<Entry>();
    e->future = e->promise.get_future().share();
    Ticket t{e->future, true};
    map_.emplace(key, std::move(e));
    return t;
  }

  /// Publishes the owner's result to every waiter and to every later claim.
  void fulfill(std::uint64_t key, V value) {
    std::shared_ptr<Entry> e;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) return;
      e = it->second;
    }
    e->promise.set_value(std::move(value));
  }

  /// Propagates the owner's failure to every waiter and retires the key.
  void fail(std::uint64_t key, std::exception_ptr err) {
    std::shared_ptr<Entry> e;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) return;
      e = std::move(it->second);
      map_.erase(it);
    }
    e->promise.set_exception(std::move(err));
  }

  /// Entries held: in flight plus fulfilled.
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::promise<V> promise;
    std::shared_future<V> future;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> map_;
};

}  // namespace perfdojo::search
