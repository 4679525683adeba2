#include "search/evalcache.h"

#include "ir/canonical.h"
#include "ir/arena.h"
#include "support/common.h"

namespace perfdojo::search {

std::uint64_t EvalCache::key(const machines::Machine& m, std::uint64_t h) {
  // Second-round FNV over the program hash seeded by the machine name keeps
  // (machine A, program X) and (machine B, program X) apart.
  return fnv1a(&h, sizeof(h), fnv1a(m.name()));
}

double EvalCache::evaluate(const machines::Machine& m, const ir::Program& p) {
  ++requests_;
  const std::uint64_t k = key(m, ir::canonicalHash(p));
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(k);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Evaluate outside the lock: the models are pure, and holding the mutex
  // across an evaluation would serialize the worker pool.
  const double cost = m.evaluate(p);
  ++misses_;
  std::lock_guard<std::mutex> lk(mu_);
  map_.emplace(k, cost);
  return cost;
}

bool EvalCache::lookup(const machines::Machine& m, std::uint64_t canonical_hash,
                       double& cost) const {
  const std::uint64_t k = key(m, canonical_hash);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(k);
  if (it == map_.end()) return false;
  cost = it->second;
  return true;
}

void EvalCache::insert(const machines::Machine& m, std::uint64_t canonical_hash,
                       double cost) {
  const std::uint64_t k = key(m, canonical_hash);
  std::lock_guard<std::mutex> lk(mu_);
  map_.emplace(k, cost);
}

bool EvalCache::selfCheck(const machines::Machine& m, const ir::Program& p,
                          std::string* detail,
                          const std::uint64_t* maintained_hash) {
  auto report = [&](const std::string& msg) {
    if (detail) *detail = msg;
    return false;
  };
  const std::uint64_t h1 = ir::canonicalHash(p);
  // Recompute through the *other* implementation: a from-scratch arena
  // bind must agree byte-for-byte with the monolithic render. (The old
  // check hashed the same way twice and could only ever agree with itself.)
  const std::uint64_t h2 = ir::CanonicalArena(p).hash();
  if (h1 != h2)
    return report("canonical hash diverges between full render and "
                  "arena bind: " + std::to_string(h1) + " vs " +
                  std::to_string(h2));
  if (maintained_hash && *maintained_hash != h1)
    return report("incrementally maintained hash " +
                  std::to_string(*maintained_hash) +
                  " is stale: full re-render gives " + std::to_string(h1));
  const double fresh = m.evaluate(p);
  double cached = 0;
  if (lookup(m, h1, cached) && cached != fresh)
    return report("memoized cost " + std::to_string(cached) +
                  " != fresh evaluation " + std::to_string(fresh) +
                  " on " + m.name() + " for canonical hash " +
                  std::to_string(h1));
  insert(m, h1, fresh);
  double back = 0;
  if (!lookup(m, h1, back) || back != fresh)
    return report("inserted cost for canonical hash " + std::to_string(h1) +
                  " not retrievable");
  return true;
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  s.requests = requests_.load();
  s.hits = hits_.load();
  s.misses = misses_.load();
  std::lock_guard<std::mutex> lk(mu_);
  s.entries = map_.size();
  return s;
}

std::size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void EvalCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  requests_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace perfdojo::search
