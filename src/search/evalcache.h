// Shared memoized evaluation (the evaluation layer of the search machinery).
//
// Every search method — random sampling, simulated annealing and the
// deterministic passes — prices thousands of candidate programs against the
// same deterministic machine models. Canonically identical programs (same
// program modulo NodeId renaming) are reached again and again along different
// transformation paths, so the memo table keyed by ir::canonicalHash turns
// the dominant cost of search from "evaluations" into "unique programs".
//
// Thread-safety: the table is guarded by a mutex and the counters are
// atomics, so concurrent searches sharing one table (the tuning server's
// workers) may call every method concurrently. Machine models are pure (const evaluate, no shared mutable
// state), so a racy double-miss on the same key merely evaluates the same
// program twice and inserts the same value twice — never a wrong result.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "ir/program.h"
#include "machines/machine.h"

namespace perfdojo::search {

struct EvalCacheStats {
  std::int64_t requests = 0;  // evaluate() calls
  std::int64_t hits = 0;      // served from the memo table
  std::int64_t misses = 0;    // raw machine-model runs performed
  std::size_t entries = 0;    // unique (machine, canonical program) keys
};

class EvalCache {
 public:
  /// Memoized machine cost: hashes `p` canonically, returns the cached cost
  /// or evaluates and inserts. Counts into stats().
  double evaluate(const machines::Machine& m, const ir::Program& p);

  /// Uncounted primitives for layers that keep their own statistics
  /// (search::SearchStats): probe / publish a cost for a canonical hash.
  bool lookup(const machines::Machine& m, std::uint64_t canonical_hash,
              double& cost) const;
  void insert(const machines::Machine& m, std::uint64_t canonical_hash,
              double cost);

  /// Differential-testing hook (the fuzzer's cache-consistency oracle layer):
  /// hashes `p` through both canonical-hash implementations — the monolithic
  /// full-text render and a from-scratch arena bind — and checks
  /// they agree bit-for-bit; checks that any memoized cost for it matches a
  /// fresh machine-model evaluation. A divergence means a hash-implementation
  /// split, a canonical-hash collision between programs with different costs,
  /// or a non-pure machine model — all of which silently corrupt every search
  /// method built on this table. If `maintained_hash` is given (a hash a
  /// caller carried incrementally across mutations), it must also match the
  /// full re-render. Inserts the fresh cost on success so subsequent probes
  /// hit. Uncounted (like lookup/insert). Returns false and fills `detail`
  /// on inconsistency.
  bool selfCheck(const machines::Machine& m, const ir::Program& p,
                 std::string* detail = nullptr,
                 const std::uint64_t* maintained_hash = nullptr);

  EvalCacheStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  /// Cache key: canonical program hash mixed with the machine identity, so
  /// one cache instance may be shared across targets.
  static std::uint64_t key(const machines::Machine& m, std::uint64_t h);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, double> map_;
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

}  // namespace perfdojo::search
