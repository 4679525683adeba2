// Automated ML library generation — the paper's end product. Given a set of
// kernels and a target machine, optimize each one (expert pass, heuristic
// search, or PerfLLM), then emit a self-contained C library: one translation
// unit per kernel, an umbrella header, and a manifest recording the
// transformation recipe and modeled performance of every entry.
#pragma once

#include <string>
#include <vector>

#include "machines/machine.h"
#include "kernels/kernels.h"
#include "search/evalcache.h"

namespace perfdojo::libgen {

enum class Optimizer {
  None,       // unscheduled reference loops
  Heuristic,  // expert pass (Section 4.1)
  Search,     // simulated annealing over the heuristic space (Section 4.2)
  PerfLLM,    // RL (Section 3) — the most expensive option
};

const char* optimizerName(Optimizer o);

struct LibGenConfig {
  Optimizer optimizer = Optimizer::Heuristic;
  int search_budget = 300;     // evaluations (Search)
  int rl_episodes = 60;        // episodes (PerfLLM)
  std::uint64_t seed = 1;
};

struct LibraryEntry {
  std::string label;          // kernel label, doubles as the C symbol name
  std::string signature;      // C prototype
  std::string source;         // full .c translation unit
  std::string recipe;         // one transformation per line
  double baseline_runtime = 0;  // unscheduled, modeled seconds
  double tuned_runtime = 0;     // optimized, modeled seconds
  std::int64_t evaluations = 0; // search cost spent on this kernel
};

struct Library {
  std::string machine;
  std::vector<LibraryEntry> entries;
  /// Accounting of the library-wide shared memo table: every optimizer arm
  /// prices programs through one EvalCache, so structurally overlapping
  /// kernels (the reduction family) reuse each other's evaluations.
  search::EvalCacheStats cache_stats;

  /// Umbrella header declaring every kernel.
  std::string header(const std::string& guard = "PERFDOJO_LIB_H") const;
  /// Human-readable manifest: per-kernel speedups and recipes.
  std::string manifest() const;
};

/// Tunes ONE kernel: optimize with cfg.optimizer, price baseline and tuned
/// through `cache` (when given — all arms, including the two bookkeeping
/// evaluations, go through it), then codegen. This is the unit of work
/// shared by generateLibrary and the tuning server.
LibraryEntry tuneOne(const kernels::KernelInfo& k, const machines::Machine& m,
                     const LibGenConfig& cfg, search::EvalCache* cache = nullptr);

/// Optimizes and codegens every kernel in `kernels` for machine `m`.
Library generateLibrary(const std::vector<kernels::KernelInfo>& kernels,
                        const machines::Machine& m, const LibGenConfig& cfg = {});

/// Writes header, sources and manifest under `dir` (created if needed).
/// Returns the list of file paths written.
std::vector<std::string> writeLibrary(const Library& lib, const std::string& dir);

}  // namespace perfdojo::libgen
