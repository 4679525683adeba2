// Shared helpers for the figure/table reproduction benches. Every bench
// prints a paper-vs-measured summary so EXPERIMENTS.md can be assembled from
// bench output alone.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "machines/machine.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace perfdojo::bench {

/// Budget scale factor, settable via PERFDOJO_BENCH_SCALE (default 1.0).
/// The paper spends 1000 evaluations (heuristic search) to 8 GPU-hours
/// (PerfLLM) per kernel; the defaults here are sized for a laptop-minute.
inline double budgetScale() {
  if (const char* s = std::getenv("PERFDOJO_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

inline int scaled(int base) {
  const double v = base * budgetScale();
  return v < 1 ? 1 : static_cast<int>(v);
}

/// Command line of a gated bench:
/// `[--out <file.json>] [--check <baseline.json>]`.
struct GateArgs {
  std::string out;       // where the measured JSON is written
  std::string baseline;  // empty: measure only, no gate
};

/// Parses a gated bench's flags. A flag without a value or an unknown flag
/// prints a diagnostic and exits 2: a gate must never be skipped because its
/// command line was malformed.
inline GateArgs parseGateArgs(int argc, char** argv, std::string default_out) {
  GateArgs args{std::move(default_out), {}};
  auto reject = [&](const std::string& why) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--out <file.json>] "
                 "[--check <baseline.json>]\n",
                 argv[0], why.c_str(), argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    std::string* value = key == "--out"     ? &args.out
                         : key == "--check" ? &args.baseline
                                            : nullptr;
    if (value == nullptr) reject("unknown flag " + key);
    const std::string_view next = i + 1 < argc ? argv[i + 1] : "";
    if (next.empty() || next.starts_with("--"))
      reject("missing value for " + key);
    *value = argv[++i];
  }
  return args;
}

inline void header(const std::string& title, const std::string& paper_claim) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==========================================================\n\n");
}

inline void paperVsMeasured(const std::string& metric, const std::string& paper,
                            double measured, const std::string& unit = "") {
  std::printf("[paper-vs-measured] %-42s paper=%-10s measured=%s%s\n",
              metric.c_str(), paper.c_str(), fmt(measured, 4).c_str(),
              unit.c_str());
}

/// Compact one-line rendering of a cost breakdown: non-zero components only,
/// largest first is not needed — fixed order keeps columns comparable across
/// rows ("compute 1.1e-06 | stall 3.2e-06 | loop 4e-07").
inline std::string breakdownSummary(const machines::CostBreakdown& b) {
  std::string out;
  auto add = [&](const char* label, double v) {
    if (v <= 0) return;
    if (!out.empty()) out += " | ";
    out += std::string(label) + " " + fmt(v, 3);
  };
  add("compute", b.compute);
  add("stall", b.pipeline_stall);
  add("memory", b.memory);
  add("loop", b.loop_overhead);
  add("launch", b.launch_overhead);
  return out.empty() ? "-" : out;
}

}  // namespace perfdojo::bench
