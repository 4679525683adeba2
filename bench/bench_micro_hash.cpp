// Microbenchmark for the incremental canonical-hash machinery. Measures the
// per-candidate cost of pricing a neighbor's identity two ways on the
// largest (deepest-tree) Table-3 kernel after a heuristic schedule:
//
//   full         — the definition: q = action.apply(p); canonicalHash(q)
//   delta        — DeltaContext::neighborHash: in-place apply, splice probe
//                  over the arena's SoA line slab, watermark undo (what the
//                  edges-annealer, graph expansion and exact tier do)
//
// Timing discipline: one warm-up sweep, then the median of kReps interleaved
// repetitions per path. A single wall-clock run flakes under CI noise (a
// preempted rep reads arbitrarily slow); the median of several short reps is
// stable, and interleaving the paths exposes both to the same load.
//
// Emits BENCH_hash.json. With `--check <baseline.json>` it additionally
// compares the measured speedup against the checked-in baseline and fails
// (exit 1) when it regresses by more than 20% — speedup is a ratio of two
// timings on the same machine, so the gate is host-speed independent.
//
//   bench_micro_hash [--out BENCH_hash.json] [--check bench/BENCH_hash_baseline.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/canonical.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/delta.h"
#include "search/pass.h"
#include "support/telemetry.h"
#include "transform/transform.h"

namespace perfdojo {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

double nsPer(Clock::time_point t0, Clock::time_point t1, int iters) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The deepest scheduled Table-3 program: schedules add splits/annotations,
/// so this is the realistic tree size the search re-hashes at every step.
ir::Program largestScheduledKernel(std::string& label) {
  ir::Program best;
  std::size_t best_nodes = 0;
  for (const auto& k : kernels::table3()) {
    auto h = search::heuristicPass(k.build(), machines::xeon());
    const std::size_t n = ir::nodeCount(h.current().root);
    if (n > best_nodes) {
      best_nodes = n;
      best = h.current();
      label = k.label;
    }
  }
  return best;
}

struct Measurement {
  std::string kernel;
  std::size_t nodes = 0;
  std::size_t actions = 0;
  int candidates = 0;
  double full_ns = 0;   // per candidate, copy path
  double delta_ns = 0;  // per candidate, incremental path
  double speedup() const { return delta_ns > 0 ? full_ns / delta_ns : 0; }
};

Measurement measure() {
  Measurement mm;
  const ir::Program p = largestScheduledKernel(mm.kernel);
  mm.nodes = ir::nodeCount(p.root);
  const auto actions = transform::allActions(p, machines::xeon().caps());
  mm.actions = actions.size();
  const int iters = 2000;
  mm.candidates = iters;

  search::DeltaContext dctx;
  dctx.bind(p);

  // Warm-up all paths (page in code, populate allocator caches).
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    sink ^= ir::canonicalHash(actions[i].apply(p));
    sink ^= dctx.neighborHash(actions[i]);
  }

  // Median of kReps interleaved repetitions per path.
  std::vector<double> full_s, delta_s;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      const auto& a = actions[i % actions.size()];
      sink ^= ir::canonicalHash(a.apply(p));
    }
    auto t1 = Clock::now();
    full_s.push_back(nsPer(t0, t1, iters));

    t0 = Clock::now();
    for (int i = 0; i < iters; ++i)
      sink ^= dctx.neighborHash(actions[i % actions.size()]);
    t1 = Clock::now();
    delta_s.push_back(nsPer(t0, t1, iters));
  }
  if (sink == 42) std::fprintf(stderr, " ");  // defeat dead-code elimination
  mm.full_ns = median(full_s);
  mm.delta_ns = median(delta_s);
  return mm;
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << m.kernel << "\",\"nodes\":" << m.nodes
     << ",\"actions\":" << m.actions << ",\"candidates\":" << m.candidates
     << ",\"full_ns_per_candidate\":" << m.full_ns
     << ",\"delta_ns_per_candidate\":" << m.delta_ns
     << ",\"speedup\":" << m.speedup() << "}\n";
  return os.str();
}

int check(const Measurement& m, const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  if (!parseJson(ss.str(), doc, &err)) {
    std::fprintf(stderr, "malformed baseline %s: %s\n", baseline_path.c_str(),
                 err.c_str());
    return 1;
  }
  const double base_speedup = doc.numberOr("speedup", 0);
  // Two gates: the measured speedup may not fall more than 20% below the
  // checked-in baseline, and never below the 5x acceptance floor. Both are
  // ratios of same-host timings, so a slow CI runner cannot fake a pass or
  // a fail.
  const double need = base_speedup * 0.8 > 5.0 ? base_speedup * 0.8 : 5.0;
  std::printf("check: measured speedup %.2fx vs baseline %.2fx "
              "(threshold %.2fx)\n",
              m.speedup(), base_speedup, need);
  if (m.speedup() < need) {
    std::fprintf(stderr,
                 "FAIL: incremental rehash speedup regressed: %.2fx < %.2fx\n",
                 m.speedup(), need);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  std::string out = "BENCH_hash.json";
  std::string baseline;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--out") out = argv[i + 1];
    else if (key == "--check") baseline = argv[i + 1];
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const auto m = perfdojo::measure();
  std::printf("kernel=%s nodes=%zu actions=%zu\n", m.kernel.c_str(), m.nodes,
              m.actions);
  std::printf("full          %10.1f ns/candidate (apply-copy + full re-render)\n",
              m.full_ns);
  std::printf("delta         %10.1f ns/candidate (in-place + splice probe + undo)\n",
              m.delta_ns);
  std::printf("speedup %.2fx\n", m.speedup());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(out) << json;
  std::printf("wrote %s: %s", out.c_str(), json.c_str());
  return baseline.empty() ? 0 : perfdojo::check(m, baseline);
}
