// Exact-tier pricing: in place through each entry's DeltaContext against a
// copy per admitted child.
//
// runExact prices the admitted children of a frontier entry on the scratch
// tree of the DeltaContext that already hashed them: apply in place,
// evaluate and bound the live tree, undo. This bench times it two ways on
// depth-3 balls of four Table-3 kernels on xeon (build_small shapes,
// threads = 1):
//
//   inplace   — runExact as it ships
//   reference — a loop local to this bench that makes the same decisions in
//               the same (entry, action) order but prices each admitted
//               child as a copy: a.apply(p), then evaluate and lowerBound
//
// Both must produce the same certificate for every kernel — the bench exits
// 2 if they differ — so the timings compare like with like.
//
// Timing discipline: each rep times every kernel on both sides, alternating
// which side goes first, so host noise hits both alike. The gated metric is
// the median over reps of inplace / reference — a ratio of two same-host
// timings, so runner speed cannot skew the gate. Copy pricing reads parity
// (1.0x), so the ceiling sits halfway between parity and the checked-in
// ratio: in-place pricing must keep at least half of its win.
//
//   bench_exact [--out BENCH_exact.json] [--check bench/BENCH_exact_baseline.json]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "search/delta.h"
#include "search/exact.h"
#include "support/stats.h"
#include "support/telemetry.h"
#include "transform/history.h"

namespace perfdojo {
namespace {

const char* const kKernels[] = {"matmul", "bmm", "relu_ffn", "conv_2"};
constexpr int kDepth = 3;
constexpr int kReps = 5;

using transform::Step;

search::ExactConfig exactConfig(const char* kernel) {
  search::ExactConfig cfg;
  cfg.depth = kDepth;
  cfg.threads = 1;
  cfg.kernel_label = kernel;
  return cfg;
}

/// runExact's decisions with copy pricing: breadth-first from the kernel,
/// each entry replayed from its path and its children hashed through a
/// DeltaContext; every child deduped, priced, best-updated and pruned in
/// (entry, action) order. The state budget is left out: the gate's balls
/// drain well within runExact's default, and a tripped budget would show as
/// a certificate mismatch.
search::ExactCertificate referenceExact(const ir::Program& kernel,
                                        const machines::Machine& m,
                                        const char* label) {
  search::ExactCertificate c;
  c.kernel = label;
  c.machine = m.name();
  c.depth = kDepth;
  c.complete = true;
  c.base_cost = m.evaluate(kernel);
  double best = c.base_cost;
  std::unordered_set<std::uint64_t> visited = {ir::canonicalHash(kernel)};
  std::int64_t states = 1;
  std::vector<std::vector<Step>> frontier = {{}};  // replay paths
  for (int level = 1; level <= kDepth && !frontier.empty(); ++level) {
    std::vector<std::vector<Step>> next;
    for (const auto& path : frontier) {
      transform::History::ReplayResult rr;
      const auto p = transform::History::replay(kernel, path, rr);
      require(p.has_value(), "reference: replay failed: " + rr.message);
      ++c.expanded;
      search::DeltaContext dctx;
      dctx.bind(*p);
      for (const auto& a : transform::allActions(*p, m.caps())) {
        if (!visited.insert(dctx.neighborHash(a)).second) continue;
        ++states;
        const ir::Program child = a.apply(*p);
        const double cost = m.evaluate(child);
        const double lower = m.lowerBound(child);
        std::vector<Step> steps = path;
        steps.push_back({a.transform, a.loc});
        if (std::isfinite(cost) && cost >= 0 && cost < best) {
          best = cost;
          c.witness = steps;
        }
        if (level >= kDepth) continue;
        if (std::isfinite(lower) && lower >= best) {
          ++c.pruned;
          continue;
        }
        next.push_back(std::move(steps));
      }
    }
    frontier = std::move(next);
  }
  c.states = states;
  c.optimal_cost = best;
  return c;
}

struct Measurement {
  std::int64_t states = 0;  // summed over kernels, per run
  double inplace_ms = 0;    // median over reps of the summed kernel walls
  double reference_ms = 0;
  double ratio = 0;  // median over reps of inplace / reference
};

Measurement measure() {
  using Clock = std::chrono::steady_clock;
  auto msSince = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  const machines::Machine& m = machines::xeon();
  std::vector<ir::Program> programs;
  for (const char* k : kKernels) {
    const auto* info = kernels::findKernel(k);
    require(info != nullptr, std::string("bench_exact: unknown kernel ") + k);
    programs.push_back(info->build_small());
  }
  Measurement out;
  std::vector<double> inplace_ms, reference_ms, ratios;
  // Rep 0 warms both sides up and is not counted.
  for (int rep = 0; rep <= kReps; ++rep) {
    double in = 0, ref = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      std::string got, want;
      auto runInplace = [&] {
        const auto t0 = Clock::now();
        const auto r = search::runExact(programs[i], m, exactConfig(kKernels[i]));
        in += msSince(t0);
        got = r.cert.toJson();
        if (rep == 0) out.states += r.cert.states;
      };
      auto runReference = [&] {
        const auto t0 = Clock::now();
        want = referenceExact(programs[i], m, kKernels[i]).toJson();
        ref += msSince(t0);
      };
      if ((rep + i) % 2 == 0) {
        runInplace();
        runReference();
      } else {
        runReference();
        runInplace();
      }
      if (got != want) {
        std::fprintf(stderr,
                     "certificate divergence on %s:\n  inplace   %s\n"
                     "  reference %s\n",
                     kKernels[i], got.c_str(), want.c_str());
        std::exit(2);
      }
    }
    if (rep == 0) continue;
    inplace_ms.push_back(in);
    reference_ms.push_back(ref);
    ratios.push_back(in / ref);
  }
  out.inplace_ms = median(inplace_ms);
  out.reference_ms = median(reference_ms);
  out.ratio = median(ratios);
  return out;
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernels\":[";
  for (std::size_t i = 0; i < std::size(kKernels); ++i)
    os << (i ? "," : "") << "\"" << kKernels[i] << "\"";
  os << "],\"machine\":\"xeon\",\"depth\":" << kDepth << ",\"reps\":" << kReps
     << ",\"states\":" << m.states << ",\"inplace_ms\":" << m.inplace_ms
     << ",\"reference_ms\":" << m.reference_ms
     << ",\"inplace_ratio\":" << m.ratio << "}\n";
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
  const double base = doc.numberOr("inplace_ratio", 0);
  if (base <= 0 || base >= 1) {
    std::fprintf(stderr, "baseline %s lacks an inplace_ratio below 1\n",
                 baseline_path.c_str());
    return 1;
  }
  const double ceiling = 1.0 - 0.5 * (1.0 - base);
  std::printf("check: inplace/reference %.3fx vs baseline %.3fx "
              "(ceiling %.3fx)\n",
              m.ratio, base, ceiling);
  if (m.ratio > ceiling) {
    std::fprintf(stderr,
                 "FAIL: in-place exact pricing regressed: %.3fx > %.3fx\n",
                 m.ratio, ceiling);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  const auto args =
      perfdojo::bench::parseGateArgs(argc, argv, "BENCH_exact.json");
  const auto m = perfdojo::measure();
  std::printf("states per run    %lld (depth %d, xeon, 4 kernels)\n",
              static_cast<long long>(m.states), perfdojo::kDepth);
  std::printf("inplace           %8.1f ms\n", m.inplace_ms);
  std::printf("reference (copy)  %8.1f ms\n", m.reference_ms);
  std::printf("ratio %.3fx (inplace / reference)\n", m.ratio);
  const std::string json = perfdojo::toJson(m);
  std::ofstream(args.out) << json;
  std::printf("wrote %s: %s", args.out.c_str(), json.c_str());
  return args.baseline.empty() ? 0 : perfdojo::check(m, args.baseline);
}
