// History undo cost against history depth.
//
// The heuristic passes roll back failed attempts with History::undo, so an
// undo must cost the same whether the history holds one step or dozens: the
// history keeps the state before every step and undo restores it. This bench
// times one undo plus the push that restores the step two ways:
//
//   shallow — the only step of a one-step history (depth 1)
//   deep    — the last step of a kDeep-step history of the same kernel
//
// Every step is an interchange of the same loop nest, so all states have the
// same size and the two timings differ only by depth. A history that replayed
// its prefix on undo measured 17.5x on this bench (4-core x86-64, Release).
//
// Timing discipline: the two histories take turns op by op (alternating which
// goes first), so host noise hits both alike. Each rep yields the mean time
// of each over kOps ops; the reported figures are the medians over kReps
// reps. The gated metric is their ratio, deep / shallow — a ratio of two
// same-host timings, so runner speed cannot skew the gate. It fails when the
// deep undo costs more than kMaxRatio times the shallow one.
//
//   bench_history [--out BENCH_history.json] [--check bench/BENCH_history_baseline.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernels/kernels.h"
#include "machines/machine.h"
#include "support/stats.h"
#include "support/telemetry.h"
#include "transform/history.h"

namespace perfdojo {
namespace {

constexpr const char* kKernel = "matmul";
constexpr std::size_t kDeep = 33;
constexpr int kOps = 200;
constexpr int kReps = 7;
constexpr double kMaxRatio = 1.5;

/// Extends `h` by interchanges of the first interchangeable loop nest until
/// it holds `depth` steps.
void growByInterchanges(transform::History& h, std::size_t depth) {
  const auto& caps = machines::xeon().caps();
  while (h.size() < depth) {
    const auto locs =
        transform::interchangeScopes().findApplicable(h.current(), caps);
    if (locs.empty()) {
      std::fprintf(stderr, "%s: no interchange applies at depth %zu\n",
                   kKernel, h.size());
      std::exit(1);
    }
    h.push({&transform::interchangeScopes(), locs[0]});
  }
}

struct Measurement {
  double shallow_us = 0;  // median over reps of the mean depth-1 undo + push
  double deep_us = 0;     // same, at depth kDeep
  double ratio() const { return shallow_us > 0 ? deep_us / shallow_us : 0; }
};

Measurement measure() {
  const ir::Program kernel = kernels::findKernel(kKernel)->build();
  transform::History shallow(kernel), deep(kernel);
  growByInterchanges(shallow, 1);
  growByInterchanges(deep, kDeep);
  using Clock = std::chrono::steady_clock;
  auto undoPushUs = [](transform::History& h) {
    const transform::Step last = h.steps().back();
    const auto t0 = Clock::now();
    h.undo();
    h.push({last.transform, last.loc});
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::vector<double> shallow_us, deep_us;
  for (int rep = 0; rep < kReps; ++rep) {
    double s = 0, d = 0;
    for (int op = 0; op < kOps; ++op) {
      if (op % 2 == 0) {
        s += undoPushUs(shallow);
        d += undoPushUs(deep);
      } else {
        d += undoPushUs(deep);
        s += undoPushUs(shallow);
      }
    }
    shallow_us.push_back(s / kOps);
    deep_us.push_back(d / kOps);
  }
  return {median(shallow_us), median(deep_us)};
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << kKernel << "\",\"deep_depth\":" << kDeep
     << ",\"ops\":" << kOps * kReps << ",\"shallow_us\":" << m.shallow_us
     << ",\"deep_us\":" << m.deep_us << ",\"depth_ratio\":" << m.ratio()
     << "}\n";
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
  const double base = doc.numberOr("depth_ratio", 0);
  if (base <= 0) {
    std::fprintf(stderr, "baseline %s lacks depth_ratio\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("check: deep/shallow undo %.2fx vs baseline %.2fx (limit %.2fx)\n",
              m.ratio(), base, kMaxRatio);
  if (m.ratio() > kMaxRatio) {
    std::fprintf(stderr,
                 "FAIL: an undo at depth %zu costs %.2fx an undo at depth 1 "
                 "(limit %.2fx)\n",
                 kDeep, m.ratio(), kMaxRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  const auto args =
      perfdojo::bench::parseGateArgs(argc, argv, "BENCH_history.json");
  const auto m = perfdojo::measure();
  std::printf("undo + push at depth 1      %8.2f us\n", m.shallow_us);
  std::printf("undo + push at depth %zu     %8.2f us\n", perfdojo::kDeep,
              m.deep_us);
  std::printf("ratio %.2fx (deep / shallow)\n", m.ratio());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(args.out) << json;
  std::printf("wrote %s: %s", args.out.c_str(), json.c_str());
  return args.baseline.empty() ? 0 : perfdojo::check(m, args.baseline);
}
