// Warm-hit cost of the tuning server against one kernel build.
//
// A request whose schedule the server already holds must be answered from
// the table: its key comes from the kernel's canonical hash, which the
// server computes once per kernel, so a warm hit does no IR work at all.
// This bench times two things on the same kernel:
//
//   warm  — TuneServer::handle on a request whose schedule is in the table
//   build — one k.build() + ir::canonicalHash of the paper-shape program
//
// Timing discipline: the two take turns op by op (alternating which goes
// first), so host noise hits both alike. Each rep yields the mean time of
// each over kOps ops; the reported figures are the medians over kReps reps.
// The gated metric is their ratio, warm / build — a ratio of two same-host
// timings, so runner speed cannot skew the gate. It fails when a warm hit
// costs more than kMaxRatio builds; a server that built the kernel inside
// every warm hit to form its key measures above 1.
//
//   bench_serve [--out BENCH_serve.json] [--check bench/BENCH_serve_baseline.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "libgen/server.h"
#include "support/stats.h"
#include "support/telemetry.h"

namespace perfdojo {
namespace {

constexpr const char* kKernel = "softmax";
constexpr const char* kMachine = "xeon";
constexpr int kOps = 200;
constexpr int kReps = 9;
constexpr double kMaxRatio = 0.25;

struct Measurement {
  double warm_us = 0;   // median over reps of the mean warm handle()
  double build_us = 0;  // same, one build + canonical hash
  double ratio() const { return build_us > 0 ? warm_us / build_us : 0; }
};

Measurement measure() {
  const kernels::KernelInfo& k = *kernels::findKernel(kKernel);
  libgen::TuneServer server(libgen::ServeConfig{});
  libgen::TuneRequest req;
  req.id = "warm";
  req.kernel = kKernel;
  req.machine = kMachine;
  req.optimizer = "heuristic";
  const auto cold = server.handle(req);
  if (!cold.ok || cold.served != "tuned") {
    std::fprintf(stderr, "first request was not tuned: %s\n",
                 cold.error.c_str());
    std::exit(1);
  }
  using Clock = std::chrono::steady_clock;
  auto warmUs = [&] {
    const auto t0 = Clock::now();
    const auto resp = server.handle(req);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (resp.served != "warm") {
      std::fprintf(stderr, "repeat request was served '%s', not warm\n",
                   resp.served.c_str());
      std::exit(1);
    }
    return us;
  };
  auto buildUs = [&] {
    const auto t0 = Clock::now();
    ir::canonicalHash(k.build());
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::vector<double> warm_us, build_us;
  for (int rep = 0; rep < kReps; ++rep) {
    double w = 0, b = 0;
    for (int op = 0; op < kOps; ++op) {
      if (op % 2 == 0) {
        w += warmUs();
        b += buildUs();
      } else {
        b += buildUs();
        w += warmUs();
      }
    }
    warm_us.push_back(w / kOps);
    build_us.push_back(b / kOps);
  }
  return {median(warm_us), median(build_us)};
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"kernel\":\"" << kKernel << "\",\"machine\":\"" << kMachine
     << "\",\"ops\":" << kOps * kReps << ",\"warm_us\":" << m.warm_us
     << ",\"build_us\":" << m.build_us << ",\"warm_ratio\":" << m.ratio()
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
  const double base = doc.numberOr("warm_ratio", 0);
  if (base <= 0) {
    std::fprintf(stderr, "baseline %s lacks warm_ratio\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("check: warm hit / build %.3fx vs baseline %.3fx (limit %.2fx)\n",
              m.ratio(), base, kMaxRatio);
  if (m.ratio() > kMaxRatio) {
    std::fprintf(stderr,
                 "FAIL: a warm hit on %s costs %.2fx one build + canonical "
                 "hash of the kernel (limit %.2fx)\n",
                 kKernel, m.ratio(), kMaxRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  const auto args =
      perfdojo::bench::parseGateArgs(argc, argv, "BENCH_serve.json");
  const auto m = perfdojo::measure();
  std::printf("warm handle() hit            %8.2f us\n", m.warm_us);
  std::printf("build + canonical hash       %8.2f us\n", m.build_us);
  std::printf("ratio %.3fx (warm / build)\n", m.ratio());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(args.out) << json;
  std::printf("wrote %s: %s", args.out.c_str(), json.c_str());
  return args.baseline.empty() ? 0 : perfdojo::check(m, args.baseline);
}
