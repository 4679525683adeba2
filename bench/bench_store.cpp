// Schedule-cache put cost against store size.
//
// The tuning server persists every freshly tuned schedule through
// ShardStore::put, so a put must cost the same whether the store is empty or
// already holds a tuned library: a put appends one line to its shard's log
// and never rewrites what is there. This bench times puts two ways:
//
//   full   — overwrites of existing keys in a store holding kRecords records
//   empty  — the same puts into a freshly created, empty store
//
// Timing discipline: the two stores take turns put by put (alternating which
// goes first), so host noise hits both alike. Each rep yields the mean put
// time of each store over kPuts puts; the reported figures are the medians
// over kReps reps. The gated metric is their ratio, full / empty — a ratio
// of two same-host timings, so runner speed cannot skew the gate. It fails
// when a full-store put costs more than kMaxRatio times an empty-store put;
// a store that rewrote its shard on every put measures 8.3x on this bench.
//
//   bench_store [--out BENCH_store.json] [--check bench/BENCH_store_baseline.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "search/diskstore.h"
#include "support/stats.h"
#include "support/telemetry.h"

namespace perfdojo {
namespace {

namespace fs = std::filesystem;

constexpr int kRecords = 2000;
constexpr int kPuts = 64;
constexpr int kReps = 7;
constexpr std::size_t kRecordBytes = 1600;  // a served schedule's response
constexpr double kMaxRatio = 1.5;

std::uint64_t keyOf(int i) {
  return static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL + 1;
}

std::string recordOf(int i) {
  std::string r = "{\"k\":" + std::to_string(i) + ",\"source\":\"";
  r.append(kRecordBytes - r.size() - 2, 'x');
  return r + "\"}";
}

struct Measurement {
  double full_us = 0;   // median over reps of the mean full-store put
  double empty_us = 0;  // same, empty store
  double ratio() const { return empty_us > 0 ? full_us / empty_us : 0; }
};

Measurement measure(const std::string& root) {
  fs::remove_all(root);
  search::ShardStore full(root + "/full");
  for (int i = 0; i < kRecords; ++i) full.put(keyOf(i), recordOf(i));
  using Clock = std::chrono::steady_clock;
  auto putUs = [](search::ShardStore& store, int i) {
    const auto t0 = Clock::now();
    store.put(keyOf(i), recordOf(i));
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  };
  std::vector<double> full_us, empty_us;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string empty_dir = root + "/empty" + std::to_string(rep);
    search::ShardStore empty(empty_dir);
    double f = 0, e = 0;
    for (int p = 0; p < kPuts; ++p) {
      // Overwrite keys spread over the whole store, hence over every shard.
      const int i = (rep * kPuts + p) * 7 % kRecords;
      if (p % 2 == 0) {
        f += putUs(full, i);
        e += putUs(empty, i);
      } else {
        e += putUs(empty, i);
        f += putUs(full, i);
      }
    }
    full_us.push_back(f / kPuts);
    empty_us.push_back(e / kPuts);
    fs::remove_all(empty_dir);
  }
  fs::remove_all(root);
  return {median(full_us), median(empty_us)};
}

std::string toJson(const Measurement& m) {
  std::ostringstream os;
  os << "{\"records\":" << kRecords << ",\"record_bytes\":" << kRecordBytes
     << ",\"puts\":" << kPuts * kReps << ",\"full_put_us\":" << m.full_us
     << ",\"empty_put_us\":" << m.empty_us << ",\"put_ratio\":" << m.ratio()
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
  const double base = doc.numberOr("put_ratio", 0);
  if (base <= 0) {
    std::fprintf(stderr, "baseline %s lacks put_ratio\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("check: full/empty put %.2fx vs baseline %.2fx (limit %.2fx)\n",
              m.ratio(), base, kMaxRatio);
  if (m.ratio() > kMaxRatio) {
    std::fprintf(stderr,
                 "FAIL: a put into a %d-record store costs %.2fx a put into "
                 "an empty one (limit %.2fx)\n",
                 kRecords, m.ratio(), kMaxRatio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfdojo

int main(int argc, char** argv) {
  const auto args =
      perfdojo::bench::parseGateArgs(argc, argv, "BENCH_store.json");
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("perfdojo_bench_store_" + std::to_string(::getpid())))
          .string();
  const auto m = perfdojo::measure(root);
  std::printf("put into a %d-record store %8.1f us\n", perfdojo::kRecords,
              m.full_us);
  std::printf("put into an empty store      %8.1f us\n", m.empty_us);
  std::printf("ratio %.2fx (full / empty)\n", m.ratio());
  const std::string json = perfdojo::toJson(m);
  std::ofstream(args.out) << json;
  std::printf("wrote %s: %s", args.out.c_str(), json.c_str());
  return args.baseline.empty() ? 0 : perfdojo::check(m, args.baseline);
}
