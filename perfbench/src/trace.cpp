#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "support/stats.h"
#include "support/telemetry.h"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

struct Frame {
  const char* name;
  std::uint64_t id, parent, run;
  double start_us;
};

thread_local std::vector<Frame> tls_open;
thread_local std::uint64_t tls_run = 0;

}  // namespace

void Tracer::setRun(std::uint64_t run) { tls_run = run; }

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int plannedRounds(const Options& opt, double first_s) {
  const int n = std::clamp(
      static_cast<int>(std::lround(opt.seconds / std::max(first_s, 1e-3))), 1, 50);
  // Traced rounds are capped: spans of a few rounds already give every
  // per-layer figure, and the span buffer stays small.
  return opt.trace ? std::clamp(n, 2, 6) : n;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int coreCount() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double hostGaugeMs(int reps, int threads) {
  std::vector<std::vector<double>> ms(static_cast<std::size_t>(threads));
  auto gauge = [reps](std::vector<double>& out) {
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      std::map<std::uint64_t, std::string> tree;
      std::uint64_t h = 1469598103934665603ull;
      for (std::uint64_t i = 0; i < 6000; ++i) {
        std::string s =
            "scope_of_kernel_" + std::to_string(i * 2654435761u % 100003);
        for (char c : s)
          h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        tree.emplace(h % 20000, std::move(s));
      }
      for (const auto& [k, v] : tree) h ^= k + v.size();
      sink = sink + h;
      out.push_back(msSince(t0));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(gauge, std::ref(ms[t]));
  gauge(ms[0]);
  for (auto& th : pool) th.join();
  std::vector<double> all;
  for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
  return quantile(all, 0.5);
}

// ---------------------------------------------------------------- timings

double RoundTimes::medianRoundMs(const Options& opt, bool traced) const {
  std::vector<double> ms;
  for (std::size_t r = 0; r < wall_ms.size(); ++r)
    if (tracedRound(opt, r) == traced) {
      double sum = 0;
      for (double w : wall_ms[r]) sum += w;
      ms.push_back(sum);
    }
  return ms.empty() ? 0.0 : perfdojo::median(ms);
}

void reportRoundTimes(const Options& opt, const RoundTimes& times,
                      const std::vector<double>& work,
                      const std::string& rate_name, Report& report) {
  std::vector<double> rates, walls, raw_rates, raw_walls;
  std::int64_t n_runs = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    std::vector<double> w, raw;
    for (std::size_t r = 0; r < times.wall_ms.size(); ++r)
      if (!tracedRound(opt, r)) {
        raw.push_back(times.wall_ms[r][i]);
        w.push_back(atRefSpeed(times.wall_ms[r][i], times.gauge_ms[r]));
      }
    n_runs += static_cast<std::int64_t>(w.size());
    walls.push_back(perfdojo::median(w));
    raw_walls.push_back(perfdojo::median(raw));
    rates.push_back(work[i] / (walls.back() / 1000.0));
    raw_rates.push_back(work[i] / (raw_walls.back() / 1000.0));
  }
  report.metric("throughput_per_s", perfdojo::geomean(rates), "1/s", n_runs);
  report.metric("latency_p50_ms", quantile(walls, 0.5), "ms", n_runs);
  report.metric("latency_p99_ms", quantile(walls, 0.99), "ms", n_runs);
  report.metric(rate_name, perfdojo::geomean(raw_rates), "1/s", n_runs);
  report.metric("throughput_per_s.raw", perfdojo::geomean(raw_rates), "1/s",
                n_runs);
  report.metric("latency_p50_ms.raw", quantile(raw_walls, 0.5), "ms", n_runs);
  report.metric("latency_p99_ms.raw", quantile(raw_walls, 0.99), "ms", n_runs);
  report.metric("host.gauge_ms", perfdojo::median(times.gauge_ms), "ms",
                static_cast<std::int64_t>(times.gauge_ms.size()));
}

void reportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& gauge_ms, Report& report) {
  std::vector<double> scaled;
  for (std::size_t k = 0; k < setup_s.size(); ++k)
    scaled.push_back(atRefSpeed(setup_s[k], gauge_ms[k]));
  const auto n = static_cast<std::int64_t>(setup_s.size());
  report.metric("setup_s", perfdojo::median(scaled), "s", n);
  report.metric("setup_s.raw", perfdojo::median(setup_s), "s", n);
}

// ---------------------------------------------------------------- Tracer

std::uint64_t Tracer::begin(const char* name) {
  if (!on_) return 0;
  const std::uint64_t id = next_id_.fetch_add(1);
  const std::uint64_t parent =
      tls_open.empty() ? ambient_.load() : tls_open.back().id;
  const std::uint64_t run = tls_run ? tls_run : ambient_run_.load();
  tls_open.push_back({name, id, parent, run, nowUs()});
  return id;
}

void Tracer::end(std::uint64_t id) {
  const double end_us = nowUs();
  if (tls_open.empty() || tls_open.back().id != id) return;  // misnested
  const Frame f = tls_open.back();
  tls_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back({f.name, f.id, f.parent, f.run, f.start_us, end_us});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::totals(std::uint64_t run_lo,
                                                 std::uint64_t run_hi) const {
  std::vector<Span> all = spans();
  std::vector<Span> sel;
  for (const Span& s : all)
    if (s.run >= run_lo && s.run <= run_hi) sel.push_back(s);
  // Children's intervals per parent, merged and clipped to the parent, give
  // the covered part of each span; concurrent children (worker threads)
  // overlap, so coverage is a union, not a sum.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : sel)
    if (s.parent) kids[s.parent].push_back({s.start_us, s.end_us});
  std::map<std::string, SpanTotals> out;
  for (const Span& s : sel) {
    const double dur = s.end_us - s.start_us;
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = -1;
      for (const auto& [a0, b0] : iv) {
        const double a = std::max(a0, s.start_us), b = std::min(b0, s.end_us);
        if (b <= a) continue;
        if (a > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
        } else {
          cur_hi = std::max(cur_hi, b);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_us += dur;
    t.self_us += std::max(0.0, dur - covered);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans()) {
    f << perfdojo::Event("span")
             .str("name", s.name)
             .integer("id", static_cast<std::int64_t>(s.id))
             .integer("parent", static_cast<std::int64_t>(s.parent))
             .integer("run", static_cast<std::int64_t>(s.run))
             .num("start_us", s.start_us)
             .num("end_us", s.end_us)
             .json()
      << '\n';
  }
  f.flush();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  if (!metrics_.count(name)) order_.push_back(name);
  metrics_[name] = {value, unit, samples};
}

bool Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  CheckCount& c = checks_[name];
  ++c.ran;
  if (!ok) {
    ++c.failed;
    ++failed_;
    if (c.first_failure.empty()) c.first_failure = detail.empty() ? "-" : detail;
    std::cerr << "perfbench: check " << name << " failed: " << detail << "\n";
  }
  return ok;
}

void Report::print() const {
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    std::cout << perfdojo::Event("metric")
                     .str("name", name)
                     .num("value", m.value)
                     .str("unit", m.unit)
                     .integer("samples", m.samples)
                     .json()
              << "\n";
  }
  for (const auto& [name, c] : checks_) {
    perfdojo::Event e("check");
    e.str("name", name).integer("ran", c.ran).integer("failed", c.failed);
    if (c.failed) e.str("first_failure", c.first_failure);
    std::cout << e.json() << "\n";
  }
  std::cout << perfdojo::Event("ops")
                   .integer("attempted", attempted_)
                   .integer("failed", failed_)
                   .json()
            << "\n";
  std::cout.flush();
}

}  // namespace perfbench
