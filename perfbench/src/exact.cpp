// exact-certify: runExact at depth 3 on build_small shapes, threads = all
// cores (the only workload where ParallelEvaluator dispatches and where
// Machine::lowerBound runs). Each round runs the pairs that have checked-in
// certificates (tests/data/exact/*.json, read-only reference) plus a fixed
// set of deeper Table 3 pairs on every machine. Rounds repeat while they fit
// in --seconds; traced rounds run on TimedMachine decorators.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "search/exact.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "transform/history.h"

namespace perfbench {

namespace pd = perfdojo;

namespace {

struct ExactPair {
  Pair pair;
  std::string reference;  // certificate file text ("" = not certified)
  double sa_gate = 0, heuristic_gate = 0;
};

struct ExactRun {
  double wall_ms = 0;
  pd::search::ExactResult result;
  std::string cert_json;
};

/// Kernels whose depth-3 ball is deeper than the certified ones but still
/// drains within the state budget: 8k-30k states, 0.05-0.3 s each on
/// build_small shapes and 4 threads. Every run covers each of them on every
/// machine; the seed draws the order the pairs run in. (A seeded draw of a
/// subset made the mix, and with it every end-to-end figure, differ from
/// seed to seed by more than the bounds allow.)
const char* const kDeeper[] = {"matmul", "bmm", "relu_ffn", "conv_2"};

std::vector<ExactPair> buildExactPairs(const Options& opt) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& e :
       fs::directory_iterator(fs::path(opt.repo_root) / "tests/data/exact"))
    if (e.path().extension() == ".json") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  pd::require(!files.empty(), "exact-certify: no certificates found");

  std::vector<ExactPair> out;
  for (const auto& f : files) {
    ExactPair ep;
    ep.reference = pd::trim(pd::readTextFile(f));
    pd::search::ExactCertificate c;
    std::string err;
    pd::require(pd::search::parseCertificate(ep.reference, c, &err),
                f + ": " + err);
    ep.sa_gate = c.sa_gate;
    ep.heuristic_gate = c.heuristic_gate;
    ep.pair.info = pd::kernels::findKernel(c.kernel);
    ep.pair.machine = pd::machines::findMachine(c.machine);
    pd::require(ep.pair.info && ep.pair.machine, f + ": unknown kernel/machine");
    out.push_back(std::move(ep));
  }
  std::vector<ExactPair> deeper;
  for (const char* k : kDeeper)
    for (const auto* m : benchMachines()) {
      ExactPair ep;
      ep.pair.info = pd::kernels::findKernel(k);
      ep.pair.machine = m;
      deeper.push_back(std::move(ep));
    }
  if (opt.scale < 1.0) {  // smoke: two certified pairs and one deeper pair
    out.resize(std::min<std::size_t>(out.size(), 2));
    deeper.resize(1);
  }
  for (auto& ep : deeper) out.push_back(std::move(ep));
  pd::Rng rng(mixSeed(opt.seed, 2));
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.uniform(i)]);
  for (auto& ep : out) {
    ep.pair.kernel = ep.pair.info->build_small();
    ep.pair.baseline = ep.pair.machine->evaluate(ep.pair.kernel);
  }
  return out;
}

pd::search::ExactConfig exactConfig(const ExactPair& ep, int threads) {
  pd::search::ExactConfig cfg;
  cfg.depth = 3;
  cfg.threads = threads;
  cfg.kernel_label = ep.pair.info->label;
  return cfg;
}

ExactRun runOne(const ExactPair& ep, const pd::machines::Machine& m,
                int threads) {
  ExactRun run;
  const auto t0 = Clock::now();
  run.result = pd::search::runExact(ep.pair.kernel, m, exactConfig(ep, threads));
  run.wall_ms = msSince(t0);
  pd::search::ExactCertificate c = run.result.cert;
  c.sa_gate = ep.sa_gate;  // the gates measure other tiers; carried as-is
  c.heuristic_gate = ep.heuristic_gate;
  run.cert_json = c.toJson();
  return run;
}

}  // namespace

void runExactCertify(const Options& opt, Report& report) {
  Tracer tracer(opt.trace);
  const int threads = 0;  // all cores

  // Set-up: read and parse the certificates, build every kernel, and warm
  // each pair with a depth-1 run. Repeated; the median counts.
  std::vector<ExactPair> pairs;
  std::vector<double> setup_s, setup_gauge;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    pairs = buildExactPairs(opt);
    for (const ExactPair& ep : pairs) {
      auto warm = exactConfig(ep, threads);
      warm.depth = 1;
      (void)pd::search::runExact(ep.pair.kernel, *ep.pair.machine, warm);
    }
    setup_s.push_back(msSince(t0) / 1000.0);
    setup_gauge.push_back(hostGaugeMs(3, coreCount()));
  }
  std::vector<std::unique_ptr<TimedMachine>> timed;
  for (const auto& ep : pairs)
    timed.push_back(std::make_unique<TimedMachine>(*ep.pair.machine, tracer));

  std::vector<std::vector<ExactRun>> rounds;
  RoundTimes times;
  std::uint64_t run_id = 0;
  int planned = 1;
  for (int r = 0; r < planned; ++r) {
    const bool traced = tracedRound(opt, r);
    std::vector<ExactRun> round;
    std::vector<double> gauge;
    const auto round0 = Clock::now();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      gauge.push_back(hostGaugeMs(1, coreCount()));
      if (traced) {
        Tracer::setRun(++run_id);
        ScopedSpan s(tracer, "exact.run");
        tracer.setAmbient(s.id(), run_id);
        round.push_back(runOne(pairs[i], *timed[i], threads));
        tracer.setAmbient(0, 0);
        Tracer::setRun(0);
      } else {
        round.push_back(runOne(pairs[i], *pairs[i].pair.machine, threads));
      }
      report.attempt();
    }
    times.wall_ms.emplace_back();
    for (const ExactRun& run : round) times.wall_ms.back().push_back(run.wall_ms);
    times.gauge_ms.push_back(pd::median(gauge));
    rounds.push_back(std::move(round));
    if (r == 0) planned = plannedRounds(opt, msSince(round0) / 1000.0);
  }

  // Output checks: certified pairs reproduce their checked-in certificate
  // byte for byte; every witness validates and re-prices bit-equal on a
  // fresh undecorated model at no more than the base cost; later rounds
  // (traced or not) reproduce round one's certificate exactly.
  for (std::size_t r = 0; r < rounds.size(); ++r)
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const ExactPair& ep = pairs[i];
      const ExactRun& run = rounds[r][i];
      const std::string label = ep.pair.info->label + "/" + ep.pair.machine->name();
      if (!ep.reference.empty())
        report.check("exact.certificate_matches_reference",
                     run.cert_json == ep.reference, label);
      std::string err;
      try {
        run.result.best.validate();
      } catch (const std::exception& e) {
        err = e.what();
      }
      report.check("exact.best_validates", err.empty(), label + ": " + err);
      report.check("exact.reprice_bit_equal",
                   ep.pair.machine->evaluate(run.result.best) ==
                       run.result.cert.optimal_cost,
                   label);
      report.check("exact.best_le_baseline",
                   run.result.cert.optimal_cost <= run.result.cert.base_cost,
                   label);
      if (r > 0)
        report.check(tracedRound(opt, r) ? "trace.neutral_results"
                                         : "exact.rounds_repeat",
                     run.cert_json == rounds[0][i].cert_json, label);
    }

  // End-to-end metrics over the untraced rounds.
  std::vector<double> work, ratios;
  for (const ExactRun& run : rounds[0]) {
    work.push_back(static_cast<double>(run.result.cert.states));
    ratios.push_back(run.result.cert.optimal_cost / run.result.cert.base_cost);
  }
  reportSetup(setup_s, setup_gauge, report);
  reportRoundTimes(opt, times, work, "candidates_per_s", report);
  report.metric("best_cost_geomean", pd::geomean(ratios), "ratio",
                static_cast<std::int64_t>(ratios.size()));
  if (!opt.trace) {
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    return;
  }

  reportModelLayers(tracer, 1, run_id, "exact.run", report);
  std::int64_t states = 0, expanded = 0, pruned = 0;
  for (const ExactRun& run : rounds[0]) {
    states += run.result.cert.states;
    expanded += run.result.cert.expanded;
    pruned += run.result.cert.pruned;
  }
  const auto n = static_cast<double>(pairs.size());
  report.metric("exact.states", static_cast<double>(states) / n, "count",
                static_cast<std::int64_t>(pairs.size()));
  report.metric("exact.expanded", static_cast<double>(expanded) / n, "count",
                static_cast<std::int64_t>(pairs.size()));
  report.metric("exact.pruned_frac",
                static_cast<double>(pruned) / static_cast<double>(states),
                "ratio", states);
  const double untraced_ms = times.medianRoundMs(opt, false);
  const auto traced_states = static_cast<double>(states) *
                             static_cast<double>(rounds.size() / 2);
  const auto t = tracer.totals(1, run_id);
  const auto er = t.find("exact.run");
  report.metric("search.self_us_per_candidate",
                er == t.end() ? 0.0 : er->second.self_us / traced_states, "us",
                static_cast<std::int64_t>(traced_states));
  report.metric("trace.overhead_frac",
                times.medianRoundMs(opt, true) / untraced_ms - 1.0, "ratio",
                static_cast<std::int64_t>(rounds.size() / 2));

  // Probe: the same runs on one thread. Certificates must not depend on the
  // thread count; the wall ratio is the parallel evaluator's scaling.
  double one_ms = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const ExactRun run = runOne(pairs[i], *pairs[i].pair.machine, 1);
    one_ms += run.wall_ms;
    report.check("exact.threads_neutral", run.cert_json == rounds[0][i].cert_json,
                 pairs[i].pair.info->label);
  }
  report.metric("parallel_eval.scaling", one_ms / untraced_ms, "ratio",
                static_cast<std::int64_t>(pairs.size()));

  std::vector<ProbeInput> probes;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    probes.push_back({pairs[i].pair.info, pairs[i].pair.machine,
                      pairs[i].pair.kernel, rounds[0][i].result.best, true});
  runLayerProbes(probes, opt.seed, opt.scale, tracer, report);
  finishTrace(opt, tracer, report);
}

}  // namespace perfbench
