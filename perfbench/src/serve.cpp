// serve-mixed: a closed loop against TuneServer::handle with one client
// thread per core. Each client takes the next request of a seeded stream,
// encodes it to JSON, parses it back, calls handle, and round-trips the
// response through the wire format — then takes the next one.
//
// The stream: one request in five is a new key (a cold miss that runs
// tuneOne with `heuristic` or `none` and persists through ShardStore::put);
// some new keys are sent again right after, so two clients race for them
// and InflightMap joins the second; the rest repeat earlier keys (warm, L1).
// After the stream, a restart phase opens a fresh TuneServer on the same
// directory and replays every key once (warm, L2).
//
// Each round starts on an empty cache directory with a fresh server and
// serves the whole stream, so rounds repeat identical work; rounds repeat
// while they fit in --seconds. Traced rounds put TimedMachine models behind
// a ServeConfig::tuner that wraps tuneOne.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "libgen/libgen.h"
#include "libgen/server.h"
#include "search/diskstore.h"
#include "search/pass.h"
#include "support/rng.h"
#include "support/stats.h"

namespace perfbench {

namespace pd = perfdojo;
namespace fs = std::filesystem;
using pd::libgen::TuneRequest;
using pd::libgen::TuneResponse;

namespace {

thread_local double tls_tuner_us = 0;  // set by the wrapping tuner

struct Sample {
  TuneResponse resp;
  double latency_us = 0;
  double overhead_us = -1;  // cold: handle time minus tuner time (traced)
  bool wire_ok = true;
};

struct Round {
  std::vector<Sample> samples;  // indexed like the stream
  std::vector<Sample> restart;  // one per distinct key
  double phase_s = 0;
  double restart_ms = 0;
  pd::libgen::ServeStats stats, restart_stats;
  pd::search::EvalCacheStats eval;
};

/// The seeded request stream. It comes in blocks of five: one new key at a
/// seeded position, four repeats of keys already sent (drawn uniformly). In
/// three blocks of ten the request right after the new key is its twin. New
/// keys cycle through every (kernel, machine, optimizer) combination in a
/// seeded order, six times over, so every seed's stream asks for the same
/// cold work; the seed decides order, interleaving and which keys repeat.
std::vector<TuneRequest> makeStream(const Options& opt) {
  const auto& table = pd::kernels::table3();
  const auto& machines = benchMachines();
  std::vector<TuneRequest> fresh;
  const int copies = opt.scale < 1.0 ? 1 : 6;
  std::uint64_t next_seed = 1;
  for (int c = 0; c < copies; ++c)
    for (const auto& k : table)
      for (const auto* m : machines)
        for (const char* o : {"heuristic", "none"}) {
          TuneRequest r;
          r.kernel = k.label;
          r.machine = m->name();
          r.optimizer = o;
          r.seed = next_seed++;  // a seed never sent before: a new key
          fresh.push_back(r);
        }
  pd::Rng rng(mixSeed(opt.seed, 3));
  for (std::size_t i = fresh.size(); i > 1; --i)
    std::swap(fresh[i - 1], fresh[rng.uniform(i)]);
  if (opt.scale < 1.0) fresh.resize(8);

  std::vector<TuneRequest> stream;
  std::vector<const TuneRequest*> sent;
  for (const TuneRequest& key : fresh) {
    // The first block has nothing to repeat yet, so it opens with its key.
    const std::size_t slot = sent.empty() ? 0 : rng.uniform(5);
    const bool twin = rng.bernoulli(0.3);
    for (std::size_t j = 0; j < 5; ++j) {
      if (j == slot) {
        sent.push_back(&key);
        stream.push_back(key);
      } else if (twin && j == slot + 1) {
        stream.push_back(key);
      } else {
        stream.push_back(*sent[rng.uniform(sent.size())]);
      }
    }
  }
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].id = "q" + std::to_string(i);
  return stream;
}

std::string keyOf(const TuneRequest& r) {
  return r.kernel + "|" + r.machine + "|" + r.optimizer + "|" +
         std::to_string(r.seed);
}

bool sameSchedule(const TuneResponse& a, const TuneResponse& b) {
  return a.recipe == b.recipe && a.source == b.source &&
         a.tuned_runtime == b.tuned_runtime;
}

/// One request through the wire format and handle, as a client sees it.
Sample serveOne(pd::libgen::TuneServer& server, const TuneRequest& req,
                Tracer& tracer) {
  Sample s;
  tls_tuner_us = 0;
  const auto t0 = Clock::now();
  ScopedSpan whole(tracer, "serve.request");
  TuneRequest parsed;
  std::string err;
  {
    ScopedSpan w(tracer, "serve.wire");
    s.wire_ok = pd::libgen::parseTuneRequest(pd::libgen::requestToJson(req),
                                             parsed, err);
  }
  TuneResponse resp;
  const auto h0 = Clock::now();
  {
    ScopedSpan h(tracer, "serve.handle");
    resp = server.handle(parsed);
  }
  const double handle_us = msSince(h0) * 1000.0;
  {
    ScopedSpan w(tracer, "serve.wire");
    s.wire_ok = pd::libgen::parseTuneResponse(pd::libgen::responseToJson(resp),
                                              s.resp, err) &&
                s.wire_ok;
  }
  s.latency_us = msSince(t0) * 1000.0;
  if (tls_tuner_us > 0) s.overhead_us = handle_us - tls_tuner_us;
  return s;
}

pd::libgen::ServeConfig serveConfig(const std::string& dir,
                                    const std::map<std::string,
                                                   std::unique_ptr<TimedMachine>>*
                                        timed,
                                    Tracer& tracer) {
  pd::libgen::ServeConfig cfg;
  cfg.cache_dir = dir;
  if (timed) {
    cfg.tuner = [timed, &tracer](const pd::kernels::KernelInfo& k,
                                 const pd::machines::Machine& m,
                                 const pd::libgen::LibGenConfig& c,
                                 pd::search::EvalCache* cache) {
      const auto t0 = Clock::now();
      pd::libgen::LibraryEntry e;
      {
        ScopedSpan s(tracer, "libgen.tune_one");
        e = pd::libgen::tuneOne(k, *timed->at(m.name()), c, cache);
      }
      tls_tuner_us = msSince(t0) * 1000.0;
      return e;
    };
  }
  return cfg;
}

Round runRound(const std::vector<TuneRequest>& stream,
               const std::vector<TuneRequest>& distinct, const std::string& dir,
               const std::map<std::string, std::unique_ptr<TimedMachine>>* timed,
               Tracer& tracer, std::atomic<std::uint64_t>& run_ids) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Round round;
  round.samples.resize(stream.size());
  const int clients = coreCount();
  {
    pd::libgen::TuneServer server(serveConfig(dir, timed, tracer));
    std::atomic<std::size_t> next{0};
    auto client = [&] {
      for (std::size_t i = next.fetch_add(1); i < stream.size();
           i = next.fetch_add(1)) {
        Tracer::setRun(timed ? run_ids.fetch_add(1) + 1 : 0);
        round.samples[i] = serveOne(server, stream[i], tracer);
      }
      Tracer::setRun(0);
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int c = 1; c < clients; ++c) pool.emplace_back(client);
    client();
    for (auto& th : pool) th.join();
    round.phase_s = msSince(t0) / 1000.0;
    round.stats = server.stats();
    round.eval = server.evalStats();
  }
  // Restart: a fresh server on the populated directory serves every key
  // already seen from L2.
  const auto t0 = Clock::now();
  pd::libgen::TuneServer restarted(serveConfig(dir, timed, tracer));
  round.restart_ms = msSince(t0);
  for (const TuneRequest& r : distinct)
    round.restart.push_back(serveOne(restarted, r, tracer));
  round.restart_stats = restarted.stats();
  return round;
}

double dirBytes(const std::string& dir) {
  double bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  return bytes;
}

/// ShardStore calls on a copy of the end-of-phase store: open, get every
/// key, overwrite a sample of records with their own contents (put on the
/// full store), and the same puts on an empty store for comparison.
void diskstoreProbe(const std::string& dir, const std::vector<std::uint64_t>& keys,
                    Tracer& tracer, Report& report) {
  const std::string copy = dir + "-probe";
  const std::string empty = dir + "-empty";
  fs::remove_all(copy);
  fs::remove_all(empty);
  fs::copy(dir, copy, fs::copy_options::recursive);
  Tracer::setRun(kProbeRun - 1);
  std::vector<double> open_ms;
  std::unique_ptr<pd::search::ShardStore> store;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    ScopedSpan s(tracer, "diskstore.open");
    store = std::make_unique<pd::search::ShardStore>(copy);
    open_ms.push_back(msSince(t0));
  }
  std::vector<std::string> records;
  double get_us = 0;
  for (std::uint64_t k : keys) {
    std::string rec;
    const auto t0 = Clock::now();
    bool hit = false;
    {
      ScopedSpan s(tracer, "diskstore.get");
      hit = store->get(k, rec);
    }
    get_us += msSince(t0) * 1000.0;
    report.check("diskstore.get_hits_every_key", hit);
    records.push_back(std::move(rec));
  }
  const std::size_t n_put = std::min<std::size_t>(keys.size(), 32);
  double put_us = 0, put_empty_us = 0;
  pd::search::ShardStore fresh(empty);
  for (std::size_t i = 0; i < n_put; ++i) {
    auto t0 = Clock::now();
    {
      ScopedSpan s(tracer, "diskstore.put");
      store->put(keys[i], records[i]);
    }
    put_us += msSince(t0) * 1000.0;
    t0 = Clock::now();
    fresh.put(keys[i], records[i]);
    put_empty_us += msSince(t0) * 1000.0;
  }
  Tracer::setRun(0);
  const auto nk = static_cast<std::int64_t>(keys.size());
  const auto np = static_cast<std::int64_t>(n_put);
  report.metric("diskstore.open_ms", pd::median(open_ms), "ms", 3);
  report.metric("diskstore.get_us", nk ? get_us / static_cast<double>(nk) : 0,
                "us", nk);
  report.metric("diskstore.put_us", np ? put_us / static_cast<double>(np) : 0,
                "us", np);
  report.metric("diskstore.put_empty_us",
                np ? put_empty_us / static_cast<double>(np) : 0, "us", np);
  report.metric("diskstore.bytes", dirBytes(dir), "bytes", 1);
  report.metric("diskstore.records", static_cast<double>(keys.size()), "count",
                1);
  store.reset();
  fs::remove_all(copy);
  fs::remove_all(empty);
}

double frac(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Latency samples and counters of a set of rounds. `all_ms` and
/// `round_rate` are scaled to the reference host speed by the gauge reading
/// taken before their round; the rest are raw.
struct Tally {
  std::vector<double> all_ms, all_raw_ms, round_rate, round_raw_rate;
  std::vector<double> warm_us, cold_ms, overhead_us, restart_ms, round_s;
  std::vector<double> gauge_ms;
  double requests = 0, rounds = 0;
  std::int64_t reqs = 0, warm_hits = 0, joins = 0, store_errors = 0;
  std::int64_t ev_req = 0, ev_hits = 0;

  void add(const Round& rd, double gauge) {
    gauge_ms.push_back(gauge);
    for (const Sample& s : rd.samples) {
      all_raw_ms.push_back(s.latency_us / 1000.0);
      all_ms.push_back(atRefSpeed(s.latency_us / 1000.0, gauge));
      if (s.resp.served == "warm") warm_us.push_back(s.latency_us);
      if (s.resp.served == "tuned") cold_ms.push_back(s.latency_us / 1000.0);
      if (s.overhead_us >= 0) overhead_us.push_back(s.overhead_us);
    }
    for (const Sample& s : rd.restart) warm_us.push_back(s.latency_us);
    const auto n = static_cast<double>(rd.samples.size());
    restart_ms.push_back(rd.restart_ms);
    round_s.push_back(rd.phase_s);
    round_raw_rate.push_back(n / rd.phase_s);
    round_rate.push_back(n / atRefSpeed(rd.phase_s, gauge));
    requests += n;
    rounds += 1;
    reqs += rd.stats.requests;
    warm_hits += rd.stats.warm_hits;
    joins += rd.stats.dedupe_joins;
    store_errors += rd.stats.store_errors + rd.restart_stats.store_errors;
    ev_req += rd.eval.requests;
    ev_hits += rd.eval.hits;
  }

  void reportLatencies(const std::string& prefix, Report& report) const {
    const auto nw = static_cast<std::int64_t>(warm_us.size());
    const auto nc = static_cast<std::int64_t>(cold_ms.size());
    report.metric(prefix + "warm_p50_us", quantile(warm_us, 0.5), "us", nw);
    report.metric(prefix + "warm_p99_us", quantile(warm_us, 0.99), "us", nw);
    report.metric(prefix + "cold_p50_ms", quantile(cold_ms, 0.5), "ms", nc);
    report.metric(prefix + "cold_p99_ms", quantile(cold_ms, 0.99), "ms", nc);
    report.metric(prefix + "restart_ms", pd::median(restart_ms), "ms",
                  static_cast<std::int64_t>(restart_ms.size()));
  }
};

/// Output checks of one round. Every response is ok and survives the wire
/// round trip; every key is tuned exactly once; warm and joined responses
/// equal the cold response of their key byte for byte; after the restart
/// every key is served warm with zero new tuning runs; every round (traced
/// or not) serves the schedules round one served, and a sample of those
/// matches a plain tuneOne on the real models.
void checkRound(const Options& opt, const std::vector<TuneRequest>& stream,
                const std::vector<TuneRequest>& distinct, const Round& rd,
                int round_index, std::map<std::string, TuneResponse>& first_cold,
                Report& report) {
  std::map<std::string, TuneResponse> cold;
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (rd.samples[i].resp.served == "tuned")
      cold[keyOf(stream[i])] = rd.samples[i].resp;
  report.check("serve.one_tuning_run_per_key",
               cold.size() == distinct.size() &&
                   rd.stats.tuning_runs ==
                       static_cast<std::int64_t>(distinct.size()),
               std::to_string(rd.stats.tuning_runs) + " tuning runs for " +
                   std::to_string(distinct.size()) + " keys");
  auto checkSample = [&](const Sample& s, const TuneRequest& req,
                         bool restart) {
    const std::string key = keyOf(req);
    report.check("serve.response_ok", s.resp.ok && s.wire_ok,
                 key + ": " + s.resp.error);
    if (s.resp.served == "tuned") return;
    auto it = cold.find(key);
    report.check(restart ? "serve.restart_equals_cold" : "serve.warm_equals_cold",
                 it != cold.end() && sameSchedule(s.resp, it->second), key);
    if (restart)
      report.check("serve.restart_served_warm", s.resp.served == "warm", key);
  };
  for (std::size_t i = 0; i < stream.size(); ++i)
    checkSample(rd.samples[i], stream[i], false);
  for (std::size_t i = 0; i < distinct.size(); ++i)
    checkSample(rd.restart[i], distinct[i], true);
  report.check("serve.restart_zero_tuning_runs",
               rd.restart_stats.tuning_runs == 0 &&
                   rd.restart_stats.warm_hits ==
                       static_cast<std::int64_t>(distinct.size()));
  if (round_index > 0) {
    bool same = cold.size() == first_cold.size();
    for (const auto& [key, resp] : cold) {
      auto it = first_cold.find(key);
      same = same && it != first_cold.end() && sameSchedule(resp, it->second);
    }
    report.check(tracedRound(opt, round_index) ? "trace.neutral_results"
                                               : "serve.rounds_repeat",
                 same);
    return;
  }
  first_cold = cold;
  pd::Rng rng(mixSeed(opt.seed, 4));
  for (int k = 0; k < 8 && !distinct.empty(); ++k) {
    const TuneRequest& req = distinct[rng.uniform(distinct.size())];
    pd::libgen::LibGenConfig c = pd::libgen::ServeConfig{}.defaults;
    c.optimizer = req.optimizer == "none" ? pd::libgen::Optimizer::None
                                          : pd::libgen::Optimizer::Heuristic;
    c.seed = req.seed;
    const auto e = pd::libgen::tuneOne(*pd::kernels::findKernel(req.kernel),
                                       *pd::machines::findMachine(req.machine),
                                       c);
    auto it = cold.find(keyOf(req));
    report.check("serve.tune_one_reference",
                 it != cold.end() && e.recipe == it->second.recipe &&
                     e.source == it->second.source &&
                     e.tuned_runtime == it->second.tuned_runtime,
                 keyOf(req));
  }
}

}  // namespace

void runServeMixed(const Options& opt, Report& report) {
  Tracer tracer(opt.trace);
  const std::string base =
      opt.work_dir + "/serve-" + std::to_string(opt.seed);

  // Set-up: generate the stream, open a server on an empty directory and
  // serve one cold (heuristic softmax) and one warm request per machine.
  // Repeated; the median counts.
  std::vector<TuneRequest> stream, distinct;
  std::vector<double> setup_s, setup_gauge;
  const std::string setup_dir = base + "-setup";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fs::remove_all(setup_dir);
    const auto t0 = Clock::now();
    stream = makeStream(opt);
    distinct.clear();
    std::map<std::string, bool> seen;
    for (const auto& r : stream)
      if (!seen[keyOf(r)]) {
        seen[keyOf(r)] = true;
        distinct.push_back(r);
      }
    {
      pd::libgen::TuneServer server(serveConfig(setup_dir, nullptr, tracer));
      for (const auto* m : benchMachines()) {
        TuneRequest warm;  // the same for every seed
        warm.kernel = "softmax";
        warm.machine = m->name();
        warm.optimizer = "heuristic";
        (void)serveOne(server, warm, tracer);
        (void)serveOne(server, warm, tracer);
      }
    }
    setup_s.push_back(msSince(t0) / 1000.0);
    setup_gauge.push_back(hostGaugeMs(3, coreCount()));
  }
  fs::remove_all(setup_dir);

  std::map<std::string, std::unique_ptr<TimedMachine>> timed;
  for (const auto* m : benchMachines())
    timed[m->name()] = std::make_unique<TimedMachine>(*m, tracer);

  // Each round is checked and folded into a tally as soon as it ends, so
  // memory stays one round's responses deep.
  Tally untraced, traced;
  std::map<std::string, TuneResponse> first_cold;
  std::atomic<std::uint64_t> run_ids{0};
  int planned = 1;
  const std::string dir = base + "-store";
  for (int r = 0; r < planned; ++r) {
    const bool trace_round = tracedRound(opt, r);
    const double gauge_ms = hostGaugeMs(5, coreCount());
    const auto round0 = Clock::now();
    const Round rd = runRound(stream, distinct, dir,
                              trace_round ? &timed : nullptr, tracer, run_ids);
    report.attempt(static_cast<std::int64_t>(stream.size() + distinct.size()));
    if (r == 0) planned = plannedRounds(opt, msSince(round0) / 1000.0);
    checkRound(opt, stream, distinct, rd, r, first_cold, report);
    (trace_round ? traced : untraced).add(rd, gauge_ms);
    if (opt.trace && r + 1 == planned) {
      std::vector<std::uint64_t> keys;
      for (const Sample& s : rd.restart) keys.push_back(s.resp.key);
      diskstoreProbe(dir, keys, tracer, report);
    }
    fs::remove_all(dir);
  }

  // End-to-end metrics over the untraced rounds.
  std::vector<double> ratios;
  for (const auto& [key, resp] : first_cold)
    ratios.push_back(resp.tuned_runtime / resp.baseline_runtime);
  reportSetup(setup_s, setup_gauge, report);
  const auto n_all = static_cast<std::int64_t>(untraced.all_ms.size());
  report.metric("throughput_per_s", pd::median(untraced.round_rate), "1/s", n_all);
  report.metric("latency_p50_ms", quantile(untraced.all_ms, 0.5), "ms", n_all);
  report.metric("latency_p99_ms", quantile(untraced.all_ms, 0.99), "ms", n_all);
  report.metric("requests_per_s", pd::median(untraced.round_raw_rate), "1/s",
                n_all);
  report.metric("throughput_per_s.raw", pd::median(untraced.round_raw_rate),
                "1/s", n_all);
  report.metric("latency_p50_ms.raw", quantile(untraced.all_raw_ms, 0.5), "ms",
                n_all);
  report.metric("latency_p99_ms.raw", quantile(untraced.all_raw_ms, 0.99), "ms",
                n_all);
  untraced.reportLatencies("", report);
  report.metric("host.gauge_ms", pd::median(untraced.gauge_ms), "ms",
                static_cast<std::int64_t>(untraced.gauge_ms.size()));
  report.metric("best_cost_geomean", pd::geomean(ratios), "ratio",
                static_cast<std::int64_t>(ratios.size()));
  if (!opt.trace) {
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    return;
  }

  // Per-layer metrics of the traced rounds.
  const std::uint64_t last_run = run_ids.load();
  reportModelLayers(tracer, 1, last_run, "serve.request", report);
  const auto t = tracer.totals(1, last_run);
  const auto tune = t.find("libgen.tune_one");
  report.metric("libgen.tune_one_ms",
                tune == t.end() ? 0.0
                                : tune->second.total_us /
                                      static_cast<double>(tune->second.count) /
                                      1000.0,
                "ms", tune == t.end() ? 0 : tune->second.count);
  report.metric("serve.overhead_us",
                traced.overhead_us.empty() ? 0 : pd::mean(traced.overhead_us),
                "us", static_cast<std::int64_t>(traced.overhead_us.size()));
  const auto wire = t.find("serve.wire");
  report.metric("serve.wire_us",
                wire == t.end() ? 0.0
                                : wire->second.total_us /
                                      std::max(1.0, traced.requests),
                "us", static_cast<std::int64_t>(traced.requests));
  report.metric("serve.warm_hit_frac", frac(traced.warm_hits, traced.reqs),
                "ratio", traced.reqs);
  report.metric("serve.dedupe_joins",
                static_cast<double>(traced.joins) / traced.rounds, "count",
                static_cast<std::int64_t>(traced.rounds));
  report.metric("serve.store_errors", static_cast<double>(traced.store_errors),
                "count", static_cast<std::int64_t>(traced.rounds));
  report.metric("evalcache.hit_frac", frac(traced.ev_hits, traced.ev_req),
                "ratio", traced.ev_req);
  report.metric("serve.requests_per_s", pd::median(traced.round_raw_rate), "1/s",
                static_cast<std::int64_t>(traced.requests));
  traced.reportLatencies("serve.", report);
  report.metric("trace.overhead_frac",
                pd::median(traced.round_s) / pd::median(untraced.round_s) - 1.0,
                "ratio", static_cast<std::int64_t>(traced.rounds));

  // Layer probes on the distinct kernel x machine pairs of the stream, with
  // the heuristic pass's schedule as the served program.
  std::vector<ProbeInput> probes;
  std::map<std::string, bool> probed;
  for (const TuneRequest& r : distinct) {
    const std::string pm = r.kernel + "/" + r.machine;
    if (probed[pm] || probes.size() >= 16) continue;
    probed[pm] = true;
    ProbeInput in;
    in.info = pd::kernels::findKernel(r.kernel);
    in.machine = pd::machines::findMachine(r.machine);
    in.kernel = in.info->build();
    in.result = r.optimizer == "none"
                    ? in.kernel
                    : pd::search::heuristicPass(in.kernel, *in.machine).current();
    probes.push_back(std::move(in));
  }
  runLayerProbes(probes, opt.seed, opt.scale, tracer, report);
  finishTrace(opt, tracer, report);
}

}  // namespace perfbench
