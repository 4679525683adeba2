#include "libgen/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <istream>
#include <ostream>
#include <thread>

#include "ir/canonical.h"
#include "support/common.h"
#include "support/numeric.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace perfdojo::libgen {

namespace {

bool parseOptimizer(const std::string& name, Optimizer& out) {
  if (name == "none") out = Optimizer::None;
  else if (name == "heuristic") out = Optimizer::Heuristic;
  else if (name == "search") out = Optimizer::Search;
  else if (name == "rl" || name == "perfllm") out = Optimizer::PerfLLM;
  else return false;
  return true;
}

constexpr std::int64_t kMaxBudget = 1'000'000'000;

}  // namespace

std::uint64_t requestKey(const std::string& label, std::uint64_t canonical_hash,
                         const std::string& machine, Optimizer opt,
                         std::int64_t effective_budget, std::uint64_t seed) {
  std::uint64_t h = fnv1a(label);
  h = fnv1a(machine, h);
  h = fnv1a(std::string(optimizerName(opt)), h);
  h = fnv1a(&canonical_hash, sizeof canonical_hash, h);
  h = fnv1a(&effective_budget, sizeof effective_budget, h);
  h = fnv1a(&seed, sizeof seed, h);
  return h;
}

std::string requestToJson(const TuneRequest& r) {
  return Event("tune_request")
      .str("id", r.id)
      .str("kernel", r.kernel)
      .str("machine", r.machine)
      .str("optimizer", r.optimizer)
      .integer("budget", r.budget)
      .integer("seed", static_cast<std::int64_t>(r.seed))
      .json();
}

std::string responseToJson(const TuneResponse& r) {
  Event e("tune_response");
  e.str("id", r.id).boolean("ok", r.ok);
  if (!r.ok) e.str("error", r.error);
  e.str("kernel", r.kernel)
      .str("machine", r.machine)
      .str("optimizer", r.optimizer)
      .str("served", r.served)
      .str("key", formatHex64(r.key))
      .num("baseline_runtime", r.baseline_runtime)
      .num("tuned_runtime", r.tuned_runtime)
      .integer("evaluations", r.evaluations)
      .str("recipe", r.recipe)
      .str("signature", r.signature)
      .str("source", r.source);
  return e.json();
}

bool parseTuneRequest(const std::string& line, TuneRequest& out,
                      std::string& err) {
  JsonValue doc;
  if (!parseJson(line, doc, &err)) return false;
  if (doc.kind != JsonValue::Kind::Object) {
    err = "request must be a JSON object";
    return false;
  }
  out = TuneRequest{};
  out.id = doc.stringOr("id", "");
  out.kernel = doc.stringOr("kernel", "");
  out.machine = doc.stringOr("machine", "");
  out.optimizer = doc.stringOr("optimizer", "heuristic");
  out.budget = static_cast<std::int64_t>(doc.numberOr("budget", -1));
  out.seed = static_cast<std::uint64_t>(doc.numberOr("seed", 1));
  if (out.kernel.empty()) {
    err = "missing required field 'kernel'";
    return false;
  }
  if (out.machine.empty()) {
    err = "missing required field 'machine'";
    return false;
  }
  return true;
}

bool parseTuneResponse(const std::string& line, TuneResponse& out,
                       std::string& err) {
  JsonValue doc;
  if (!parseJson(line, doc, &err)) return false;
  if (doc.kind != JsonValue::Kind::Object) {
    err = "response must be a JSON object";
    return false;
  }
  out = TuneResponse{};
  out.id = doc.stringOr("id", "");
  out.ok = doc.boolOr("ok", false);
  out.error = doc.stringOr("error", "");
  out.kernel = doc.stringOr("kernel", "");
  out.machine = doc.stringOr("machine", "");
  out.optimizer = doc.stringOr("optimizer", "");
  out.served = doc.stringOr("served", "");
  if (!parseHex64(doc.stringOr("key", ""), out.key)) {
    err = "missing or malformed 'key'";
    return false;
  }
  out.baseline_runtime = doc.numberOr("baseline_runtime", 0);
  out.tuned_runtime = doc.numberOr("tuned_runtime", 0);
  out.evaluations = static_cast<std::int64_t>(doc.numberOr("evaluations", 0));
  out.recipe = doc.stringOr("recipe", "");
  out.signature = doc.stringOr("signature", "");
  out.source = doc.stringOr("source", "");
  return true;
}

TuneServer::TuneServer(ServeConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.cache_dir.empty())
    store_ = std::make_unique<search::ShardStore>(cfg_.cache_dir);
}

void TuneServer::bump(std::int64_t ServeStats::* field) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++(stats_.*field);
}

ServeStats TuneServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

std::uint64_t TuneServer::kernelHash(const kernels::KernelInfo& k) {
  KernelHash* slot;
  {
    std::lock_guard<std::mutex> lk(kernel_hashes_mu_);
    slot = &kernel_hashes_[&k];  // map nodes never move
  }
  // Concurrent first requests for one kernel build it once; the rest wait.
  std::call_once(slot->once,
                 [&] { slot->hash = ir::canonicalHash(k.build()); });
  return slot->hash;
}

TuneResponse TuneServer::invalid(const std::string& id,
                                 const std::string& error) {
  bump(&ServeStats::requests);
  bump(&ServeStats::errors);
  TuneResponse resp;
  resp.id = id;
  resp.ok = false;
  resp.error = error;
  return resp;
}

TuneResponse TuneServer::serveFinished(const TuneRequest& r,
                                       std::uint64_t key, TuneResponse finished,
                                       const char* served) {
  finished.id = r.id;
  finished.served = served;
  bump(finished.served == "warm" ? &ServeStats::warm_hits
                                 : &ServeStats::dedupe_joins);
  if (cfg_.telemetry)
    cfg_.telemetry->emit(Event("serve_request")
                             .str("id", r.id)
                             .str("kernel", r.kernel)
                             .str("machine", r.machine)
                             .str("served", served)
                             .str("key", formatHex64(key))
                             .boolean("ok", true));
  return finished;
}

TuneResponse TuneServer::handle(const TuneRequest& r) {
  bump(&ServeStats::requests);
  TuneResponse resp;
  resp.id = r.id;
  resp.kernel = r.kernel;
  resp.machine = r.machine;
  resp.optimizer = r.optimizer;
  const auto failWith = [&](const std::string& msg) {
    bump(&ServeStats::errors);
    resp.ok = false;
    resp.error = msg;
    if (cfg_.telemetry)
      cfg_.telemetry->emit(Event("serve_request")
                               .str("id", r.id)
                               .str("kernel", r.kernel)
                               .str("machine", r.machine)
                               .str("served", "error")
                               .boolean("ok", false)
                               .str("error", msg));
    return resp;
  };

  const auto* k = kernels::findKernel(r.kernel);
  if (!k) return failWith("unknown kernel '" + r.kernel + "'");
  const auto* m = machines::findMachine(r.machine);
  if (!m) return failWith("unknown machine '" + r.machine + "'");
  Optimizer opt;
  if (!parseOptimizer(r.optimizer, opt))
    return failWith("unknown optimizer '" + r.optimizer +
                    "' (none|heuristic|search|rl)");
  if (r.budget > kMaxBudget)
    return failWith("budget " + std::to_string(r.budget) + " out of range [0, " +
                    std::to_string(kMaxBudget) + "]");

  LibGenConfig cfg = cfg_.defaults;
  cfg.optimizer = opt;
  cfg.seed = r.seed;
  if (r.budget >= 0) {
    cfg.search_budget = static_cast<int>(r.budget);
    cfg.rl_episodes = static_cast<int>(r.budget);
  }
  // Budget only shapes the result for the budgeted optimizers, so it is
  // normalized out of the key for the deterministic ones: (heuristic,
  // budget 7) and (heuristic, budget 300) share a schedule.
  const std::int64_t eff_budget = opt == Optimizer::Search ? cfg.search_budget
                                  : opt == Optimizer::PerfLLM ? cfg.rl_episodes
                                                              : 0;
  const std::uint64_t key = requestKey(r.kernel, kernelHash(*k), m->name(),
                                       opt, eff_budget, r.seed);
  resp.key = key;

  // The table: the first claimant of a key owns it; every other request
  // copies the owner's published result, waiting for it if still in flight.
  auto ticket = inflight_.claim(key);
  if (!ticket.owner) {
    const bool finished = ticket.future.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready;
    try {
      TuneResponse shared = ticket.future.get();
      // Only a wait on another request's tuning run is a join; a store hit
      // is published marked "warm", so its waiters stay warm too.
      const bool joined = !finished && shared.served != "warm";
      return serveFinished(r, key, std::move(shared),
                           joined ? "joined" : "warm");
    } catch (const std::exception& e) {
      return failWith(std::string("joined tuning run failed: ") + e.what());
    } catch (...) {
      // A non-standard throw from the owner still must not escape handle().
      return failWith("joined tuning run failed: non-standard exception");
    }
  }

  // Owner: from here on, this thread is the only one that can ever publish
  // to the claimed entry. The guard fails it on ANY exit without a publish —
  // a throw of a non-std type, or a throw from the store read below —
  // because an abandoned entry blocks every waiter forever and permanently
  // poisons the key (later requests wait on the dead future instead of
  // retrying).
  struct OwnerGuard {
    search::InflightMap<TuneResponse>& map;
    std::uint64_t key;
    bool published = false;
    ~OwnerGuard() {
      if (!published)
        map.fail(key, std::make_exception_ptr(Error(
                          "tuning run abandoned without publishing")));
    }
  } guard{inflight_, key};

  // The persistent schedule cache (shared across restarts and processes).
  std::string record;
  if (store_ && store_->get(key, record)) {
    TuneResponse parsed;
    std::string perr;
    if (parseTuneResponse(record, parsed, perr) && parsed.ok) {
      parsed.key = key;
      parsed.served = "warm";
      inflight_.fulfill(key, parsed);
      guard.published = true;
      return serveFinished(r, key, std::move(parsed), "warm");
    }
    // An unreadable or failed record falls through to a fresh tuning run,
    // which overwrites it.
  }

  LibraryEntry e;
  try {
    e = cfg_.tuner ? cfg_.tuner(*k, *m, cfg, &eval_cache_)
                   : tuneOne(*k, *m, cfg, &eval_cache_);
  } catch (const std::exception& ex) {
    inflight_.fail(key, std::current_exception());
    guard.published = true;
    return failWith(std::string("tuning failed: ") + ex.what());
  } catch (...) {
    // Non-standard throw: the waiters still get the real exception (the
    // guard would substitute a generic one), and handle() still never
    // throws.
    inflight_.fail(key, std::current_exception());
    guard.published = true;
    return failWith("tuning failed: non-standard exception");
  }
  resp.ok = true;
  resp.served = "tuned";
  resp.recipe = e.recipe;
  resp.signature = e.signature;
  resp.source = e.source;
  resp.baseline_runtime = e.baseline_runtime;
  resp.tuned_runtime = e.tuned_runtime;
  resp.evaluations = e.evaluations;
  bump(&ServeStats::tuning_runs);

  // The published and persisted record carries no per-request identity.
  // Waiters need not wait for the disk: publish first, then persist.
  TuneResponse stored = resp;
  stored.id.clear();
  stored.served.clear();
  inflight_.fulfill(key, stored);
  guard.published = true;
  if (store_) {
    try {
      store_->put(key, responseToJson(stored));
    } catch (const std::exception&) {
      bump(&ServeStats::store_errors);  // served anyway; handle never throws
    }
  }
  if (cfg_.telemetry)
    cfg_.telemetry->emit(Event("serve_request")
                             .str("id", r.id)
                             .str("kernel", r.kernel)
                             .str("machine", r.machine)
                             .str("served", "tuned")
                             .str("key", formatHex64(key))
                             .num("tuned_runtime", resp.tuned_runtime)
                             .integer("evaluations", resp.evaluations)
                             .boolean("ok", true));
  return resp;
}

std::int64_t runServe(TuneServer& server, std::istream& in, std::ostream& out) {
  std::mutex in_mu, out_mu;
  std::int64_t lines = 0;  // guarded by in_mu
  std::atomic<bool> write_failed{false};
  auto work = [&] {
    std::string line;
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(in_mu);
        if (write_failed.load()) return;
        do {
          if (!std::getline(in, line)) return;
        } while (trim(line).empty());
        ++lines;
      }
      TuneRequest req;
      std::string err;
      const TuneResponse resp =
          parseTuneRequest(line, req, err)
              ? server.handle(req)
              : server.invalid("", "malformed request: " + err);
      const std::string json = responseToJson(resp);
      std::lock_guard<std::mutex> lk(out_mu);
      out << json << '\n';
      out.flush();  // one line = one response: stream them as they finish
      if (!out) write_failed.store(true);
    }
  };
  const int n = std::max(1, server.workers());
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n) - 1);
  for (int t = 1; t < n; ++t) pool.emplace_back(work);
  work();
  for (auto& th : pool) th.join();
  if (write_failed.load()) throw Error("writing responses failed");
  return lines;
}

}  // namespace perfdojo::libgen
