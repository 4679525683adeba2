// The libgen tuning server: a long-running, cache-warm schedule service.
//
// The single-shot pipeline (CLI -> generateLibrary -> exit) tunes one
// (kernel, machine) per process and forgets everything. TuneServer turns
// that into a reusable service core:
//
//   request  --> L1 result map (ThreadSafeMap, this process)
//            --> L2 ShardStore (content-addressed on-disk schedule cache,
//                shared across restarts and across server processes)
//            --> InflightMap dedupe (N concurrent identical requests cost
//                exactly one tuning run; late arrivals join the in-flight
//                future)
//            --> tuneOne (the extracted per-entry tuning unit), priced
//                through one process-wide EvalCache
//
// The wire format is line-delimited JSON — one request per line in, one
// response per line out, correlated by the client-chosen `id` (responses
// stream in completion order). runServe pumps it with a ThreadSafeQueue
// worker pool, so a batch of requests is tuned concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "libgen/libgen.h"
#include "search/diskstore.h"
#include "search/inflight.h"
#include "support/threadsafe.h"

namespace perfdojo {
class Telemetry;
}

namespace perfdojo::libgen {

struct TuneRequest {
  std::string id;        // client correlation id, echoed into the response
  std::string kernel;    // kernel label (`perfdojo list`)
  std::string machine;   // machine name (snitch | xeon | gh200 | mi300a)
  std::string optimizer = "heuristic";  // none|heuristic|search|rl
  std::int64_t budget = -1;  // <0 = server default (search evals / rl episodes)
  std::uint64_t seed = 1;
};

struct TuneResponse {
  std::string id;
  bool ok = false;
  std::string error;     // set when !ok
  std::string kernel, machine, optimizer;
  /// How this response was produced: "tuned" (a fresh tuning run), "warm"
  /// (served from the schedule cache), or "joined" (waited on an identical
  /// in-flight run).
  std::string served;
  std::uint64_t key = 0;  // content-addressed request key (hex on the wire)
  std::string recipe, signature, source;
  double baseline_runtime = 0;
  double tuned_runtime = 0;
  std::int64_t evaluations = 0;  // tuning cost paid when the schedule was built
};

/// Content-addressed request identity: the canonical program hash of the
/// kernel mixed with its label (symbol names embed it), machine, optimizer,
/// effective budget and seed. Two requests with equal keys are guaranteed
/// the same schedule, cost and generated source.
std::uint64_t requestKey(const std::string& label, std::uint64_t canonical_hash,
                         const std::string& machine, Optimizer opt,
                         std::int64_t effective_budget, std::uint64_t seed);

std::string requestToJson(const TuneRequest& r);
std::string responseToJson(const TuneResponse& r);
bool parseTuneRequest(const std::string& line, TuneRequest& out,
                      std::string& err);
bool parseTuneResponse(const std::string& line, TuneResponse& out,
                       std::string& err);

struct ServeConfig {
  /// Directory of the persistent schedule cache; "" = in-memory only (the
  /// L1 result map still dedupes and warms repeats within the process).
  std::string cache_dir;
  int shards = 8;
  /// Concurrent tuning slots used by handleBatch/runServe.
  int workers = 4;
  /// Per-request tuning defaults; optimizer/budget/seed are overridden from
  /// each request. Each tuning run prices on its worker's thread.
  LibGenConfig defaults;
  /// Tuning unit used for cache misses; nullptr = tuneOne. Injection point
  /// for tests (e.g. a tuner that throws) and for embedding custom tuners.
  std::function<LibraryEntry(const kernels::KernelInfo&,
                             const machines::Machine&, const LibGenConfig&,
                             search::EvalCache*)>
      tuner;
  Telemetry* telemetry = nullptr;
};

struct ServeStats {
  std::int64_t requests = 0;
  std::int64_t errors = 0;        // invalid requests or failed tuning runs
  std::int64_t warm_hits = 0;     // served from L1/L2 without tuning
  std::int64_t tuning_runs = 0;   // tuneOne executions
  std::int64_t dedupe_joins = 0;  // waited on an identical in-flight run
  std::int64_t store_errors = 0;  // persistence failures (request served anyway)
};

class TuneServer {
 public:
  explicit TuneServer(ServeConfig cfg);

  /// Serves one request synchronously (thread-safe; called concurrently by
  /// the runServe worker pool). Never throws: failures come back as
  /// ok=false responses.
  TuneResponse handle(const TuneRequest& r);

  /// Serves a batch concurrently on cfg.workers threads; responses are
  /// returned in request order.
  std::vector<TuneResponse> handleBatch(const std::vector<TuneRequest>& rs);

  /// Accounts and returns an ok=false response for a request that could not
  /// even be parsed (the wire loop's malformed-line path).
  TuneResponse invalid(const std::string& id, const std::string& error);

  int workers() const { return cfg_.workers; }
  ServeStats stats() const;
  search::EvalCacheStats evalStats() const { return eval_cache_.stats(); }
  /// nullptr when running memory-only.
  const search::ShardStore* store() const { return store_.get(); }

 private:
  TuneResponse serveWarm(const TuneRequest& r, std::uint64_t key,
                         const TuneResponse& cached);
  void bump(std::int64_t ServeStats::* field);

  ServeConfig cfg_;
  std::unique_ptr<search::ShardStore> store_;
  search::EvalCache eval_cache_;
  ThreadSafeMap<std::uint64_t, TuneResponse> results_;  // L1, this process
  search::InflightMap<TuneResponse> inflight_;
  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

/// The wire loop: reads line-delimited JSON requests from `in` until EOF,
/// serves them on cfg.workers threads, writes one JSON response line per
/// request to `out` in completion order. Returns the number of request
/// lines consumed (malformed lines get an ok=false response and count).
std::int64_t runServe(TuneServer& server, std::istream& in, std::ostream& out);

}  // namespace perfdojo::libgen
