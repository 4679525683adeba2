// The tuning server: wire format, warm-path persistence, in-flight dedupe,
// and the shard store underneath it. Test names deliberately start with
// Serve/Shard/Inflight so CI's TSan job picks them up.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "kernels/kernels.h"
#include "libgen/server.h"
#include "search/diskstore.h"
#include "search/inflight.h"
#include "support/common.h"

namespace perfdojo::libgen {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

TuneRequest mulRequest(const std::string& id = "r0") {
  TuneRequest r;
  r.id = id;
  r.kernel = "mul";
  r.machine = "xeon";
  r.optimizer = "heuristic";
  return r;
}

TEST(ServeWire, RequestJsonRoundTrip) {
  TuneRequest r;
  r.id = "abc";
  r.kernel = "softmax";
  r.machine = "snitch";
  r.optimizer = "search";
  r.budget = 123;
  r.seed = 99;
  TuneRequest back;
  std::string err;
  ASSERT_TRUE(parseTuneRequest(requestToJson(r), back, err)) << err;
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.kernel, r.kernel);
  EXPECT_EQ(back.machine, r.machine);
  EXPECT_EQ(back.optimizer, r.optimizer);
  EXPECT_EQ(back.budget, r.budget);
  EXPECT_EQ(back.seed, r.seed);
}

TEST(ServeWire, ResponseJsonRoundTripIsBitExact) {
  TuneResponse r;
  r.id = "abc";
  r.ok = true;
  r.kernel = "mul";
  r.machine = "xeon";
  r.optimizer = "heuristic";
  r.served = "tuned";
  r.key = 0xdeadbeefcafef00dULL;
  r.recipe = "split_scope(@1, param=8)\nvectorize(@2)\n";
  r.signature = "void perfdojo_mul(const float* x)";
  r.source = "line1\n  \"quoted\"\nline3\n";
  r.baseline_runtime = 0.1;          // not exactly representable: the
  r.tuned_runtime = 6.1541e-05;      // round-trip must preserve the bits
  r.evaluations = 42;
  TuneResponse back;
  std::string err;
  ASSERT_TRUE(parseTuneResponse(responseToJson(r), back, err)) << err;
  EXPECT_EQ(back.key, r.key);
  EXPECT_EQ(back.recipe, r.recipe);
  EXPECT_EQ(back.source, r.source);
  EXPECT_EQ(back.baseline_runtime, r.baseline_runtime);
  EXPECT_EQ(back.tuned_runtime, r.tuned_runtime);
  EXPECT_EQ(back.evaluations, r.evaluations);
  EXPECT_EQ(responseToJson(back), responseToJson(r));
}

TEST(ServeWire, RequestValidationRejectsMissingFields) {
  TuneRequest r;
  std::string err;
  EXPECT_FALSE(parseTuneRequest("{\"machine\":\"xeon\"}", r, err));
  EXPECT_NE(err.find("kernel"), std::string::npos);
  EXPECT_FALSE(parseTuneRequest("{\"kernel\":\"mul\"}", r, err));
  EXPECT_NE(err.find("machine"), std::string::npos);
  EXPECT_FALSE(parseTuneRequest("not json at all", r, err));
  EXPECT_FALSE(parseTuneRequest("[1,2,3]", r, err));
}

TEST(ServeHandle, UnknownNamesComeBackAsErrors) {
  TuneServer server(ServeConfig{});
  auto r = mulRequest();
  r.kernel = "no_such_kernel";
  auto resp = server.handle(r);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown kernel"), std::string::npos);

  r = mulRequest();
  r.machine = "pdp11";
  resp = server.handle(r);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown machine"), std::string::npos);

  r = mulRequest();
  r.optimizer = "annealing";
  resp = server.handle(r);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown optimizer"), std::string::npos);

  r = mulRequest();
  r.budget = 2'000'000'000;
  resp = server.handle(r);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("out of range"), std::string::npos);

  EXPECT_EQ(server.stats().errors, 4);
  EXPECT_EQ(server.stats().tuning_runs, 0);
}

TEST(ServeHandle, MemoryOnlyServerStillWarmsRepeats) {
  TuneServer server(ServeConfig{});
  EXPECT_EQ(server.store(), nullptr);
  const auto first = server.handle(mulRequest("a"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.served, "tuned");
  const auto second = server.handle(mulRequest("b"));
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.served, "warm");
  EXPECT_EQ(second.id, "b");
  EXPECT_EQ(second.recipe, first.recipe);
  EXPECT_EQ(second.tuned_runtime, first.tuned_runtime);
  EXPECT_EQ(server.stats().tuning_runs, 1);
  EXPECT_EQ(server.stats().warm_hits, 1);
}

TEST(ServeHandle, BudgetIsNormalizedOutOfDeterministicKeys) {
  // heuristic ignores the budget, so two different budgets must map to the
  // same schedule-cache key (the second request is a warm hit).
  TuneServer server(ServeConfig{});
  auto a = mulRequest("a");
  a.budget = 7;
  auto b = mulRequest("b");
  b.budget = 7000;
  const auto ra = server.handle(a);
  const auto rb = server.handle(b);
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_EQ(ra.key, rb.key);
  EXPECT_EQ(rb.served, "warm");
}

TEST(ServeHandle, WarmAcrossRestartWithZeroEvaluations) {
  const std::string dir = freshDir("pd_serve_restart");
  ServeConfig cfg;
  cfg.cache_dir = dir;
  TuneResponse cold;
  {
    TuneServer server(cfg);
    cold = server.handle(mulRequest());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.served, "tuned");
    EXPECT_GT(server.evalStats().misses, 0);
  }
  // A fresh server process over the same cache dir: the schedule comes back
  // bit-identical without a single machine-model evaluation.
  TuneServer server(cfg);
  const auto warm = server.handle(mulRequest());
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.served, "warm");
  EXPECT_EQ(warm.key, cold.key);
  EXPECT_EQ(warm.recipe, cold.recipe);
  EXPECT_EQ(warm.source, cold.source);
  EXPECT_EQ(warm.signature, cold.signature);
  EXPECT_EQ(warm.baseline_runtime, cold.baseline_runtime);
  EXPECT_EQ(warm.tuned_runtime, cold.tuned_runtime);
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(server.evalStats().requests, 0);
  EXPECT_EQ(server.evalStats().misses, 0);
  EXPECT_EQ(server.stats().tuning_runs, 0);
  EXPECT_EQ(server.stats().warm_hits, 1);
}

TEST(ServeHandle, ConcurrentDuplicatesCostOneTuningRun) {
  const std::string dir = freshDir("pd_serve_dedupe");
  ServeConfig cfg;
  cfg.cache_dir = dir;
  cfg.workers = 4;
  // search is slow enough that duplicates genuinely overlap in flight.
  TuneServer server(cfg);
  std::vector<TuneRequest> batch;
  std::stringstream in;
  for (int i = 0; i < 8; ++i) {
    auto r = mulRequest("req-" + std::to_string(i));
    r.optimizer = "search";
    r.budget = 60;
    batch.push_back(r);
    in << requestToJson(r) << "\n";
  }
  std::stringstream wire;
  EXPECT_EQ(runServe(server, in, wire), 8);
  // Responses stream in completion order; match them back up by id.
  std::map<std::string, TuneResponse> by_id;
  std::string line;
  while (std::getline(wire, line)) {
    TuneResponse resp;
    std::string err;
    ASSERT_TRUE(parseTuneResponse(line, resp, err)) << err;
    by_id[resp.id] = resp;
  }
  ASSERT_EQ(by_id.size(), batch.size());
  std::vector<TuneResponse> out;
  for (const auto& r : batch) {
    const auto it = by_id.find(r.id);
    ASSERT_NE(it, by_id.end()) << r.id;
    out.push_back(it->second);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok) << out[i].error;
    EXPECT_EQ(out[i].id, batch[i].id);
    EXPECT_EQ(out[i].key, out[0].key);
    EXPECT_EQ(out[i].recipe, out[0].recipe);
    EXPECT_EQ(out[i].tuned_runtime, out[0].tuned_runtime);
  }
  const auto st = server.stats();
  EXPECT_EQ(st.requests, 8);
  EXPECT_EQ(st.tuning_runs, 1);
  EXPECT_EQ(st.warm_hits + st.dedupe_joins, 7);
  EXPECT_EQ(st.errors, 0);
}

TEST(ServeHandle, ConcurrentDuplicatesOnWarmRestartAreAllWarm) {
  // A fresh server on a populated store: one request owns the key and reads
  // the store, the rest wait on or copy its result — every one of them was
  // served from disk, none waited on a tuning run.
  ServeConfig cfg;
  cfg.cache_dir = freshDir("pd_serve_warm_restart");
  ASSERT_EQ(TuneServer(cfg).handle(mulRequest()).served, "tuned");

  TuneServer server(cfg);
  std::vector<TuneResponse> resp(4);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < resp.size(); ++i)
    pool.emplace_back([&, i] {
      resp[i] = server.handle(mulRequest("warm-" + std::to_string(i)));
    });
  for (auto& th : pool) th.join();
  for (std::size_t i = 0; i < resp.size(); ++i) {
    ASSERT_TRUE(resp[i].ok) << resp[i].error;
    EXPECT_EQ(resp[i].served, "warm") << i;
    EXPECT_EQ(resp[i].id, "warm-" + std::to_string(i));
  }
  EXPECT_EQ(server.stats().warm_hits, 4);
  EXPECT_EQ(server.stats().tuning_runs, 0);
  EXPECT_EQ(server.stats().dedupe_joins, 0);
}

/// A tuner that tunes nothing: the request key is formed before tuning, so
/// key tests need no tuning run.
LibraryEntry stubTuner(const kernels::KernelInfo& k, const machines::Machine&,
                       const LibGenConfig&, search::EvalCache*) {
  LibraryEntry e;
  e.label = k.label;
  e.recipe = "stub\n";
  return e;
}

TEST(Serve, KeyIsKernelDefinitionHash) {
  // The server hashes each kernel once and reuses the hash; every key must
  // still equal the key formed from a fresh build of the kernel.
  ServeConfig cfg;
  cfg.tuner = stubTuner;
  TuneServer server(cfg);
  const std::pair<const char*, Optimizer> optimizers[] = {
      {"none", Optimizer::None},
      {"heuristic", Optimizer::Heuristic},
      {"search", Optimizer::Search},
      {"rl", Optimizer::PerfLLM}};
  int served = 0;
  for (const auto* catalog : {&kernels::table3(), &kernels::snitchMicro(),
                              &kernels::x86Uncommon()})
    for (const auto& k : *catalog) {
      const std::uint64_t hash = ir::canonicalHash(k.build());
      for (const auto& [name, opt] : optimizers) {
        TuneRequest r;
        r.id = k.label + "/" + name;
        r.kernel = k.label;
        r.machine = "snitch";
        r.optimizer = name;
        r.budget = 17;
        r.seed = 3;
        const bool budgeted =
            opt == Optimizer::Search || opt == Optimizer::PerfLLM;
        const std::uint64_t want = requestKey(k.label, hash, "snitch", opt,
                                              budgeted ? 17 : 0, 3);
        // First request (hash computed) and a repeat (hash reused).
        for (int rep = 0; rep < 2; ++rep) {
          const auto resp = server.handle(r);
          ASSERT_TRUE(resp.ok) << r.id << ": " << resp.error;
          EXPECT_EQ(resp.key, want) << r.id << " rep " << rep;
          EXPECT_EQ(resp.served, rep == 0 ? "tuned" : "warm") << r.id;
        }
        ++served;
      }
    }
  EXPECT_GT(served, 4 * 16);
  EXPECT_EQ(server.stats().errors, 0);
}

TEST(Serve, ConcurrentFirstRequestsForOneKernelShareOneKey) {
  // Eight threads send the first request for one kernel at once, so all of
  // them need the kernel's hash before any has it.
  ServeConfig cfg;
  cfg.tuner = stubTuner;
  TuneServer server(cfg);
  const std::uint64_t hash =
      ir::canonicalHash(kernels::findKernel("softmax")->build());
  const std::uint64_t want =
      requestKey("softmax", hash, "xeon", Optimizer::None, 0, 1);
  constexpr int kThreads = 8;
  std::vector<TuneResponse> resp(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      TuneRequest r;
      r.id = "t" + std::to_string(t);
      r.kernel = "softmax";
      r.machine = "xeon";
      r.optimizer = "none";
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      resp[static_cast<std::size_t>(t)] = server.handle(r);
    });
  for (auto& th : pool) th.join();
  for (const auto& got : resp) {
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.key, want) << got.id;
  }
  const auto st = server.stats();
  EXPECT_EQ(st.tuning_runs, 1);
  EXPECT_EQ(st.warm_hits + st.dedupe_joins, kThreads - 1);
}

TEST(ServeWireLoop, StreamsResponsesAndFlagsMalformedLines) {
  std::stringstream in;
  in << requestToJson(mulRequest("good")) << "\n"
     << "   \n"                                  // blank: skipped, not counted
     << "this is not json\n"
     << "{\"kernel\":\"mul\"}\n";                // missing machine
  std::stringstream out;
  TuneServer server(ServeConfig{});
  EXPECT_EQ(runServe(server, in, out), 3);

  int ok = 0, bad = 0;
  std::string line;
  while (std::getline(out, line)) {
    TuneResponse resp;
    std::string err;
    ASSERT_TRUE(parseTuneResponse(line, resp, err)) << err;
    if (resp.ok) {
      EXPECT_EQ(resp.id, "good");
      ++ok;
    } else {
      EXPECT_NE(resp.error.find("malformed request"), std::string::npos);
      ++bad;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(bad, 2);
  EXPECT_EQ(server.stats().requests, 3);
  EXPECT_EQ(server.stats().errors, 2);
}

TEST(ServeWireLoop, FailedResponseWriteIsReported) {
  // A stream buffer with no room: every write fails and sets badbit.
  struct FullBuf : std::streambuf {};
  FullBuf full;
  std::ostream out(&full);
  std::stringstream in;
  for (int i = 0; i < 3; ++i)
    in << requestToJson(mulRequest("r" + std::to_string(i))) << "\n";
  ServeConfig cfg;
  cfg.workers = 1;
  TuneServer server(cfg);
  EXPECT_THROW(runServe(server, in, out), Error);
  // No line is taken after the first failed write.
  EXPECT_EQ(server.stats().requests, 1);
}

TEST(ShardStore, PutGetAndStats) {
  search::ShardStore store(freshDir("pd_shard_basic"), 4);
  std::string out;
  EXPECT_FALSE(store.get(1, out));
  store.put(1, "{\"v\":1}");
  store.put(5, "{\"v\":5}");   // same shard as key 1 (5 % 4 == 1)
  store.put(2, "{\"v\":2}");
  ASSERT_TRUE(store.get(5, out));
  EXPECT_EQ(out, "{\"v\":5}");
  store.put(5, "{\"v\":55}");  // overwrite
  ASSERT_TRUE(store.get(5, out));
  EXPECT_EQ(out, "{\"v\":55}");
  const auto st = store.stats();
  EXPECT_EQ(st.puts, 4);
  EXPECT_EQ(st.entries, 3u);
  EXPECT_EQ(st.hits, 2);
  EXPECT_EQ(st.gets, 3);
  EXPECT_EQ(st.quarantined, 0);
}

TEST(ShardStore, PersistsAcrossReopen) {
  const std::string dir = freshDir("pd_shard_reopen");
  {
    search::ShardStore store(dir, 3);
    for (std::uint64_t k = 0; k < 50; ++k)
      store.put(k * 0x9e3779b97f4a7c15ULL + 1, "{\"k\":" + std::to_string(k) + "}");
  }
  search::ShardStore store(dir, 3);
  EXPECT_EQ(store.stats().entries, 50u);
  std::string out;
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(store.get(k * 0x9e3779b97f4a7c15ULL + 1, out)) << k;
    EXPECT_EQ(out, "{\"k\":" + std::to_string(k) + "}");
  }
}

TEST(ShardStore, RejectsMultilineRecords) {
  search::ShardStore store(freshDir("pd_shard_multiline"), 2);
  EXPECT_THROW(store.put(7, "line1\nline2"), Error);
}

TEST(ShardStore, QuarantinesCorruptShardFiles) {
  const std::string dir = freshDir("pd_shard_corrupt");
  const std::uint64_t key = 4;  // shard 0 of 4
  {
    search::ShardStore store(dir, 4);
    store.put(key, "{\"v\":4}");
  }
  {
    // A crash or hand edit leaves a half-written line in the shard file.
    std::ofstream f(dir + "/" + search::ShardStore::shardName(0),
                    std::ios::app);
    f << "deadbeef {truncated reco";
  }
  search::ShardStore store(dir, 4);
  EXPECT_EQ(store.stats().quarantined, 1);
  EXPECT_TRUE(fs::exists(dir + "/" + search::ShardStore::shardName(0) +
                         ".corrupt"));
  std::string out;
  // The torn line condemns only itself: the healthy entry is salvaged and
  // keeps serving.
  ASSERT_TRUE(store.get(key, out));
  EXPECT_EQ(out, "{\"v\":4}");
  // The salvage was re-persisted, so a second open is clean — no
  // re-quarantine of damage that is already gone.
  search::ShardStore reopened(dir, 4);
  EXPECT_EQ(reopened.stats().quarantined, 0);
  EXPECT_TRUE(reopened.get(key, out));
}

TEST(ShardStore, CorruptEntryDoesNotDropHealthySiblings) {
  // Three records in the same shard file; one record's JSON is damaged in
  // place. Quarantine must salvage the two healthy siblings, miss only the
  // damaged key, and leave a clean (non-re-quarantining) file behind.
  const std::string dir = freshDir("pd_shard_sibling");
  const std::uint64_t k1 = 4, k2 = 8, k3 = 12;  // all shard 0 of 4
  {
    search::ShardStore store(dir, 4);
    store.put(k1, "{\"v\":4}");
    store.put(k2, "{\"v\":8}");
    store.put(k3, "{\"v\":12}");
  }
  const std::string path = dir + "/" + search::ShardStore::shardName(0);
  {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto pos = text.find("{\"v\":8}");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, "{\"v\":8 ");  // drop the closing brace
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  search::ShardStore store(dir, 4);
  EXPECT_EQ(store.stats().quarantined, 1);
  EXPECT_EQ(store.stats().entries, 2u);
  std::string out;
  ASSERT_TRUE(store.get(k1, out));
  EXPECT_EQ(out, "{\"v\":4}");
  EXPECT_FALSE(store.get(k2, out));  // only the damaged record is lost
  ASSERT_TRUE(store.get(k3, out));
  EXPECT_EQ(out, "{\"v\":12}");
  EXPECT_TRUE(fs::exists(path + ".corrupt"));

  search::ShardStore reopened(dir, 4);
  EXPECT_EQ(reopened.stats().quarantined, 0);
  EXPECT_EQ(reopened.stats().entries, 2u);
  ASSERT_TRUE(reopened.get(k1, out));
  ASSERT_TRUE(reopened.get(k3, out));
}

// --- Hazards of a cache directory shared by several processes -------------
//
// Each test below drives real processes (fork) against one directory: two
// servers appending at once, a writer killed with SIGKILL mid-put, a writer
// hitting its file-size limit (the same short write a full disk gives).

std::string shardRecord(std::uint64_t key, std::size_t pad = 0) {
  return "{\"k\":" + std::to_string(key) + ",\"pad\":\"" +
         std::string(pad, 'x') + "\"}";
}

/// Runs `body` in a forked child and returns the child's pid. The child
/// leaves through _exit with body's return value (100 when it throws), so it
/// never runs the parent's gtest teardown or atexit handlers.
template <typename Body>
pid_t forkChild(Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 100;
    try {
      code = body();
    } catch (...) {
    }
    ::_exit(code);
  }
  return pid;
}

/// Reaps `pid`; its exit code, or -1 when a signal ended it.
int reap(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ShardStore, ConcurrentProcessesKeepEveryRecord) {
  // Two servers sharing one cache directory: every put of each must land,
  // none may throw, and neither may drop the other's records.
  const std::string dir = freshDir("pd_shard_two_procs");
  const std::uint64_t kPerChild = 200;
  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  std::vector<pid_t> children;
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1000000}}) {
    children.push_back(forkChild([&] {
      search::ShardStore store(dir, 4);
      ::close(go[1]);
      char c;
      (void)!::read(go[0], &c, 1);  // start together: EOF once the parent closes
      int threw = 0;
      for (std::uint64_t k = 0; k < kPerChild; ++k) {
        try {
          store.put(base + k, shardRecord(base + k, 64));
        } catch (const Error&) {
          ++threw;
        }
      }
      return threw;
    }));
  }
  ::close(go[0]);
  ::close(go[1]);
  for (const pid_t pid : children) EXPECT_EQ(reap(pid), 0) << "puts threw";

  search::ShardStore store(dir, 4);
  EXPECT_EQ(store.stats().entries, 2 * kPerChild);
  EXPECT_EQ(store.stats().quarantined, 0);
  std::string out;
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1000000}})
    for (std::uint64_t k = 0; k < kPerChild; ++k) {
      ASSERT_TRUE(store.get(base + k, out)) << base + k;
      EXPECT_EQ(out, shardRecord(base + k, 64));
    }
}

TEST(ShardStore, FileSizeLimitFailsPutWithoutTearingTheShard) {
  // RLIMIT_FSIZE with SIGXFSZ ignored makes write(2) stop short with EFBIG,
  // exactly as a full disk stops it with ENOSPC.
  const std::string dir = freshDir("pd_shard_fsize");
  const pid_t pid = forkChild([&] {
    ::signal(SIGXFSZ, SIG_IGN);
    search::ShardStore store(dir, 1);
    for (std::uint64_t k = 0; k < 10; ++k) store.put(k, shardRecord(k, 32));
    rlimit lim{};
    if (::getrlimit(RLIMIT_FSIZE, &lim) != 0) return 1;
    const rlim_t unlimited = lim.rlim_cur;
    lim.rlim_cur = static_cast<rlim_t>(fs::file_size(store.shardPath(0)) + 8);
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) return 2;
    bool threw = false;
    try {
      store.put(99, shardRecord(99, 256));
    } catch (const Error&) {
      threw = true;
    }
    if (!threw) return 3;
    std::string out;
    if (!store.get(99, out)) return 4;  // the in-memory entry is kept
    // The failed write leaves nothing behind: no torn line, no temp file.
    int files = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++files;
    }
    if (files != 1) return 5;
    lim.rlim_cur = unlimited;
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) return 6;
    store.put(10, shardRecord(10, 32));  // the shard stays appendable
    return 0;
  });
  ASSERT_EQ(reap(pid), 0);

  search::ShardStore store(dir, 1);
  EXPECT_EQ(store.stats().quarantined, 0);
  std::string out;
  for (std::uint64_t k = 0; k <= 10; ++k) {
    ASSERT_TRUE(store.get(k, out)) << k;
    EXPECT_EQ(out, shardRecord(k, 32));
  }
}

TEST(ShardStore, PutAfterTornTailFromAnotherWriterLands) {
  // A second server sharing the directory puts one record, then dies in the
  // middle of its next append. The first server's following put must land
  // and must not drop the second server's record.
  const std::string dir = freshDir("pd_shard_torn_tail");
  search::ShardStore store(dir, 1);
  store.put(1, shardRecord(1));
  {
    search::ShardStore other(dir, 1);
    other.put(2, shardRecord(2));
  }
  {
    std::ofstream f(store.shardPath(0), std::ios::app);
    f << "00000000000000ff 0123456789abcdef {\"k\":255,\"pa";
  }
  store.put(3, shardRecord(3));

  search::ShardStore reopened(dir, 1);
  EXPECT_EQ(reopened.stats().quarantined, 1);  // the torn line, alone
  EXPECT_EQ(reopened.stats().entries, 3u);
  std::string out;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(reopened.get(k, out)) << k;
    EXPECT_EQ(out, shardRecord(k));
  }
  // Open compacted the damage away.
  search::ShardStore again(dir, 1);
  EXPECT_EQ(again.stats().quarantined, 0);
  EXPECT_EQ(again.stats().entries, 3u);
}

TEST(ShardStore, KilledWritersLoseNoAcknowledgedPut) {
  // Two writers in a put loop report every key whose put returned, and are
  // killed with SIGKILL mid-stream. Every acknowledged key must load.
  const std::string dir = freshDir("pd_shard_kill9");
  struct Writer {
    pid_t pid;
    int ack;  // read end: one uint64 per acknowledged put
  };
  std::vector<Writer> writers;
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{1} << 40}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = forkChild([&] {
      ::close(fds[0]);
      search::ShardStore store(dir, 4);
      for (std::uint64_t k = base; k < base + 20000; ++k) {
        try {
          store.put(k, shardRecord(k, 512));
        } catch (const Error&) {
          continue;  // not acknowledged, so not owed
        }
        if (::write(fds[1], &k, sizeof k) != sizeof k) return 1;
      }
      return 0;
    });
    ::close(fds[1]);
    writers.push_back({pid, fds[0]});
  }
  std::vector<std::uint64_t> acked;
  auto readAck = [&](int fd) {
    std::uint64_t k = 0;
    if (::read(fd, &k, sizeof k) != sizeof k) return false;
    acked.push_back(k);
    return true;
  };
  for (const Writer& w : writers) {
    const std::size_t want = acked.size() + 100;
    while (acked.size() < want && readAck(w.ack)) continue;
  }
  for (const Writer& w : writers) ::kill(w.pid, SIGKILL);
  for (const Writer& w : writers) {
    reap(w.pid);
    while (readAck(w.ack)) continue;  // acks still in the pipe count too
    ::close(w.ack);
  }
  ASSERT_GE(acked.size(), 200u);

  search::ShardStore store(dir, 4);
  std::string out;
  for (const std::uint64_t k : acked) {
    ASSERT_TRUE(store.get(k, out)) << k;
    EXPECT_EQ(out, shardRecord(k, 512));
  }
}

TEST(ShardStore, LegacyTwoFieldShardLoadsAndCompacts) {
  // Shard files written before records carried a checksum still load, and
  // open rewrites them in the checksummed format.
  const std::string dir = freshDir("pd_shard_legacy");
  fs::create_directories(dir);
  const std::string path = dir + "/" + search::ShardStore::shardName(0);
  {
    std::ofstream f(path);
    f << "0000000000000004 {\"v\":4}\n0000000000000008 {\"v\":8}\n";
  }
  {
    search::ShardStore store(dir, 4);
    EXPECT_EQ(store.stats().quarantined, 0);
    EXPECT_EQ(store.stats().entries, 2u);
    std::string out;
    ASSERT_TRUE(store.get(4, out));
    EXPECT_EQ(out, "{\"v\":4}");
    ASSERT_TRUE(store.get(8, out));
    EXPECT_EQ(out, "{\"v\":8}");
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // "<16-hex key> <16-hex checksum> <record>"
    ASSERT_GT(line.size(), 34u) << line;
    EXPECT_EQ(line[16], ' ') << line;
    EXPECT_EQ(line[33], ' ') << line;
    EXPECT_EQ(line[34], '{') << line;
  }
  EXPECT_EQ(lines, 2);
  search::ShardStore reopened(dir, 4);
  EXPECT_EQ(reopened.stats().entries, 2u);
  EXPECT_EQ(reopened.stats().quarantined, 0);
}

TEST(ServeHandle, CorruptCacheDirIsSurvivable) {
  // End to end: a corrupted shard must cost a re-tune, not a crash.
  const std::string dir = freshDir("pd_serve_corrupt");
  ServeConfig cfg;
  cfg.cache_dir = dir;
  std::uint64_t key = 0;
  {
    TuneServer server(cfg);
    key = server.handle(mulRequest()).key;
  }
  {
    const int shard = static_cast<int>(key % static_cast<std::uint64_t>(8));
    std::ofstream f(dir + "/" + search::ShardStore::shardName(shard),
                    std::ios::trunc);
    f << "garbage\n";
  }
  TuneServer server(cfg);
  ASSERT_NE(server.store(), nullptr);
  EXPECT_EQ(server.store()->stats().quarantined, 1);
  const auto resp = server.handle(mulRequest());
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.served, "tuned");  // re-tuned, then re-persisted
  TuneServer again(cfg);
  EXPECT_EQ(again.handle(mulRequest()).served, "warm");
}

TEST(InflightMap, FirstClaimOwnsLaterClaimsJoin) {
  search::InflightMap<int> inflight;
  auto a = inflight.claim(42);
  EXPECT_TRUE(a.owner);
  auto b = inflight.claim(42);
  EXPECT_FALSE(b.owner);
  EXPECT_TRUE(inflight.claim(43).owner);  // distinct keys are independent
  EXPECT_EQ(inflight.size(), 2u);

  std::thread waiter([&] { EXPECT_EQ(b.future.get(), 7); });
  inflight.fulfill(42, 7);
  waiter.join();
  EXPECT_EQ(a.future.get(), 7);
  EXPECT_EQ(inflight.size(), 2u);          // 42 kept, 43 still pending
  EXPECT_FALSE(inflight.claim(42).owner);  // fulfilled keys are not re-owned
}

TEST(InflightMap, FulfilledKeyServesLaterClaims) {
  search::InflightMap<int> inflight;
  ASSERT_TRUE(inflight.claim(7).owner);
  inflight.fulfill(7, 5);
  auto later = inflight.claim(7);
  EXPECT_FALSE(later.owner);
  ASSERT_EQ(later.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(later.future.get(), 5);
  EXPECT_EQ(inflight.size(), 1u);
}

TEST(InflightMap, FailurePropagatesToEveryWaiter) {
  search::InflightMap<int> inflight;
  auto owner = inflight.claim(1);
  ASSERT_TRUE(owner.owner);
  auto joined = inflight.claim(1);
  inflight.fail(1, std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_THROW(joined.future.get(), std::runtime_error);
  EXPECT_THROW(owner.future.get(), std::runtime_error);
  EXPECT_EQ(inflight.size(), 0u);
}

TEST(InflightServe, ThrowingTunerFailsEveryWaiterAndRetires) {
  // Regression: a tuning run that throws while identical requests are
  // waiting on the in-flight future. Before the owner-guard fix, only a
  // `const std::exception&` throw reached inflight_.fail — anything else
  // left the entry in the map forever: the waiters hung, and every later
  // request for the key joined the dead promise instead of retrying.
  std::promise<void> owner_in_tuner;
  std::promise<void> release_owner;
  std::atomic<int> calls{0};
  ServeConfig cfg;
  cfg.workers = 1;  // handle() is driven from explicit threads below
  cfg.tuner = [&](const kernels::KernelInfo& k, const machines::Machine& m,
                  const LibGenConfig& c,
                  search::EvalCache* cache) -> LibraryEntry {
    if (calls.fetch_add(1) == 0) {
      owner_in_tuner.set_value();
      release_owner.get_future().wait();
      throw Error("model exploded on first call");
    }
    return tuneOne(k, m, c, cache);
  };
  TuneServer server(cfg);

  TuneResponse owner_resp;
  std::thread owner(
      [&] { owner_resp = server.handle(mulRequest("owner")); });
  owner_in_tuner.get_future().wait();
  // The owner is parked inside the tuning run, so these claims are
  // guaranteed to join its in-flight entry, not start runs of their own.
  std::vector<TuneResponse> waiter_resp(3);
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i)
    waiters.emplace_back([&, i] {
      waiter_resp[static_cast<std::size_t>(i)] =
          server.handle(mulRequest("waiter-" + std::to_string(i)));
    });
  // Give the waiters time to reach future.get(); correctness does not
  // depend on it (a claim made any time before fail() joins the entry).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_owner.set_value();
  owner.join();
  for (auto& w : waiters) w.join();

  EXPECT_FALSE(owner_resp.ok);
  EXPECT_NE(owner_resp.error.find("model exploded"), std::string::npos)
      << owner_resp.error;
  for (const auto& wr : waiter_resp) {
    EXPECT_FALSE(wr.ok);
    EXPECT_NE(wr.error.find("model exploded"), std::string::npos) << wr.error;
  }
  EXPECT_EQ(server.stats().errors, 4);
  EXPECT_EQ(server.stats().tuning_runs, 0);  // only successes count

  // The failed entry must be retired: the next identical request becomes a
  // fresh owner and retries (second tuner call succeeds).
  const auto retry = server.handle(mulRequest("retry"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.served, "tuned");
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(server.stats().tuning_runs, 1);
}

TEST(InflightServe, NonStandardThrowStillFailsWaitersAndAllowsRetry) {
  // A tuner that throws something not derived from std::exception must not
  // escape handle() (documented never-throws) and must not abandon the
  // in-flight entry.
  std::atomic<int> calls{0};
  ServeConfig cfg;
  cfg.tuner = [&](const kernels::KernelInfo& k, const machines::Machine& m,
                  const LibGenConfig& c,
                  search::EvalCache* cache) -> LibraryEntry {
    if (calls.fetch_add(1) == 0) throw 42;  // NOLINT: deliberately non-std
    return tuneOne(k, m, c, cache);
  };
  TuneServer server(cfg);
  const auto first = server.handle(mulRequest("first"));
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.error.find("non-standard"), std::string::npos)
      << first.error;
  const auto retry = server.handle(mulRequest("retry"));
  ASSERT_TRUE(retry.ok) << retry.error;
  EXPECT_EQ(retry.served, "tuned");
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace perfdojo::libgen
