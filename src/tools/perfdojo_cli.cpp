// perfdojo — command-line driver over the whole stack.
//
//   perfdojo list                                  # kernels and machines
//   perfdojo show      --kernel softmax            # textual IR
//   perfdojo optimize  --kernel softmax --machine xeon
//                      --tier naive|greedy|heuristic|sa|rl|exact
//                      [--budget N] [--depth K] [--emit c|cuda|ir]
//                      (--method is the historical alias of --tier)
//   perfdojo certs     --dir tests/data/exact [--update 0|1]
//                      [--kernels a,b --machines x,y --depth K]
//                      # recompute exact-tier optimality certificates and
//                      # diff them against the checked-in baselines
//   perfdojo profile   --kernel softmax --machine snitch
//                      [--method naive|greedy|heuristic|best] [--top N]
//                      # per-transform cost attribution (the Fig. 9 trace)
//   perfdojo compare   --kernel softmax --machine xeon  # vs every baseline
//   perfdojo libgen    --machine gh200 --out dir --method heuristic
//   perfdojo fuzz      [--budget-sec N | --trajectories N] [--seed S]
//                      [--kernel label] [--profile cpu|gpu|snitch]
//                      [--corpus dir] [--replay file] [--out dir]
//   perfdojo serve     --cache-dir dir [--workers N]
//                      [--in file] [--out-file file]
//                      # long-running tuning service: line-delimited JSON
//                      # requests in (stdin or --in), responses out
//   perfdojo client    --kernel mul --machine xeon [--method m] [--budget N]
//                      [--count N] [--seed S]   # emit request lines
//   perfdojo client    --cold cold.jsonl --warm warm.jsonl
//                      # verify a warm re-serve against its cold run
//   perfdojo train-prior --trace-in a.jsonl,b.jsonl --model-out prior.json
//                      # fit the learned cost-model prior from traces
//                      # recorded with `optimize ... --trace-programs 1`
//
// Exit status is non-zero on unknown kernels/machines/flags and malformed
// numeric flag values, for `fuzz` also when any oracle failure is found
// (or a corpus seed regresses), and for `serve` also when a request fails
// or a response line cannot be written. A flag the subcommand does not
// accept, or a flag without a value, exits 2 with usage before any work
// starts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "codegen/c_codegen.h"
#include "fuzz/fuzzer.h"
#include "ir/printer.h"
#include "kernels/kernels.h"
#include "libgen/libgen.h"
#include "libgen/server.h"
#include "machines/machine.h"
#include "rl/perfllm.h"
#include "search/exact.h"
#include "search/pass.h"
#include "search/prior.h"
#include "search/prior_train.h"
#include "search/search.h"
#include "support/io.h"
#include "support/numeric.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/telemetry.h"

using namespace perfdojo;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::string error;  // the first malformed argument; empty if none

  std::string get(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
};

/// `perfdojo <command> --flag value ...`. Stops at the first argument that
/// is not a `--flag` or has no value after it, and records it in `error`.
Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc && a.error.empty(); i += 2) {
    const std::string arg = argv[i];
    if (arg.size() <= 2 || arg.rfind("--", 0) != 0)
      a.error = "unexpected argument '" + arg + "'";
    else if (i + 1 == argc)
      a.error = "missing value for " + arg;
    else
      a.flags[arg.substr(2)] = argv[i + 1];
  }
  return a;
}

/// Checked numeric flags: `--budget abc` or `--budget -5` must be a
/// diagnostic and a nonzero exit, never a silent 0 (std::atoi) or an
/// accepted negative. Throws Error, which main() reports and exits 1 on.
std::int64_t flagInt(const Args& a, const std::string& key, std::int64_t def,
                     std::int64_t lo, std::int64_t hi) {
  auto it = a.flags.find(key);
  if (it == a.flags.end()) return def;
  std::int64_t v = 0;
  if (!parseInt64(it->second, v) || v < lo || v > hi)
    fail("invalid --" + key + " '" + it->second +
         "': expected an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  return v;
}

std::uint64_t flagSeed(const Args& a, const std::string& key,
                       std::uint64_t def) {
  auto it = a.flags.find(key);
  if (it == a.flags.end()) return def;
  std::uint64_t v = 0;
  if (!parseUint64(it->second, v))
    fail("invalid --" + key + " '" + it->second +
         "': expected an unsigned integer");
  return v;
}

double flagDouble(const Args& a, const std::string& key, double def, double lo,
                  double hi) {
  auto it = a.flags.find(key);
  if (it == a.flags.end()) return def;
  double v = 0;
  if (!parseDouble(it->second, v) || !(v >= lo && v <= hi))
    fail("invalid --" + key + " '" + it->second + "': expected a number in [" +
         fmt(lo, 6) + ", " + fmt(hi, 6) + "]");
  return v;
}

/// --prior-topk spells "all" (keep every neighbor, prior inert) or a
/// positive neighbor count. A typo must be a diagnostic, never a silent 0.
int flagPriorTopk(const Args& a) {
  auto it = a.flags.find("prior-topk");
  if (it == a.flags.end() || it->second == "all") return search::kPriorTopkAll;
  std::int64_t v = 0;
  if (!parseInt64(it->second, v) || v < 1 || v > 1000000)
    fail("invalid --prior-topk '" + it->second +
         "': expected 'all' or an integer in [1, 1000000]");
  return static_cast<int>(v);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfdojo <list|show|optimize|profile|compare|libgen|fuzz|serve|client|certs|train-prior> [flags]\n"
               "  --kernel <label>    (see `perfdojo list`)\n"
               "  --machine <name>    snitch | xeon | gh200 | mi300a\n"
               "  --tier <t>          naive | greedy | heuristic | sa | rl | exact | best\n"
               "  --method <m>        historical alias of --tier (search == sa)\n"
               "  --budget <n>        search evaluations / rl episodes\n"
               "exact-tier flags (optimality certificates):\n"
               "  --depth <k>         exhaustive expansion radius (default 3)\n"
               "  --max-states <n>    distinct-state budget before degrading to a bound\n"
               "  --no-prune <0|1>    1 disables lower-bound pruning\n"
               "  --cert-out <file>   write the optimality certificate JSON to <file>\n"
               "  --threads <n>       exact-tier worker threads, optimize and certs\n"
               "                      only (0 = all cores; other tiers ignore it)\n"
               "certs flags (baseline maintenance):\n"
               "  --dir <dir>         certificate directory (default tests/data/exact)\n"
               "  --update <0|1>      1 rewrites baselines + quality gates in place\n"
               "  --kernels <a,b>     with --update: also generate these kernels\n"
               "  --machines <x,y>    with --update: ... on these machines\n"
               "  --no-cache <0|1>    1 disables evaluation memoization\n"
               "  --emit <fmt>        ir | c | cuda\n"
               "  --out <dir>         libgen / fuzz-witness output directory\n"
               "  --trace-out <file>  append JSONL telemetry events to <file>\n"
               "learned-prior flags (optimize --tier sa, edges structure):\n"
               "  --structure <s>     edges | heuristic (search-space structure)\n"
               "  --prior <file>      load a trained cost-model prior\n"
               "  --prior-topk <k|all>  neighbors kept per state ('all' = inert)\n"
               "  --no-prior <0|1>    1 ignores --prior entirely\n"
               "  --trace-programs <0|1>  1 records canonical program text in the\n"
               "                      trace (the train-prior dataset)\n"
               "train-prior flags:\n"
               "  --trace-in <a,b>    comma-separated JSONL trace files\n"
               "  --model-out <file>  where the trained model is written\n"
               "  --hidden/--epochs/--lr/--holdout/--seed  training knobs\n"
               "profile flags (per-transform cost attribution):\n"
               "  --method <m>        naive | greedy | heuristic | best\n"
               "  --top <n>           scopes shown in the attribution table\n"
               "fuzz flags:\n"
               "  --budget-sec <s>    wall-clock fuzzing budget (0 = use --trajectories)\n"
               "  --trajectories <n>  trajectories per (kernel, profile) pair\n"
               "  --max-steps <n>     max actions per trajectory\n"
               "  --seed <s>          base fuzzing seed\n"
               "  --profile <p>       cpu | gpu | snitch (default: all)\n"
               "  --codegen <0|1>     1 runs the codegen oracle at every step\n"
               "  --corpus <dir>      re-run *.witness regression seeds first\n"
               "  --replay <file>     re-execute one witness and exit\n"
               "serve flags (line-delimited JSON tuning service):\n"
               "  --cache-dir <dir>   persistent schedule cache (\"\" = memory-only)\n"
               "  --workers <n>       concurrent tuning slots (default 4)\n"
               "  --episodes <n>      default rl episodes per request\n"
               "  --in <file>         read requests from <file> instead of stdin\n"
               "  --out-file <file>   write responses to <file> instead of stdout\n"
               "client flags:\n"
               "  --kernel/--machine/--method/--budget/--seed --count <n>\n"
               "                      emit <n> duplicate request lines on stdout\n"
               "  --cold <f> --warm <f>  verify a warm re-serve against its cold run\n");
  return 2;
}

/// JSONL sink for --trace-out; nullptr (telemetry off) when the flag is
/// absent. Subsystem hooks all accept the nullptr.
std::unique_ptr<Telemetry> makeTrace(const Args& a) {
  const auto path = a.get("trace-out");
  if (path.empty()) return nullptr;
  return Telemetry::toFile(path);
}

const kernels::KernelInfo* needKernel(const Args& a) {
  const auto label = a.get("kernel");
  const auto* k = kernels::findKernel(label);
  if (!k) std::fprintf(stderr, "unknown kernel '%s'\n", label.c_str());
  return k;
}

const machines::Machine* needMachine(const Args& a) {
  const auto name = a.get("machine", "xeon");
  const auto* m = machines::findMachine(name);
  if (!m) std::fprintf(stderr, "unknown machine '%s'\n", name.c_str());
  return m;
}

int cmdList() {
  std::printf("machines: snitch xeon gh200 mi300a\n\nkernels:\n");
  Table t({"label", "shape", "description"});
  for (const auto* cat :
       {&kernels::table3(), &kernels::snitchMicro(), &kernels::x86Uncommon()})
    for (const auto& k : *cat) t.addRow({k.label, k.shape, k.description});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmdShow(const Args& a) {
  const auto* k = needKernel(a);
  if (!k) return 2;
  std::printf("%s", ir::printProgram(k->build()).c_str());
  return 0;
}

int emitProgram(const ir::Program& p, const std::string& fmt) {
  if (fmt == "ir") std::printf("%s", ir::printProgram(p).c_str());
  else if (fmt == "c") std::printf("%s", codegen::generateC(p).c_str());
  else if (fmt == "cuda") std::printf("%s", codegen::generateCuda(p).c_str());
  else {
    std::fprintf(stderr, "unknown emit format\n");
    return 2;
  }
  return 0;
}

int cmdOptimize(const Args& a) {
  const auto* k = needKernel(a);
  const auto* m = needMachine(a);
  if (!k || !m) return 2;
  // --tier is the pass-ladder spelling (naive/greedy/heuristic/sa/rl/exact);
  // --method is the historical alias, with "search" == "sa".
  std::string method = a.get("tier", a.get("method", "heuristic"));
  if (method == "sa") method = "search";
  const int budget = static_cast<int>(flagInt(a, "budget", 300, 0, 1000000000));
  // Checked for every tier, read by the exact tier only.
  const int threads = static_cast<int>(flagInt(a, "threads", 0, 0, 4096));
  // Only the edges structure consults the prior; on the heuristic structure
  // it would run inert, so the combination is refused before any file I/O.
  if (method == "search" && !a.get("prior").empty() &&
      a.get("no-prior", "0") != "1" &&
      a.get("structure", "heuristic") == "heuristic")
    fail("--prior needs --structure edges: the heuristic structure (the "
         "default) never consults the prior");
  const auto trace = makeTrace(a);
  const ir::Program base = k->build();
  ir::Program tuned = base;
  std::int64_t evals = 1;
  if (method == "naive") tuned = search::naivePass(base, *m).current();
  else if (method == "greedy") tuned = search::greedyPass(base, *m).current();
  else if (method == "heuristic") tuned = search::heuristicPass(base, *m).current();
  else if (method == "best") tuned = search::bestPass(base, *m).current();
  else if (method == "search") {
    search::SearchConfig sc;
    sc.budget = budget;
    if (const auto s = a.get("structure", "heuristic"); s == "edges")
      sc.structure = search::SpaceStructure::Edges;
    else if (s != "heuristic")
      fail("invalid --structure '" + s + "': expected edges or heuristic");
    sc.use_cache = a.get("no-cache", "0") != "1";
    sc.trace_programs = a.get("trace-programs", "0") == "1";
    sc.telemetry = trace.get();
    // The prior must outlive the search; --no-prior wins over --prior so a
    // scripted invocation can be neutralized without editing its flag list.
    search::PriorModel prior;
    if (const auto path = a.get("prior");
        !path.empty() && a.get("no-prior", "0") != "1") {
      sc.prior_topk = flagPriorTopk(a);  // flag diagnostics before file I/O
      prior = search::PriorModel::load(path);
      sc.prior = &prior;
    }
    const auto r = search::runSearch(base, *m, sc);
    tuned = r.best;
    evals = r.evals;
    const auto& st = r.stats;
    std::fprintf(stderr,
                 "search stats: %lld evals requested, %lld cache hits, "
                 "%lld machine evals, %lld unique programs, %.1f ms\n",
                 static_cast<long long>(st.evals_requested),
                 static_cast<long long>(st.cache_hits),
                 static_cast<long long>(st.machine_evals),
                 static_cast<long long>(st.unique_programs), st.wall_ms);
    if (sc.prior != nullptr && sc.prior_topk > 0)
      std::fprintf(stderr,
                   "prior stats: %lld neighbors filtered, %lld kept+priced, "
                   "hit rate %.3f, spearman %.3f\n",
                   static_cast<long long>(st.prior_filtered),
                   static_cast<long long>(st.prior_kept), st.prior_hit_rate,
                   st.prior_spearman);
  } else if (method == "exact") {
    search::ExactConfig ec;
    ec.depth = static_cast<int>(flagInt(a, "depth", 3, 1, 64));
    ec.max_states = flagInt(a, "max-states", 200000, 1, 1000000000000LL);
    ec.threads = threads;
    ec.prune = a.get("no-prune", "0") != "1";
    ec.kernel_label = k->label;
    ec.telemetry = trace.get();
    const auto r = search::runExact(base, *m, ec);
    tuned = r.best;
    evals = r.machine_evals;
    std::fprintf(stderr,
                 "exact: reason=%s depth=%d states=%lld expanded=%lld "
                 "pruned=%lld optimal=%.4g s (%d threads, %.1f ms)\n",
                 search::terminationReasonName(r.reason), ec.depth,
                 static_cast<long long>(r.cert.states),
                 static_cast<long long>(r.cert.expanded),
                 static_cast<long long>(r.cert.pruned), r.best_cost,
                 r.threads_used, r.wall_ms);
    if (const auto path = a.get("cert-out"); !path.empty()) {
      writeTextFileAtomic(path, r.cert.toJson() + "\n");
      std::fprintf(stderr, "certificate written to %s\n", path.c_str());
    }
  } else if (method == "rl") {
    rl::PerfLLMConfig rc;
    rc.episodes = budget > 0 ? budget : 60;
    rc.telemetry = trace.get();
    const auto r = rl::optimizeKernel(base, *m, rc);
    tuned = r.best;
    evals = r.evals;
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s on %s via %s: %.4g s -> %.4g s (%.2fx, %lld evals)\n",
               k->label.c_str(), m->name().c_str(), method.c_str(),
               m->evaluate(base), m->evaluate(tuned),
               m->evaluate(base) / m->evaluate(tuned),
               static_cast<long long>(evals));
  return emitProgram(tuned, a.get("emit", "ir"));
}

/// The Fig. 9 manual trace, automated: replay a deterministic pass step by
/// step, printing each transformation's cost delta and component breakdown,
/// then a top-N "where do the cycles go" per-scope attribution of the final
/// implementation.
int cmdProfile(const Args& a) {
  const auto* k = needKernel(a);
  const auto* m = needMachine(a);
  if (!k || !m) return 2;
  const auto method = a.get("method", "heuristic");
  if (method != "naive" && method != "greedy" && method != "heuristic" &&
      method != "best") {
    std::fprintf(stderr, "profile: unknown method '%s'\n", method.c_str());
    return 2;
  }
  const std::size_t top_n =
      static_cast<std::size_t>(flagInt(a, "top", 8, 1, 1000000));
  const auto trace = makeTrace(a);
  const ir::Program base = k->build();
  const transform::History h = [&] {
    if (method == "naive") return search::naivePass(base, *m);
    if (method == "greedy") return search::greedyPass(base, *m);
    if (method == "best") return search::bestPass(base, *m);
    return search::heuristicPass(base, *m);
  }();
  const auto steps = search::attributeHistory(h, *m, trace.get());

  std::printf("%s on %s via %s pass (%zu transformations)\n\n",
              k->label.c_str(), m->name().c_str(), method.c_str(),
              h.size());
  Table t({"step", "transform", "location", "cost [s]", "delta [s]", "compute",
           "stall", "memory", "loop", "launch"});
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    const auto& b = s.breakdown;
    const double delta = i == 0 ? 0.0 : s.cost - steps[i - 1].cost;
    t.addRow({std::to_string(i), i == 0 ? "(initial)" : s.transform,
              s.location, fmt(s.cost, 4), i == 0 ? "" : fmt(delta, 3),
              fmt(b.compute, 3), fmt(b.pipeline_stall, 3), fmt(b.memory, 3),
              fmt(b.loop_overhead, 3), fmt(b.launch_overhead, 3)});
  }
  std::printf("%s\n", t.render().c_str());

  const auto& final_bd = steps.back().breakdown;
  const double total = final_bd.total();
  std::printf("where do the cycles go (final implementation, %.4g s):\n",
              total);
  std::vector<std::pair<std::string, double>> scopes(final_bd.by_scope.begin(),
                                                     final_bd.by_scope.end());
  std::sort(scopes.begin(), scopes.end(),
            [](const auto& x, const auto& y) { return x.second > y.second; });
  Table st({"scope", "time [s]", "share"});
  for (std::size_t i = 0; i < scopes.size() && i < top_n; ++i) {
    const double share = total > 0 ? scopes[i].second / total : 0.0;
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * share);
    st.addRow({scopes[i].first.empty() ? "(root/host)" : scopes[i].first,
               fmt(scopes[i].second, 4), pct});
  }
  if (scopes.size() > top_n)
    st.addRow({"... (" + std::to_string(scopes.size() - top_n) + " more)", "",
               ""});
  std::printf("%s", st.render().c_str());
  return 0;
}

int cmdCompare(const Args& a) {
  const auto* k = needKernel(a);
  const auto* m = needMachine(a);
  if (!k || !m) return 2;
  const ir::Program base = k->build();
  Table t({"implementation", "runtime [s]", "note"});
  t.addRow({"reference loops", fmt(m->evaluate(base), 4), ""});
  t.addRow({"perfdojo heuristic",
            fmt(m->evaluate(search::heuristicPass(base, *m).current()), 4), ""});
  for (auto f : baselines::frameworksFor(*m)) {
    const auto r = baselines::evaluateBaseline(f, base, *m, 200);
    t.addRow({baselines::frameworkName(f),
              r.runtime > 0 ? fmt(r.runtime, 4) : std::string("n/a"), r.note});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmdLibgen(const Args& a) {
  const auto* m = needMachine(a);
  if (!m) return 2;
  const auto dir = a.get("out", "perfdojo_lib");
  libgen::LibGenConfig cfg;
  const auto method = a.get("method", "heuristic");
  if (method == "search") cfg.optimizer = libgen::Optimizer::Search;
  else if (method == "rl") cfg.optimizer = libgen::Optimizer::PerfLLM;
  else if (method == "none") cfg.optimizer = libgen::Optimizer::None;
  const auto lib = libgen::generateLibrary(kernels::table3(), *m, cfg);
  const auto files = libgen::writeLibrary(lib, dir);
  for (const auto& f : files) std::printf("wrote %s\n", f.c_str());
  return 0;
}

int cmdServe(const Args& a) {
  libgen::ServeConfig sc;
  sc.cache_dir = a.get("cache-dir");
  sc.workers = static_cast<int>(flagInt(a, "workers", 4, 1, 256));
  sc.defaults.search_budget =
      static_cast<int>(flagInt(a, "budget", 300, 0, 1000000000));
  sc.defaults.rl_episodes =
      static_cast<int>(flagInt(a, "episodes", 60, 0, 1000000000));
  const auto trace = makeTrace(a);
  sc.telemetry = trace.get();
  libgen::TuneServer server(sc);

  std::ifstream fin;
  std::istream* in = &std::cin;
  if (const auto path = a.get("in"); !path.empty()) {
    fin.open(path);
    if (!fin.good()) {
      std::fprintf(stderr, "serve: cannot open --in %s\n", path.c_str());
      return 2;
    }
    in = &fin;
  }
  std::ofstream fout;
  std::ostream* out = &std::cout;
  if (const auto path = a.get("out-file"); !path.empty()) {
    fout.open(path);
    if (!fout.good()) {
      std::fprintf(stderr, "serve: cannot open --out-file %s\n", path.c_str());
      return 2;
    }
    out = &fout;
  }

  std::string write_error;
  try {
    libgen::runServe(server, *in, *out);
  } catch (const Error& e) {
    write_error = e.what();
  }
  const auto st = server.stats();
  const auto es = server.evalStats();
  // One machine-parseable stats line on stderr: tests and operators read
  // warm/tuned/dedupe counts and the machine-eval count off it.
  std::fprintf(stderr,
               "{\"type\":\"serve_stats\",\"requests\":%lld,\"errors\":%lld,"
               "\"warm_hits\":%lld,\"tuning_runs\":%lld,\"dedupe_joins\":%lld,"
               "\"store_errors\":%lld,\"eval_requests\":%lld,"
               "\"machine_evals\":%lld}\n",
               static_cast<long long>(st.requests),
               static_cast<long long>(st.errors),
               static_cast<long long>(st.warm_hits),
               static_cast<long long>(st.tuning_runs),
               static_cast<long long>(st.dedupe_joins),
               static_cast<long long>(st.store_errors),
               static_cast<long long>(es.requests),
               static_cast<long long>(es.misses));
  if (!write_error.empty()) {
    std::fprintf(stderr, "serve: %s\n", write_error.c_str());
    return 1;
  }
  return st.errors == 0 ? 0 : 1;
}

/// Verify half of the client: pairs a cold response file with a warm re-serve
/// of the same requests and checks the serve contract — every warm response
/// is ok, flagged "warm", and bit-identical to its cold counterpart in
/// recipe, modeled costs, evaluations and generated source.
int clientVerify(const Args& a) {
  auto load = [&](const std::string& path,
                  std::map<std::string, libgen::TuneResponse>& out) {
    std::ifstream f(path);
    if (!f.good()) {
      std::fprintf(stderr, "client: cannot open %s\n", path.c_str());
      return false;
    }
    std::string line;
    while (std::getline(f, line)) {
      if (trim(line).empty()) continue;
      libgen::TuneResponse r;
      std::string err;
      if (!libgen::parseTuneResponse(line, r, err)) {
        std::fprintf(stderr, "client: %s: bad response line: %s\n",
                     path.c_str(), err.c_str());
        return false;
      }
      out[r.id] = std::move(r);
    }
    return true;
  };
  std::map<std::string, libgen::TuneResponse> cold, warm;
  if (!load(a.get("cold"), cold) || !load(a.get("warm"), warm)) return 2;
  if (cold.empty() || cold.size() != warm.size()) {
    std::fprintf(stderr, "client: response sets differ in size (%zu vs %zu)\n",
                 cold.size(), warm.size());
    return 1;
  }
  int bad = 0;
  for (const auto& [id, c] : cold) {
    auto it = warm.find(id);
    const auto complain = [&](const std::string& what) {
      std::fprintf(stderr, "client: %s: %s\n", id.c_str(), what.c_str());
      ++bad;
    };
    if (it == warm.end()) { complain("missing from warm run"); continue; }
    const auto& w = it->second;
    if (!c.ok) { complain("cold response not ok: " + c.error); continue; }
    if (!w.ok) { complain("warm response not ok: " + w.error); continue; }
    if (w.served != "warm") complain("warm run served '" + w.served + "'");
    if (w.key != c.key) complain("request key changed");
    if (w.recipe != c.recipe) complain("recipe differs");
    if (w.source != c.source) complain("generated source differs");
    if (w.tuned_runtime != c.tuned_runtime ||
        w.baseline_runtime != c.baseline_runtime)
      complain("modeled cost differs");
    if (w.evaluations != c.evaluations) complain("evaluation count differs");
  }
  std::fprintf(stderr, "client: verified %zu warm responses, %d mismatches\n",
               cold.size(), bad);
  return bad == 0 ? 0 : 1;
}

int cmdClient(const Args& a) {
  if (!a.get("cold").empty() || !a.get("warm").empty()) return clientVerify(a);
  const auto kernel = a.get("kernel");
  const auto machine = a.get("machine", "xeon");
  if (kernel.empty()) {
    std::fprintf(stderr, "client: --kernel is required\n");
    return 2;
  }
  libgen::TuneRequest r;
  r.kernel = kernel;
  r.machine = machine;
  r.optimizer = a.get("method", "heuristic");
  r.budget = flagInt(a, "budget", -1, 0, 1000000000);
  r.seed = flagSeed(a, "seed", 1);
  const auto count = flagInt(a, "count", 1, 1, 1000000);
  for (std::int64_t i = 0; i < count; ++i) {
    r.id = "req-" + std::to_string(i);
    std::printf("%s\n", libgen::requestToJson(r).c_str());
  }
  return 0;
}

/// Recomputes one exact-tier certificate for (kernel, machine, depth) on the
/// *small* kernel variant — the regime where the space drains within the
/// default budget. Tests and baselines must agree on this variant choice.
search::ExactResult recomputeCert(const kernels::KernelInfo& k,
                                  const machines::Machine& m, int depth,
                                  std::int64_t max_states, int threads) {
  search::ExactConfig ec;
  ec.depth = depth;
  ec.max_states = max_states;
  ec.threads = threads;
  ec.kernel_label = k.label;
  return search::runExact(k.build_small(), m, ec);
}

/// `certs`: recompute every checked-in exact certificate and diff it against
/// the baseline file (the CI gate), or with --update rewrite the baselines in
/// place, refreshing the recorded SA/heuristic quality gates measured under
/// the canonical gate configuration.
int cmdCerts(const Args& a) {
  const auto dir = a.get("dir", "tests/data/exact");
  const bool update = a.get("update", "0") == "1";
  const int threads = static_cast<int>(flagInt(a, "threads", 0, 0, 4096));
  const std::int64_t max_states =
      flagInt(a, "max-states", 200000, 1, 1000000000000LL);
  const int gen_depth = static_cast<int>(flagInt(a, "depth", 3, 1, 64));

  // Work list: one (kernel, machine, depth) combo per file. With --update,
  // --kernels/--machines add the cross product as new baselines.
  struct Combo {
    std::string path, kernel, machine;
    int depth = 0;
    search::ExactCertificate want;  // existing baseline (depth > 0 marks it)
  };
  std::vector<Combo> combos;
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec))
    if (e.path().extension() == ".json") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  int bad = 0;
  for (const auto& path : files) {
    Combo c;
    std::string err;
    if (!search::parseCertificate(readTextFile(path), c.want, &err)) {
      std::fprintf(stderr, "certs: %s: %s\n", path.c_str(), err.c_str());
      ++bad;
      continue;
    }
    c.path = path;
    c.kernel = c.want.kernel;
    c.machine = c.want.machine;
    c.depth = c.want.depth;
    combos.push_back(std::move(c));
  }
  if (update) {
    for (const auto& kl : splitTokens(a.get("kernels"), ',')) {
      for (const auto& mn : splitTokens(a.get("machines"), ',')) {
        Combo c;
        c.kernel = trim(kl);
        c.machine = trim(mn);
        c.depth = gen_depth;
        c.path = dir + "/" + c.kernel + "_" + c.machine + "_d" +
                 std::to_string(c.depth) + ".json";
        const bool known = std::any_of(
            combos.begin(), combos.end(),
            [&](const Combo& x) { return x.path == c.path; });
        if (!known) combos.push_back(std::move(c));
      }
    }
    std::filesystem::create_directories(dir);
  }
  if (combos.empty()) {
    std::fprintf(stderr, "certs: no certificates under %s\n", dir.c_str());
    return 2;
  }

  for (const auto& c : combos) {
    const auto* k = kernels::findKernel(c.kernel);
    const auto* m = machines::findMachine(c.machine);
    if (!k || !m) {
      std::fprintf(stderr, "certs: %s: unknown kernel/machine '%s'/'%s'\n",
                   c.path.c_str(), c.kernel.c_str(), c.machine.c_str());
      ++bad;
      continue;
    }
    auto r = recomputeCert(*k, *m, c.depth, max_states, threads);
    if (update) {
      if (!r.cert.complete) {
        std::fprintf(stderr,
                     "certs: %s: space not exhausted within %lld states — "
                     "refusing to record a non-certificate as a baseline\n",
                     c.path.c_str(), static_cast<long long>(max_states));
        ++bad;
        continue;
      }
      // Measured quality of the stochastic rungs vs the proven optimum,
      // recorded with slack: the gate trips on regressions, not on noise.
      const ir::Program base = k->build_small();
      const auto sa = search::runSearch(base, *m, search::exactGateSearchConfig());
      const double heur =
          m->evaluate(search::heuristicPass(base, *m).current());
      const double opt = r.cert.optimal_cost;
      r.cert.sa_gate = 1.25 * std::max(1.0, sa.best_runtime / opt);
      r.cert.heuristic_gate = 1.25 * std::max(1.0, heur / opt);
      writeTextFileAtomic(c.path, r.cert.toJson() + "\n");
      std::fprintf(stderr, "certs: wrote %s (states=%lld optimal=%.4g "
                           "sa_gate=%.3f heuristic_gate=%.3f)\n",
                   c.path.c_str(), static_cast<long long>(r.cert.states),
                   r.cert.optimal_cost, r.cert.sa_gate, r.cert.heuristic_gate);
      continue;
    }
    // Verify: everything except the recorded gates must reproduce
    // bit-identically (gates are measurements of other tiers, re-measured by
    // the test suite, not part of the proof).
    r.cert.sa_gate = c.want.sa_gate;
    r.cert.heuristic_gate = c.want.heuristic_gate;
    const std::string got = r.cert.toJson();
    const std::string want = c.want.toJson();
    if (got != want) {
      std::fprintf(stderr, "certs: %s: MISMATCH\n  want %s\n  got  %s\n",
                   c.path.c_str(), want.c_str(), got.c_str());
      ++bad;
    } else {
      std::fprintf(stderr, "certs: %s: ok (reason=%s states=%lld)\n",
                   c.path.c_str(), search::terminationReasonName(r.reason),
                   static_cast<long long>(r.cert.states));
    }
  }
  std::fprintf(stderr, "certs: %zu certificates, %d problems\n", combos.size(),
               bad);
  return bad == 0 ? 0 : 1;
}

/// `train-prior`: JSONL traces -> dataset -> fitted PriorModel file. Bad
/// lines are skipped with a counted diagnostic; an empty dataset (or a
/// mixed-version trace) is a hard error with a nonzero exit.
int cmdTrainPrior(const Args& a) {
  const auto in = a.get("trace-in");
  const auto out = a.get("model-out");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "train-prior: --trace-in and --model-out are required\n");
    return 2;
  }
  std::vector<std::string> paths;
  for (const auto& t : splitTokens(in, ','))
    if (!trim(t).empty()) paths.push_back(trim(t));
  const auto ds = search::loadTraceFiles(paths);
  std::fprintf(stderr,
               "train-prior: %zu files, %lld lines (%lld malformed skipped, "
               "%lld duplicate programs, %lld unlabeled evals), %zu samples\n",
               paths.size(), static_cast<long long>(ds.lines),
               static_cast<long long>(ds.malformed),
               static_cast<long long>(ds.duplicates),
               static_cast<long long>(ds.bad_runtime), ds.size());
  search::TrainConfig cfg;
  cfg.hidden = static_cast<int>(flagInt(a, "hidden", cfg.hidden, 1, 4096));
  cfg.epochs = static_cast<int>(flagInt(a, "epochs", cfg.epochs, 1, 100000));
  cfg.lr = flagDouble(a, "lr", cfg.lr, 1e-8, 1.0);
  cfg.holdout = flagDouble(a, "holdout", cfg.holdout, 0.0, 0.9);
  cfg.seed = flagSeed(a, "seed", cfg.seed);
  const auto r = search::trainPrior(ds, cfg);  // throws on an empty dataset
  r.model.save(out);
  std::fprintf(stderr,
               "train-prior: %zu samples (%zu train / %zu holdout), holdout "
               "rmse %.4f -> %.4f, model written to %s\n",
               r.report.n_samples, r.report.n_train, r.report.n_holdout,
               r.report.holdout_rmse_before, r.report.holdout_rmse_after,
               out.c_str());
  return 0;
}

void printOracleReport(const char* label, const fuzz::OracleReport& r) {
  if (r.ok)
    std::fprintf(stderr, "%s: ok\n", label);
  else
    std::fprintf(stderr, "%s: FAIL [%s] %s\n", label,
                 fuzz::oracleLayerName(r.layer), r.detail.c_str());
}

int cmdFuzz(const Args& a) {
  fuzz::FuzzConfig cfg;
  const auto trace = makeTrace(a);
  cfg.telemetry = trace.get();
  cfg.seed = flagSeed(a, "seed", 1);
  cfg.budget_sec = flagDouble(a, "budget-sec", 0, 0, 1e9);
  cfg.trajectories =
      static_cast<int>(flagInt(a, "trajectories", 2, 0, 1000000000));
  cfg.max_steps = static_cast<int>(flagInt(a, "max-steps", 12, 1, 1000000));
  cfg.oracle.check_codegen = a.get("codegen", "0") == "1";
  cfg.codegen_final = a.get("codegen-final", "1") != "0";
  cfg.witness_dir = a.get("out", "");
  if (const auto k = a.get("kernel"); !k.empty()) cfg.kernels = {k};
  if (const auto p = a.get("profile"); !p.empty()) cfg.profiles = {p};

  if (const auto file = a.get("replay"); !file.empty()) {
    const auto w = fuzz::readWitnessFile(file);
    std::fprintf(stderr,
                 "replaying %s: kernel=%s profile=%s seed=%llu steps=%zu\n",
                 file.c_str(), w.kernel.c_str(), w.profile.c_str(),
                 static_cast<unsigned long long>(w.seed), w.steps.size());
    const auto r = fuzz::runWitness(w, cfg.oracle);
    printOracleReport("replay", r);
    return r.ok ? 0 : 1;
  }

  bool corpus_ok = true;
  if (const auto dir = a.get("corpus"); !dir.empty()) {
    const auto cr = fuzz::runCorpus(dir, cfg.oracle);
    std::fprintf(stderr, "corpus %s: %d seeds, %zu regressed\n", dir.c_str(),
                 cr.total, cr.failures.size());
    for (const auto& [path, rep] : cr.failures)
      printOracleReport(path.c_str(), rep);
    corpus_ok = cr.ok();
  }

  const auto r = fuzz::runFuzz(cfg);
  std::fprintf(stderr,
               "fuzz: %lld trajectories, %lld steps, %lld oracle checks, "
               "%lld shrink runs, %.1f s, %zu findings\n",
               static_cast<long long>(r.stats.trajectories),
               static_cast<long long>(r.stats.steps),
               static_cast<long long>(r.stats.oracle_checks),
               static_cast<long long>(r.stats.minimizer_runs),
               r.stats.wall_sec, r.findings.size());
  for (const auto& f : r.findings) {
    std::fprintf(stderr, "finding [%s] %s/%s (%zu actions): %s\n",
                 f.witness.layer.c_str(), f.witness.kernel.c_str(),
                 f.witness.profile.c_str(), f.witness.steps.size(),
                 f.report.detail.c_str());
    if (!f.file.empty())
      std::fprintf(stderr, "  witness written to %s\n", f.file.c_str());
  }
  return (r.ok() && corpus_ok) ? 0 : 1;
}

/// A subcommand and the flags it accepts (without the leading "--").
struct Command {
  int (*run)(const Args&);
  std::vector<std::string> flags;
};

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"list", {[](const Args&) { return cmdList(); }, {}}},
      {"show", {cmdShow, {"kernel"}}},
      {"optimize",
       {cmdOptimize,
        {"kernel", "machine", "tier", "method", "budget", "emit", "trace-out",
         "structure", "no-cache", "trace-programs", "prior", "no-prior",
         "prior-topk", "depth", "max-states", "no-prune", "cert-out",
         "threads"}}},
      {"profile",
       {cmdProfile, {"kernel", "machine", "method", "top", "trace-out"}}},
      {"compare", {cmdCompare, {"kernel", "machine"}}},
      {"libgen", {cmdLibgen, {"machine", "out", "method"}}},
      {"fuzz",
       {cmdFuzz,
        {"budget-sec", "trajectories", "max-steps", "seed", "kernel",
         "profile", "codegen", "codegen-final", "corpus", "replay", "out",
         "trace-out"}}},
      {"serve",
       {cmdServe,
        {"cache-dir", "workers", "budget", "episodes", "in",
         "out-file", "trace-out"}}},
      {"client",
       {cmdClient,
        {"kernel", "machine", "method", "budget", "seed", "count", "cold",
         "warm"}}},
      {"certs",
       {cmdCerts,
        {"dir", "update", "kernels", "machines", "depth", "max-states",
         "threads"}}},
      {"train-prior",
       {cmdTrainPrior,
        {"trace-in", "model-out", "hidden", "epochs", "lr", "holdout",
         "seed"}}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const auto cmd = commands().find(a.command);
  if (cmd == commands().end()) return usage();
  const auto& accepted = cmd->second.flags;
  std::string bad = a.error;
  for (const auto& flag : a.flags)
    if (bad.empty() && std::find(accepted.begin(), accepted.end(),
                                 flag.first) == accepted.end())
      bad = "unknown flag --" + flag.first;
  if (!bad.empty()) {
    std::fprintf(stderr, "perfdojo %s: %s\n", a.command.c_str(), bad.c_str());
    return usage();
  }
  try {
    return cmd->second.run(a);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
