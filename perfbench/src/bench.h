// Shared pieces of the repository benchmark: options, the span tracer, the
// timing Machine decorator, and the report every workload fills.
//
// The benchmark measures the library only from outside: it times its own
// calls into the public functions of each layer. In a traced run (--trace 1)
// those calls are wrapped in spans; an untraced run records no spans and
// passes the real machine models straight through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/kernels.h"
#include "machines/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks budgets, pair counts and streams; 1 = full size. The smoke mode
  /// runs every workload at a tiny scale.
  double scale = 1.0;
  /// Working directory for serve cache directories and span dumps.
  std::string work_dir = ".bench_build/work";
  /// Root holding tests/data/exact (the certificate reference).
  std::string repo_root = ".";
};

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 9;

/// Workloads repeat a round of identical work while rounds fit in the
/// window. In a traced run odd rounds are traced and even rounds are not,
/// so the two kinds interleave in time; end-to-end figures come from the
/// untraced rounds only.
inline bool tracedRound(const Options& opt, std::size_t round) {
  return opt.trace && round % 2 == 1;
}

/// Rounds to run, given that the first took `first_s` seconds (a traced run
/// needs at least one round of each kind).
int plannedRounds(const Options& opt, double first_s);

/// splitmix64: derives independent seeds from (run seed, stream index).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

/// Quantile with linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> xs, double q);

/// Peak resident set size of this process in MB.
double peakRssMb();

/// Wall time in ms of a fixed, library-independent loop shaped like the
/// library's work (small allocations, tree walks, string hashing): a gauge
/// of how fast the shared host runs right now. Median of `reps` calls on
/// each of `threads` threads running at once (workloads that use every
/// core gauge every core).
double hostGaugeMs(int reps, int threads = 1);

/// Threads a multi-threaded workload runs on: one per core.
int coreCount();

/// The gauge's reading on a quiet 4-vCPU Xeon VM. End-to-end times are
/// reported at this host speed: a time measured while the gauge read `g`
/// is scaled by kGaugeRefMs / g, so a neighbour slowing the whole host
/// moves the gauge and the workload together and cancels out. Raw values
/// print alongside with a ".raw" suffix.
constexpr double kGaugeRefMs = 2.0;

inline double atRefSpeed(double time, double gauge_ms) {
  return time * kGaugeRefMs / gauge_ms;
}

// ---------------------------------------------------------------- tracing

/// One timed call. `parent` is the span that was open on the same thread
/// when this one began (or the tracer's ambient span, for work a library
/// call fans out to its own worker threads); `run` groups the spans of one
/// workload operation.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t run = 0;
  double start_us = 0;
  double end_us = 0;
};

/// Per-name totals over recorded spans. Self time is a span's duration
/// minus the part of it covered by its children.
struct SpanTotals {
  std::int64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// Opens a span on the calling thread; returns 0 when tracing is off.
  std::uint64_t begin(const char* name);
  /// Closes the innermost span of the calling thread (which must be `id`).
  void end(std::uint64_t id);

  /// Parent and run id for spans opened on threads with no open span and no
  /// run id of their own (the worker threads a library call fans out to).
  void setAmbient(std::uint64_t id, std::uint64_t run) {
    ambient_.store(id);
    ambient_run_.store(run);
  }
  /// Run id stamped on every span the calling thread begins from now on.
  /// One run is one workload operation (a tuning run, a request, a probe).
  static void setRun(std::uint64_t run);
  std::vector<Span> spans() const;
  std::int64_t dropped() const { return dropped_.load(); }
  /// Totals per span name over the spans whose run id is in [run_lo, run_hi].
  std::map<std::string, SpanTotals> totals(std::uint64_t run_lo,
                                           std::uint64_t run_hi) const;
  /// Writes every span as one JSON line; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 2'000'000;
  const bool on_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ambient_{0};
  std::atomic<std::uint64_t> ambient_run_{0};
  std::atomic<std::int64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span. Cheap no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() {
    if (id_) t_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// Decorator over a real machine model: delegates every virtual, wrapping
/// evaluate() and lowerBound() in spans. name() is delegated, so memo
/// tables keyed on it behave exactly as with the real model.
class TimedMachine final : public perfdojo::machines::Machine {
 public:
  TimedMachine(const perfdojo::machines::Machine& real, Tracer& tracer)
      : real_(real), tracer_(tracer) {}

  const std::string& name() const override { return real_.name(); }
  const perfdojo::transform::MachineCaps& caps() const override {
    return real_.caps();
  }
  double evaluate(const perfdojo::ir::Program& p) const override {
    ScopedSpan s(tracer_, "machines.evaluate");
    return real_.evaluate(p);
  }
  perfdojo::machines::CostBreakdown evaluateDetailed(
      const perfdojo::ir::Program& p) const override {
    return real_.evaluateDetailed(p);
  }
  double peakTime(const perfdojo::ir::Program& p) const override {
    return real_.peakTime(p);
  }
  double lowerBound(const perfdojo::ir::Program& p) const override {
    ScopedSpan s(tracer_, "machines.lower_bound");
    return real_.lowerBound(p);
  }

 private:
  const perfdojo::machines::Machine& real_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------- report

/// Everything one run prints: named metrics with unit and sample count,
/// output checks with how often each ran and failed, and the operation
/// tally behind `attempted` / `failed`.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  /// Records one output check. A failed check also fails one operation.
  bool check(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts one attempted workload operation (tuning run, exact run, request).
  void attempt(std::int64_t n = 1) { attempted_ += n; }

  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// One JSON line per metric, per check, then the operation tally.
  void print() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::int64_t samples = 0;
  };
  struct CheckCount {
    std::int64_t ran = 0;
    std::int64_t failed = 0;
    std::string first_failure;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::map<std::string, CheckCount> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------- timings

/// Wall times of a workload that runs the same operations every round.
struct RoundTimes {
  std::vector<std::vector<double>> wall_ms;  // [round][operation]
  std::vector<double> gauge_ms;              // gauge reading of each round

  /// Median over the rounds of one kind (traced or not) of the round's
  /// summed wall.
  double medianRoundMs(const Options& opt, bool traced) const;
};

/// Reports the end-to-end timings of the untraced rounds. Each operation's
/// wall is its median over those rounds, scaled to the reference host speed
/// by its round's gauge reading; throughput_per_s is the geomean over
/// operations of work / wall, latency_p50_ms and latency_p99_ms quantiles
/// over operations. Also reports the ".raw" twins, the raw rate under the
/// workload's own `rate_name`, and host.gauge_ms.
void reportRoundTimes(const Options& opt, const RoundTimes& times,
                      const std::vector<double>& work,
                      const std::string& rate_name, Report& report);

/// Reports setup_s, the median set-up scaled by the gauge reading taken
/// after each, and setup_s.raw.
void reportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& gauge_ms, Report& report);

// ---------------------------------------------------------------- inputs

/// The four target machines, in the order workloads index them.
const std::vector<const perfdojo::machines::Machine*>& benchMachines();

/// One kernel x machine pair of a workload.
struct Pair {
  const perfdojo::kernels::KernelInfo* info = nullptr;
  const perfdojo::machines::Machine* machine = nullptr;
  perfdojo::ir::Program kernel;
  double baseline = 0;  // real model's cost of the untransformed kernel
};

/// Input of the layer probes: a kernel on a machine, and the schedule the
/// workload produced for it (best program, served program, witness).
struct ProbeInput {
  const perfdojo::kernels::KernelInfo* info = nullptr;
  const perfdojo::machines::Machine* machine = nullptr;
  perfdojo::ir::Program kernel;
  perfdojo::ir::Program result;
  bool small = false;  // kernel built with build_small
};

/// First run id of the probe phase; timed-phase runs number from 1.
constexpr std::uint64_t kProbeRun = 1ull << 40;

/// Runs the layer probes on `inputs` (after the timed phase of a traced run)
/// and reports the transform / delta / ir / kernels / codegen layer metrics.
void runLayerProbes(const std::vector<ProbeInput>& inputs, std::uint64_t seed,
                    double scale, Tracer& tracer, Report& report);

/// Reports the machines.* metrics from the decorator spans of runs
/// [lo, hi]; `op_span` names the span around each workload operation.
void reportModelLayers(const Tracer& tracer, std::uint64_t lo, std::uint64_t hi,
                       const char* op_span, Report& report);

// ---------------------------------------------------------------- workloads

void runTune(const Options& opt, bool heuristic, Report& report);
void runExactCertify(const Options& opt, Report& report);
void runServeMixed(const Options& opt, Report& report);

/// Ends a traced run: reports the per-layer metrics this workload left idle
/// as 0 with 0 samples, the peak RSS, and writes the spans to
/// <work_dir>/spans-<workload>-<seed>.jsonl.
void finishTrace(const Options& opt, const Tracer& tracer, Report& report);

}  // namespace perfbench
