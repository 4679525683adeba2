// perfbench: the repository benchmark program.
//
//   perfbench --workload <tune-edges|tune-heuristic|exact-certify|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--work-dir <dir>] [--repo-root <dir>]
//
// Prints one JSON line per metric ({"type":"metric","name",...,"unit",
// "samples"}), one per output check ({"type":"check","name","ran",
// "failed"}), and a final {"type":"ops","attempted","failed"} line.
// perfbench/run.py builds this binary and turns those lines into the
// benchmark's result line. Exit code 0 when the workload ran (whatever the
// checks say), 1 on an error that stopped it, 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload <tune-edges|tune-heuristic|"
               "exact-certify|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--work-dir <dir>] "
               "[--repo-root <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string v = argv[++i];
      if (flag == "--workload") opt.workload = v;
      else if (flag == "--seed") opt.seed = std::stoull(v);
      else if (flag == "--seconds") opt.seconds = std::stod(v);
      else if (flag == "--trace") opt.trace = std::stoi(v) != 0;
      else if (flag == "--scale") opt.scale = std::stod(v);
      else if (flag == "--work-dir") opt.work_dir = v;
      else if (flag == "--repo-root") opt.repo_root = v;
      else return usage("unknown flag " + flag);
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds > 0) || !(opt.scale > 0))
    return usage("--seconds and --scale must be positive");

  try {
    std::filesystem::create_directories(opt.work_dir);
    perfbench::Report report;
    if (opt.workload == "tune-edges")
      perfbench::runTune(opt, false, report);
    else if (opt.workload == "tune-heuristic")
      perfbench::runTune(opt, true, report);
    else if (opt.workload == "exact-certify")
      perfbench::runExactCertify(opt, report);
    else if (opt.workload == "serve-mixed")
      perfbench::runServeMixed(opt, report);
    else
      return usage("unknown workload '" + opt.workload + "'");
    report.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
