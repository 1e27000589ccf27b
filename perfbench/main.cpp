// jpg_perfbench: one workload per run, closed loop, seeded.
//
//   jpg_perfbench --workload module_flow|swap_closed|task_graphs
//                 --seed N --seconds S --trace 0|1
//                 [--ops N] [--corrupt-op N] [--trace-out PATH]
//
// Prints human-readable diagnostics, then one JSON line as its last line:
// {"correct","attempted","failed","metrics","info"}. Exit code 0 on a
// completed run (check failures are reported through "correct"), 2 on a
// usage error, 1 when the workload threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "support/telemetry/telemetry.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "jpg_perfbench: %s\nusage: jpg_perfbench --workload "
               "module_flow|swap_closed|task_graphs --seed N --seconds S "
               "--trace 0|1 [--ops N] [--corrupt-op N] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--ops") {
        opt.ops = std::stoull(v);
      } else if (a == "--corrupt-op") {
        opt.corrupt_op = std::stol(v);
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds <= 0 && opt.ops == 0) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  report.info["compiler"] = __VERSION__;
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  report.info["jpg_telemetry"] = JPG_TELEMETRY_ENABLED ? "on" : "off";
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  try {
    if (opt.workload == "module_flow") {
      perfbench::run_module_flow(opt, report);
    } else if (opt.workload == "swap_closed") {
      perfbench::run_swap_closed(opt, report);
    } else if (opt.workload == "task_graphs") {
      perfbench::run_task_graphs(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jpg_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::print_result(opt, report);
  return 0;
}
