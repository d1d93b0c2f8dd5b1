// End-to-end benchmark driver of the pldp library.
//
// Runs one named workload against the library's public API — RunPsda in
// process, or a self-hosted NetServer + EpochEngine driven by NetClient over
// loopback — checks the published estimates, and prints every metric by
// name with its unit. The last stdout line is the result as one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (run.py builds this binary and forwards its arguments):
//   pldp_e2ebench --workload psda_checkin|serve_road|serve_checkin
//                 [--seed 2016] [--seconds 30] [--trace 0|1]
//                 [--user-fraction F] [--flip-bit]
//
// Exit codes: 0 = every check passed, 1 = a check or an operation failed,
// 2 = bad flags.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "util/csv.h"

namespace pldp {
namespace e2ebench {
namespace {

void PrintUsage() {
  std::cerr << "usage: pldp_e2ebench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1]\n"
               "       [--user-fraction F] [--flip-bit]\n"
               "workloads:";
  for (const Workload& workload : Workloads()) {
    std::cerr << " " << workload.name;
  }
  std::cerr << "\n";
}

StatusOr<BenchOptions> ParseArgs(int argc, char** argv) {
  BenchOptions options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> StatusOr<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return args[++i];
    };
    auto next_double = [&]() -> StatusOr<double> {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      return ParseDouble(value);
    };
    auto next_u64 = [&]() -> StatusOr<uint64_t> {
      PLDP_ASSIGN_OR_RETURN(const std::string value, next());
      return ParseUint64(value);
    };
    if (flag == "--workload") {
      PLDP_ASSIGN_OR_RETURN(options.workload, next());
    } else if (flag == "--seed") {
      PLDP_ASSIGN_OR_RETURN(options.seed, next_u64());
    } else if (flag == "--seconds") {
      PLDP_ASSIGN_OR_RETURN(options.seconds, next_double());
    } else if (flag == "--trace") {
      PLDP_ASSIGN_OR_RETURN(const uint64_t trace, next_u64());
      if (trace > 1) return Status::InvalidArgument("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--user-fraction") {
      PLDP_ASSIGN_OR_RETURN(options.user_fraction, next_double());
      if (!(options.user_fraction > 0.0 && options.user_fraction <= 1.0)) {
        return Status::InvalidArgument("--user-fraction must be in (0, 1]");
      }
    } else if (flag == "--flip-bit") {
      options.flip_bit = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  if (options.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  options.trace_file =
      (std::filesystem::path(argv[0]).parent_path() /
       (std::filesystem::path(options.workload).filename().string() +
        ".trace.json"))
          .string();
  return options;
}

}  // namespace
}  // namespace e2ebench
}  // namespace pldp

int main(int argc, char** argv) {
  using namespace pldp::e2ebench;
  const pldp::StatusOr<BenchOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    PrintUsage();
    return 2;
  }
  const BenchOptions& options = parsed.value();
  for (Workload workload : Workloads()) {
    if (workload.name != options.workload) continue;
    // The self-test shrinks the cohort: datasets by scale, cycled cohorts by
    // their user count.
    if (workload.users != 0) {
      workload.users = static_cast<uint64_t>(
          static_cast<double>(workload.users) * options.user_fraction);
    } else {
      workload.scale *= options.user_fraction;
    }
    RunResult result(options.trace);
    if (workload.serve) {
      RunServeWorkload(options, workload, &result);
    } else {
      RunPsdaWorkload(options, workload, &result);
    }
    result.Print();
    return result.correct() ? 0 : 1;
  }
  std::cerr << "unknown workload: " << options.workload << "\n";
  PrintUsage();
  return 2;
}
