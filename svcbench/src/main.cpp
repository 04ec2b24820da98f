// The service benchmark: a real net::Server on a unix socket with the
// deployed defaults, driven through net::Client, on one of three
// workloads (svcbench/README.md).
//
//   svcbench --workload hot_hits|fresh_cold|churn_mix --seed N --seconds S
//            --trace 0|1 [--workdir DIR]
//
// Prints diagnostics on stderr and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced run with
// --trace 1. Exits 1 when a correctness check failed.
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

svcbench::Options parse_args(int argc, char** argv) {
  svcbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const svcbench::Options options = parse_args(argc, argv);
    svcbench::Report report;
    if (options.workload == "hot_hits") {
      svcbench::run_hot_hits(options, report);
    } else if (options.workload == "fresh_cold") {
      svcbench::run_fresh_cold(options, report);
    } else if (options.workload == "churn_mix") {
      svcbench::run_churn_mix(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    std::cout << report.json() << std::endl;
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "svcbench: " << e.what() << '\n';
    return 2;
  }
}
