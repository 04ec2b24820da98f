// The benchmark's three workloads (see svcbench/README.md for why each
// exists). Untraced runs fill the end-to-end metrics; traced runs fill
// the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace svcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the unix socket, snapshots and span dumps (relative
  /// paths keep the socket path within the sun_path limit).
  std::string workdir = ".";
};

void run_hot_hits(const Options& options, Report& report);
void run_fresh_cold(const Options& options, Report& report);
void run_churn_mix(const Options& options, Report& report);

}  // namespace svcbench
