// The traced run's in-process twin of the server's request paths. Each
// call the server makes for a SUBMIT or an EVENT is made here through the
// same public function, inside a span, on a daemon in the same state as
// the server's. Tracing inside the library is out of scope: spans are
// recorded around public calls, from outside.
//
// SUBMIT chain (root span `replay.submit`):
//   net.format_submit → net.parse_request → server.prepare →
//   daemon.admit_hit | daemon.admit_cold →
//   server.format_response (child core.schedule_fingerprint) →
//   net.parse_response
// Misses also run the cold path's stages again on the same inputs, under
// their own root `replay.cold_path` (exp.calibrate_period,
// exp.schedule_escalation, schedule.oracle_compile, schedule.reliability
// for probabilistic models) — they repeat work daemon.admit_cold already
// contains, so they attribute that time but are not added to it.
// EVENTs (root `replay.event`) time daemon.on_event; failures first time
// schedule.repair_for_failure_set on a copy of every cached placement the
// failure breaks, and afterwards schedule.achieved_tolerance on every
// degraded entry, under the root `replay.event_detail`.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "service/daemon.hpp"

namespace svcbench {

/// `%016x` of a fingerprint, as the server prints `fp=`.
[[nodiscard]] std::string hex16(std::uint64_t value);

/// The server's SubmitFrame → PlacementRequest conversion (moves the DAG).
[[nodiscard]] ss::PlacementRequest to_request(ss::net::SubmitFrame&& frame);

/// The server's SUBMIT response line for `resp`. When `tracer` is given,
/// schedule_fingerprint runs inside a `core.schedule_fingerprint` span.
[[nodiscard]] std::string format_submit_response(const ss::net::SubmitFrame& frame,
                                                 const ss::PlacementResponse& resp,
                                                 Tracer* tracer, std::int64_t parent,
                                                 std::uint64_t request);

struct ReplayCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t errors = 0;           ///< SUBMITs answered ERR
  std::uint64_t degraded_served = 0;  ///< OK answers with src=degraded
  std::uint64_t escalated = 0;        ///< misses needing a period rung > 1
  std::uint64_t repair_comms = 0;     ///< model-repair channels of the misses
};

class Replay {
 public:
  Replay(ss::PlacementDaemon& daemon, Tracer& tracer);

  /// Runs the SUBMIT chain; returns the parsed response.
  ss::net::Response submit(const ss::net::SubmitFrame& frame, std::uint64_t request);
  void event(bool failure, ss::ProcId proc, std::uint64_t request);

  [[nodiscard]] const ReplayCounts& counts() const { return counts_; }

 private:
  void cold_path(const ss::net::SubmitFrame& frame, const ss::Dag& dag, std::uint64_t request);

  ss::PlacementDaemon& daemon_;
  Tracer& tracer_;
  ss::ProcSet failed_;
  ReplayCounts counts_;
};

}  // namespace svcbench
