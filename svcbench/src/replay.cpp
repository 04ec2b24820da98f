#include "replay.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "core/fingerprint.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"

namespace svcbench {

namespace net = ss::net;

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return std::string(buf);
}

ss::PlacementRequest to_request(net::SubmitFrame&& frame) {
  ss::PlacementRequest request;
  request.dag = std::move(frame.dag);
  request.variant = ss::AlgoVariant::parse(frame.variant_spec);
  request.model = frame.model;
  request.period = frame.period;
  request.headroom = frame.headroom;
  request.comm_share = frame.comm_share;
  request.degraded_ok = frame.degraded_ok;
  return request;
}

std::string format_submit_response(const net::SubmitFrame& frame,
                                   const ss::PlacementResponse& resp, Tracer* tracer,
                                   std::int64_t parent, std::uint64_t request) {
  if (!resp.ok) {
    if (resp.degraded_refused) {
      return net::format_error(net::WireCode::kDegraded,
                               resp.error.empty() ? "placement degraded" : resp.error,
                               frame.tag);
    }
    return net::format_error(net::WireCode::kInfeasible,
                             resp.error.empty() ? "no feasible placement" : resp.error,
                             frame.tag);
  }
  const ss::CachedPlacement& p = *resp.placement;
  const char* src = p.degraded ? "degraded" : !resp.cache_hit ? "cold"
                                          : (p.from_snapshot ? "warm" : "hit");
  const auto fingerprint = [&] { return hex16(ss::schedule_fingerprint(p.schedule)); };
  const std::string fp = tracer != nullptr
                             ? traced(*tracer, "core.schedule_fingerprint", parent, request,
                                      fingerprint)
                             : fingerprint();
  net::OkBuilder ok;
  if (!frame.tag.empty()) ok.add("tag", frame.tag);
  ok.add("src", src)
      .add("epoch", resp.epoch)
      .add("fp", fp)
      .add("eps", static_cast<std::uint64_t>(p.schedule.eps()))
      .add("stages", static_cast<std::uint64_t>(ss::num_stages(p.schedule)))
      .add("period", p.schedule.period())
      .add("latency", ss::latency_upper_bound(p.schedule))
      .add("rel", p.reliability)
      .add("factor", p.period_factor)
      .add("repair_comms",
           static_cast<std::uint64_t>(p.repair.added_comms + p.event_repair_comms));
  if (p.degraded) {
    ok.add("degraded", std::uint64_t{1})
        .add("eps_have", static_cast<std::uint64_t>(p.eps_have))
        .add("eps_want", static_cast<std::uint64_t>(p.eps_want));
  }
  return ok.str();
}

Replay::Replay(ss::PlacementDaemon& daemon, Tracer& tracer)
    : daemon_(daemon), tracer_(tracer), failed_(daemon.platform().num_procs()) {}

net::Response Replay::submit(const net::SubmitFrame& frame, std::uint64_t request) {
  net::SubmitFrame tagged = frame;
  tagged.tag = std::to_string(request);
  const std::int64_t root = tracer_.open("replay.submit", -1, request);
  const std::string line = traced(tracer_, "net.format_submit", root, request,
                                  [&] { return net::format_submit(tagged); });
  net::Request parsed = traced(tracer_, "net.parse_request", root, request,
                               [&] { return net::parse_request(line); });
  ss::PlacementRequest placement_request =
      traced(tracer_, "server.prepare", root, request,
             [&] { return to_request(std::move(parsed.submit)); });
  const std::int64_t admit = tracer_.open("daemon.admit_hit", root, request);
  const ss::PlacementResponse resp = daemon_.admit(std::move(placement_request));
  tracer_.close(admit);
  if (!resp.cache_hit) tracer_.rename(admit, "daemon.admit_cold");
  const std::int64_t format = tracer_.open("server.format_response", root, request);
  const std::string out = format_submit_response(tagged, resp, &tracer_, format, request);
  tracer_.close(format);
  net::Response answer = traced(tracer_, "net.parse_response", root, request,
                                [&] { return net::parse_response(out); });
  tracer_.close(root);
  // Repeats the hash admit() starts with, to attribute it; a root of its
  // own so it is not counted twice.
  traced(tracer_, "core.dag_fingerprint", -1, request,
         [&] { return ss::dag_fingerprint(frame.dag); });

  if (!resp.ok) ++counts_.errors;
  if (resp.ok && resp.placement->degraded) ++counts_.degraded_served;
  if (resp.cache_hit) {
    ++counts_.hits;
  } else {
    ++counts_.misses;
    if (resp.placement != nullptr) cold_path(frame, *resp.placement->dag, request);
  }
  return answer;
}

void Replay::cold_path(const net::SubmitFrame& frame, const ss::Dag& dag,
                       std::uint64_t request) {
  const ss::Platform& platform = daemon_.platform();
  const std::int64_t root = tracer_.open("replay.cold_path", -1, request);
  double period = frame.period;
  if (period <= 0.0) {
    period = traced(tracer_, "exp.calibrate_period", root, request, [&] {
      const ss::CopyId eps = frame.model.derive_eps(platform, dag.num_tasks());
      return ss::calibrate_period(dag, platform, eps, frame.headroom, frame.comm_share);
    });
  }
  ss::SchedulerOptions options;
  options.fault_model = frame.model;
  options.repair = true;
  options.period = period;
  const ss::AlgoVariant variant = ss::AlgoVariant::parse(frame.variant_spec);
  auto [result, factor] = traced(tracer_, "exp.schedule_escalation", root, request, [&] {
    return ss::schedule_with_period_escalation(variant, dag, platform, period, options);
  });
  if (factor > 1.0) ++counts_.escalated;
  counts_.repair_comms += result.repair.added_comms;
  if (result.ok()) {
    const ss::Schedule& schedule = *result.schedule;
    traced(tracer_, "schedule.oracle_compile", root, request,
           [&] { return ss::SurvivalOracle(schedule).num_tasks(); });
    if (frame.model.is_probabilistic()) {
      traced(tracer_, "schedule.reliability", root, request,
             [&] { return ss::schedule_reliability(schedule).reliability; });
    }
  }
  tracer_.close(root);
}

void Replay::event(bool failure, ss::ProcId proc, std::uint64_t request) {
  ss::ProcSet after = failed_;
  if (failure) {
    after.set(proc);
    const std::int64_t detail = tracer_.open("replay.event_detail", -1, request);
    std::vector<std::uint64_t> scratch;
    for (const auto& entry : daemon_.snapshot_entries()) {
      if (entry->oracle.survives(after, scratch)) continue;
      ss::CachedPlacement copy(*entry);
      traced(tracer_, "schedule.repair_for_failure_set", detail, request, [&] {
        return ss::repair_for_failure_set(copy.schedule, copy.oracle, after).success;
      });
    }
    tracer_.close(detail);
  } else {
    after.reset(proc);
  }
  ss::ClusterEvent event;
  event.kind = failure ? ss::ClusterEvent::Kind::kFailure : ss::ClusterEvent::Kind::kRecovery;
  event.proc = proc;
  const std::int64_t root = tracer_.open("replay.event", -1, request);
  traced(tracer_, "daemon.on_event", root, request, [&] { daemon_.on_event(event); });
  tracer_.close(root);
  failed_ = after;

  const std::int64_t detail = tracer_.open("replay.event_detail", -1, request);
  ss::BatchScratch batch;
  for (const auto& entry : daemon_.snapshot_entries()) {
    if (!entry->degraded) continue;
    traced(tracer_, "schedule.achieved_tolerance", detail, request, [&] {
      return ss::achieved_tolerance(entry->oracle, failed_, entry->eps_want, batch);
    });
  }
  tracer_.close(detail);
}

}  // namespace svcbench
