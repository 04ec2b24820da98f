#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>

#include "core/fingerprint.hpp"
#include "graph/generators.hpp"
#include "replay.hpp"
#include "service/churn.hpp"
#include "service/daemon.hpp"
#include "service/persistence.hpp"
#include "util/rng.hpp"

namespace svcbench {

namespace {

namespace net = ss::net;

constexpr double kHotLimitUs = 2000.0;  ///< hot_hits latency limit
constexpr double kNominalRate = 1000.0;  ///< hot_hits rate of the reported p50
constexpr std::size_t kHotRounds = 10;   ///< servers the timed hot_hits traffic is split over
constexpr double kWarmupS = 0.5;         ///< untimed traffic before each round's nominal phase
/// Requests the hot_hits capacity phase keeps in flight on its connection:
/// enough to keep the poll thread and both interactive workers busy. By
/// Little's law the phase's median latency is about window / rate, so any
/// rate above 2000/s meets the 2 ms limit.
constexpr std::size_t kCapacityWindow = 4;
constexpr std::int64_t kRateIntervalNs = 250'000'000;  ///< server.sustained_rate interval
constexpr std::size_t kHotDags = 8;
constexpr std::size_t kSetupRepeats = 31;      ///< fresh_cold server starts per run
constexpr std::size_t kSetupsPerRound = 4;     ///< hot_hits warm starts before each round
/// Fail/recover pairs the traced hot_hits replay sends through on_event.
constexpr std::size_t kReplayEvents = 2000;
constexpr std::size_t kTailChunk = 1000;
constexpr std::size_t kFloorProbes = 2000;
constexpr std::size_t kColdClasses = 6;
constexpr std::size_t kFixedColdSet = 192;  ///< fresh_cold DAGs every run must finish
constexpr std::size_t kReplayColdCap = 120;
constexpr std::size_t kReplayHits = 2000;
constexpr double kChurnHitRate = 500.0;
constexpr std::size_t kChurnMinEvents = 1100;
constexpr const char* kChurnModel = "churn:R=0.985,amp=10,period=8,recover=0.2";

double median(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

double seconds_between(std::int64_t a, std::int64_t b) {
  return 1e-9 * static_cast<double>(b - a);
}

/// The hot working set: 8 DAGs x 52 tasks under count:eps=2 (6.7 KB SUBMIT
/// lines), generated exactly as the repo's bench_server does.
std::vector<net::SubmitFrame> hot_working_set(std::uint64_t seed, bool degraded_ok) {
  std::vector<net::SubmitFrame> frames(kHotDags);
  for (std::size_t d = 0; d < kHotDags; ++d) {
    ss::Rng rng(seed + 0x9e3779b97f4a7c15ULL * (d + 1));
    frames[d].dag = ss::make_random_layered(rng, 52, 4, 0.4, ss::WeightRanges{});
    frames[d].model = ss::FaultModel::count(2);
    frames[d].degraded_ok = degraded_ok;
  }
  return frames;
}

/// fresh_cold request i: a never-seen DAG of 3-6 layers cycling through
/// 26/52 tasks and the models count:eps=1, count:eps=2, prob:R=0.99; its
/// class (size x model) is i % kColdClasses.
net::SubmitFrame cold_frame(std::uint64_t seed, std::size_t i) {
  static const ss::FaultModel kModels[] = {ss::FaultModel::count(1), ss::FaultModel::count(2),
                                           ss::FaultModel::probabilistic(0.99)};
  ss::Rng rng(ss::Rng(seed ^ 0xc01dULL).fork(i + 1));
  const std::size_t tasks = i % 2 == 0 ? 26 : 52;
  const auto layers = static_cast<std::size_t>(rng.uniform_int(3, 6));
  net::SubmitFrame frame;
  frame.dag = ss::make_random_layered(rng, tasks, layers, 0.4, ss::WeightRanges{});
  frame.model = kModels[(i / 2) % 3];
  return frame;
}

/// Reference placements: the same requests admitted in process on a fresh
/// daemon of the deployed configuration.
std::vector<std::string> reference_fps(const std::vector<net::SubmitFrame>& frames) {
  ss::PlacementDaemon daemon(make_platform(), deployed_config("", "").daemon);
  std::vector<std::string> fps;
  for (net::SubmitFrame frame : frames) {
    const ss::PlacementResponse resp = daemon.admit(to_request(std::move(frame)));
    fps.push_back(resp.ok ? hex16(ss::schedule_fingerprint(resp.placement->schedule)) : "");
  }
  return fps;
}

double latency_periods(const net::Response& r) {
  return r.field_double("latency") / r.field_double("period");
}

std::vector<PlannedSend> uniform_plan(double rate, double seconds) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<PlannedSend> plan(n);
  for (std::size_t k = 0; k < n; ++k) {
    plan[k].due_ns = std::llround(static_cast<double>(k) * 1e9 / rate);
  }
  return plan;
}

/// Requests answered OK per second, from the first due time to the last
/// OK answer.
double completion_rate(const std::vector<Outcome>& out) {
  std::size_t ok = 0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  for (const Outcome& o : out) {
    if (o.sent_ns == 0) continue;
    if (first == 0 || o.due_ns < first) first = o.due_ns;
    if (o.status == Status::kOk) {
      ++ok;
      last = std::max(last, o.recv_ns);
    }
  }
  return last > first ? static_cast<double>(ok) / seconds_between(first, last) : 0.0;
}

/// Prints a latency distribution to stderr: p50, p90, p95 as the median
/// over chunks of kTailChunk requests in send order, p99 over all samples,
/// each tail with its samples beyond. A run too short for kMinBeyond
/// samples beyond either tail fails its check. Only medians are reported
/// metrics: on a shared virtual machine (measured on 4 vCPUs) the tails
/// follow the host — in busy minutes it stalls every vCPU for
/// milliseconds several times a second, and a hot_hits p95 rose from
/// ~0.55 ms to 5-10 ms between runs of the same code.
void print_latencies(Report& report, const std::string& what,
                     const std::vector<double>& latencies) {
  const Percentile p50 = percentile(latencies, 0.5);
  const Percentile p95 = chunked_percentile(latencies, 0.95, kTailChunk);
  const Percentile p99 = percentile(latencies, 0.99);
  std::cerr << what << ": samples=" << p50.samples << " p50_us=" << p50.value
            << " p90_us=" << percentile(latencies, 0.9).value << " p95_us=" << p95.value
            << " (beyond " << p95.beyond << " per chunk) p99_us=" << p99.value << " (beyond "
            << p99.beyond << ")\n";
  if (std::min(p95.beyond, p99.beyond) < kMinBeyond) {
    report.fail(what + " tail has fewer than " + std::to_string(kMinBeyond) +
                " samples beyond it (run too short)");
  }
}

/// Counts every sent outcome as attempted and the non-OK ones as failed;
/// a failed check is a correctness failure too.
void account(Report& report, const std::vector<Outcome>& out, const std::string& what) {
  std::size_t bad_checks = 0;
  for (const Outcome& o : out) {
    if (o.sent_ns == 0) continue;
    ++report.attempted;
    if (o.status != Status::kOk) ++report.failed;
    if (o.status == Status::kBadCheck) ++bad_checks;
  }
  if (bad_checks > 0) report.fail(what + ": " + std::to_string(bad_checks) + " responses failed their check");
}

std::size_t count_sent(const std::vector<Outcome>& out) {
  return static_cast<std::size_t>(
      std::count_if(out.begin(), out.end(), [](const Outcome& o) { return o.sent_ns != 0; }));
}

double late_p99_us(const std::vector<Outcome>& out) {
  std::vector<double> late;
  for (const Outcome& o : out) {
    if (o.sent_ns != 0) late.push_back(o.late_us());
  }
  return percentile(late, 0.99).value;
}

struct LaneTotals {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
};

/// STATS cross-checks after every response is in: SUBMITs sent = accepted
/// + shed per lane, admissions = accepted (each accepted SUBMIT reaches
/// admit exactly once), completed = accepted, and no failed verification.
LaneTotals check_server_stats(const std::string& socket_path, std::uint64_t submits_sent,
                              Report& report) {
  net::Client client = net::Client::connect_unix_path(socket_path);
  const net::Response s = client.stats();
  LaneTotals lanes;
  if (!s.ok) {
    report.fail("STATS refused: " + s.message);
    return lanes;
  }
  for (const char* lane : {"interactive", "batch"}) {
    const std::string name(lane);
    lanes.accepted += s.field_u64(name + "_accepted");
    lanes.shed += s.field_u64(name + "_shed");
    lanes.completed += s.field_u64(name + "_completed");
  }
  const std::uint64_t admissions = s.field_u64("admissions");
  std::cerr << "stats: sent=" << submits_sent << " admissions=" << admissions
            << " accepted=" << lanes.accepted << " shed=" << lanes.shed
            << " completed=" << lanes.completed << " cold=" << s.field("cold")
            << " events=" << s.field("events") << " event_repairs=" << s.field("event_repairs")
            << " rebuilds=" << s.field("rebuilds") << " reheals=" << s.field("reheals")
            << " verify_failures=" << s.field("verify_failures") << '\n';
  if (lanes.accepted + lanes.shed != submits_sent) {
    report.fail("lanes accepted+shed=" + std::to_string(lanes.accepted + lanes.shed) +
                " != SUBMITs sent=" + std::to_string(submits_sent));
  }
  if (admissions != submits_sent - lanes.shed) {
    report.fail("STATS admissions=" + std::to_string(admissions) +
                " != SUBMITs sent minus shed=" + std::to_string(submits_sent - lanes.shed));
  }
  if (lanes.completed != lanes.accepted) {
    report.fail("lanes completed=" + std::to_string(lanes.completed) +
                " != accepted=" + std::to_string(lanes.accepted));
  }
  if (s.field_u64("verify_failures") != 0) {
    report.fail("verify_failures=" + s.field("verify_failures"));
  }
  return lanes;
}

/// HEALTH round trips on the idle server: the wire's floor.
double socket_floor_us(const std::string& socket_path) {
  const auto line = [](std::size_t, std::string& out) { out = net::format_health(); };
  const auto check = [](std::size_t, const net::Response& r) { return r.ok; };
  const std::vector<Outcome> out =
      run_closed_loop(socket_path, 1, kFloorProbes, kFloorProbes, 0, line, check);
  return median(latencies_us(out, 0, out.size()));
}

/// What a traced run measures besides the replay's spans.
struct TraceExtras {
  double round_trip_p50_us = 0.0;  ///< untraced socket phase
  double traced_p50_us = 0.0;      ///< traced socket phase
  double late_p99_us = 0.0;
  double socket_floor_us = 0.0;
  /// hot_hits: median 250 ms interval rate with kCapacityWindow requests in
  /// flight; fresh_cold and churn_mix: the untraced phase's completion rate.
  double sustained_rate = 0.0;
  double request_bytes = 0.0;
  LaneTotals lanes;
  ss::DaemonStats daemon;  ///< replay daemon, deltas over the replayed sequence
  ReplayCounts counts;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double snapshot_bytes = 0.0;
};

double p50_of(const std::vector<Span>& spans, const char* name) {
  return median(span_durations_us(spans, name));
}

ss::DaemonStats stats_delta(const ss::DaemonStats& a, const ss::DaemonStats& b) {
  ss::DaemonStats d;
  d.event_repairs = b.event_repairs - a.event_repairs;
  d.rebuilds = b.rebuilds - a.rebuilds;
  d.reheals = b.reheals - a.reheals;
  d.repair_failures = b.repair_failures - a.repair_failures;
  d.verify_failures = b.verify_failures - a.verify_failures;
  return d;
}

/// Times saving the replay daemon's cache and warm-starting a fresh daemon
/// from it (median of a few repeats each).
void time_persistence(const ss::PlacementDaemon& daemon, const std::string& base,
                      TraceExtras& extras) {
  remove_generations(base);
  std::vector<double> save;
  std::vector<double> load;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = now_ns();
    const ss::SnapshotSaveStats saved = ss::save_cache_generation(daemon, base, 1);
    save.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    extras.snapshot_bytes = static_cast<double>(saved.bytes);
    ss::PlacementDaemon fresh(make_platform(), deployed_config("", "").daemon);
    const std::int64_t t1 = now_ns();
    (void)ss::load_newest_cache_generation(fresh, base);
    load.push_back(1e-6 * static_cast<double>(now_ns() - t1));
  }
  remove_generations(base);
  extras.save_ms = median(save);
  extras.load_ms = median(load);
}

/// The per-layer metrics of a traced run, in one place for all workloads.
void emit_per_layer(Report& report, const std::vector<Span>& spans, const TraceExtras& x,
                    const std::string& workload) {
  std::vector<double> admits = span_durations_us(spans, "daemon.admit_hit");
  const std::vector<double> cold = span_durations_us(spans, "daemon.admit_cold");
  admits.insert(admits.end(), cold.begin(), cold.end());
  const std::vector<double> events = span_durations_us(spans, "daemon.on_event");

  const double parse_request = p50_of(spans, "net.parse_request");
  const double prepare = p50_of(spans, "server.prepare");
  const double admit = median(admits);
  const double format_response = p50_of(spans, "server.format_response");
  const double parse_response = p50_of(spans, "net.parse_response");
  const double unattributed =
      stage_residual(x.round_trip_p50_us, {x.socket_floor_us, parse_request, prepare, admit,
                                           format_response, parse_response});
  std::fprintf(stderr,
               "\n== %s stage sum (p50, us) ==\n"
               "  net.socket_floor      %10.2f\n  net.parse_request     %10.2f\n"
               "  server.prepare        %10.2f\n  daemon.admit          %10.2f\n"
               "  server.format_response%10.2f\n  net.parse_response    %10.2f\n"
               "  server.unattributed   %10.2f\n  = round trip          %10.2f\n",
               workload.c_str(), x.socket_floor_us, parse_request, prepare, admit,
               format_response, parse_response, unattributed, x.round_trip_p50_us);

  const double misses = static_cast<double>(x.counts.misses);
  const double submits = static_cast<double>(x.counts.hits + x.counts.misses);
  report.add("net.format_submit_us", p50_of(spans, "net.format_submit"), "us");
  report.add("net.parse_request_us", parse_request, "us");
  report.add("net.parse_response_us", parse_response, "us");
  report.add("net.request_bytes", x.request_bytes, "bytes");
  report.add("net.socket_floor_us", x.socket_floor_us, "us");
  report.add("server.prepare_us", prepare, "us");
  report.add("server.format_response_us", format_response, "us");
  report.add("server.unattributed_us", unattributed, "us");
  report.add("server.accepted", static_cast<double>(x.lanes.accepted), "count");
  report.add("server.shed", static_cast<double>(x.lanes.shed), "count");
  report.add("server.completed", static_cast<double>(x.lanes.completed), "count");
  report.add("server.sustained_rate", x.sustained_rate, "1/s");
  report.add("daemon.admit_hit_us", p50_of(spans, "daemon.admit_hit"), "us");
  report.add("daemon.admit_cold_ms", 1e-3 * median(cold), "ms");
  report.add("daemon.on_event_us", median(events), "us");
  report.add("daemon.on_event_max_ms",
             events.empty() ? 0.0 : 1e-3 * *std::max_element(events.begin(), events.end()),
             "ms");
  report.add("daemon.hit_ratio", submits > 0 ? static_cast<double>(x.counts.hits) / submits : 0.0,
             "fraction");
  report.add("daemon.event_repairs", static_cast<double>(x.daemon.event_repairs), "count");
  report.add("daemon.rebuilds", static_cast<double>(x.daemon.rebuilds), "count");
  report.add("daemon.reheals", static_cast<double>(x.daemon.reheals), "count");
  report.add("daemon.repair_failures", static_cast<double>(x.daemon.repair_failures), "count");
  report.add("daemon.verify_failures", static_cast<double>(x.daemon.verify_failures), "count");
  report.add("daemon.degraded_served", static_cast<double>(x.counts.degraded_served), "count");
  report.add("exp.calibrate_period_us", p50_of(spans, "exp.calibrate_period"), "us");
  report.add("exp.schedule_escalation_ms", 1e-3 * p50_of(spans, "exp.schedule_escalation"),
             "ms");
  report.add("exp.escalated_share",
             misses > 0 ? static_cast<double>(x.counts.escalated) / misses : 0.0, "fraction");
  report.add("schedule.oracle_compile_us", p50_of(spans, "schedule.oracle_compile"), "us");
  report.add("schedule.reliability_ms", 1e-3 * p50_of(spans, "schedule.reliability"), "ms");
  report.add("schedule.repair_comms", static_cast<double>(x.counts.repair_comms), "count");
  report.add("schedule.repair_for_failure_set_us",
             p50_of(spans, "schedule.repair_for_failure_set"), "us");
  report.add("schedule.achieved_tolerance_us", p50_of(spans, "schedule.achieved_tolerance"),
             "us");
  report.add("core.dag_fingerprint_us", p50_of(spans, "core.dag_fingerprint"), "us");
  report.add("core.schedule_fingerprint_us", p50_of(spans, "core.schedule_fingerprint"), "us");
  report.add("persistence.save_ms", x.save_ms, "ms");
  report.add("persistence.load_ms", x.load_ms, "ms");
  report.add("persistence.snapshot_bytes", x.snapshot_bytes, "bytes");
  report.add("gen.late_p99_us", x.late_p99_us, "us");
  report.add("trace.overhead",
             x.round_trip_p50_us > 0 ? x.traced_p50_us / x.round_trip_p50_us : 0.0, "ratio");
  if (x.daemon.verify_failures != 0) report.fail("replay daemon verify_failures != 0");
}

void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  const TraceExtras& extras) {
  print_stage_table(options.workload + " traced replay", tracer.spans());
  write_spans(options.workdir + "/" + options.workload + ".spans.tsv", tracer.spans());
  emit_per_layer(report, tracer.spans(), extras, options.workload);
}

}  // namespace

// ---------------------------------------------------------------- hot_hits --

void run_hot_hits(const Options& opt, Report& report) {
  const std::string sock = opt.workdir + "/hot_hits.sock";
  const std::string base = opt.workdir + "/hot_hits.snap";
  remove_generations(base);
  const std::vector<net::SubmitFrame> frames = hot_working_set(opt.seed, false);
  std::vector<LineTemplate> templates;
  for (const net::SubmitFrame& f : frames) templates.push_back(LineTemplate::of(f));
  const std::vector<std::string> ref = reference_fps(frames);

  // Untimed priming server: fills the cache cold; its shutdown writes the
  // snapshot generation every timed server warm-starts from.
  double latency_sum = 0.0;
  {
    ServerHandle priming(make_platform(), deployed_config(sock, base));
    net::Client client = net::Client::connect_unix_path(sock);
    std::string line;
    for (std::size_t d = 0; d < kHotDags; ++d) {
      templates[d].render(d, line);
      const net::Response r = client.roundtrip(line);
      if (!r.ok || r.field("src") != "cold" || r.field("fp") != ref[d]) {
        report.fail("priming SUBMIT " + std::to_string(d) + ": src=" + r.field("src") +
                    " fp=" + r.field("fp") + " want cold fp=" + ref[d] + " " + r.message);
        continue;
      }
      latency_sum += latency_periods(r);
    }
  }
  if (ss::list_snapshot_generations(base).empty()) {
    report.fail("priming server wrote no snapshot generation");
    return;
  }

  // A warm start: server construction, snapshot load and verification,
  // first HEALTH answered.
  std::unique_ptr<ServerHandle> server;
  const auto warm_start = [&] {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerHandle>(make_platform(), deployed_config(sock, base));
    net::Client client = net::Client::connect_unix_path(sock);
    if (!client.health().ok) report.fail("HEALTH refused after warm start");
    const double seconds = seconds_between(t0, now_ns());
    const std::uint64_t restored = server->server().daemon().stats().restored;
    if (restored != kHotDags) {
      report.fail("warm start restored " + std::to_string(restored) + " of " +
                  std::to_string(kHotDags) + " placements");
    }
    return seconds;
  };
  std::vector<double> setups;

  // Every timed SUBMIT must be a warm hit serving the cold placement.
  const auto line = [&](std::size_t i, std::string& out) { templates[i % kHotDags].render(i, out); };
  const auto check = [&](std::size_t i, const net::Response& r) {
    return r.ok && r.field("src") == "warm" && r.field("fp") == ref[i % kHotDags];
  };

  if (!opt.trace) {
    // The timed traffic is split over kHotRounds freshly warm-started
    // servers, and their p50s are reported as a median (below), so a
    // round that met a busy stretch of the host is left out.
    const double nominal_s = std::max(1.5, 0.9 * opt.seconds / kHotRounds);
    std::vector<Outcome> nominal;
    std::vector<double> nominal_rates;
    std::vector<double> nominal_p50s;
    for (std::size_t round = 0; round < kHotRounds; ++round) {
      // Setup is timed a few times before every round, so the host's
      // drift over the run reaches it as it reaches the traffic.
      for (std::size_t r = 0; r < kSetupsPerRound; ++r) setups.push_back(warm_start());
      // Warm-up at the nominal rate: checked and counted, not timed.
      const std::vector<Outcome> warmup =
          run_open_loop(sock, uniform_plan(kNominalRate, kWarmupS), line, check, {});
      account(report, warmup, "hot_hits warm-up");
      const std::vector<Outcome> part =
          run_open_loop(sock, uniform_plan(kNominalRate, nominal_s), line, check, {});
      account(report, part, "hot_hits nominal phase");
      nominal.insert(nominal.end(), part.begin(), part.end());
      nominal_rates.push_back(completion_rate(part));
      nominal_p50s.push_back(median(latencies_us(part, 0, part.size())));
      std::fprintf(stderr, "round %zu: p50_us=%.0f\n", round, nominal_p50s.back());
      check_server_stats(sock, warmup.size() + part.size(), report);
    }
    std::cerr << "generator late_p99_us=" << late_p99_us(nominal) << '\n';
    print_latencies(report, "submit", latencies_us(nominal, 0, nominal.size()));
    // The median over rounds: a round that met a busy minute of the host
    // does not move it.
    report.add("submit_p50_us", median(nominal_p50s), "us");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("setup_s", median(setups), "s");
    report.add("admissions_per_s", median(nominal_rates), "1/s");
    report.add("placement_latency_periods", latency_sum / kHotDags, "periods");
  } else {
    setups.push_back(warm_start());
    const double phase_s = std::max(1.5, 0.3 * opt.seconds);
    const std::vector<Outcome> untraced =
        run_open_loop(sock, uniform_plan(kNominalRate, phase_s), line, check, {});
    Tracer socket_tracer;
    OpenLoopOptions traced_options;
    traced_options.tracer = &socket_tracer;
    const std::vector<Outcome> traced_out =
        run_open_loop(sock, uniform_plan(kNominalRate, phase_s), line, check, traced_options);
    // Capacity: a full window in flight, so the server never idles and its
    // backlog cannot grow past the window.
    const std::vector<Outcome> capacity =
        run_window(sock, kCapacityWindow, std::llround(std::max(1.0, 0.2 * opt.seconds) * 1e9),
                   line, check);
    const std::uint64_t submits = untraced.size() + traced_out.size() + capacity.size();
    account(report, untraced, "hot_hits untraced phase");
    account(report, traced_out, "hot_hits traced phase");
    account(report, capacity, "hot_hits capacity phase");
    TraceExtras x;
    std::vector<std::int64_t> done;
    for (const Outcome& o : capacity) {
      if (o.status == Status::kOk) done.push_back(o.recv_ns);
    }
    const std::vector<double> rates = interval_rates({done}, kRateIntervalNs);
    x.sustained_rate = percentile(rates, 0.5).value;
    const double capacity_p50 = median(latencies_us(capacity, 0, capacity.size()));
    std::fprintf(stderr,
                 "capacity: window=%zu sent=%zu p50_us=%.0f interval rates p25=%.0f "
                 "p50=%.0f p75=%.0f /s%s\n",
                 kCapacityWindow, capacity.size(), capacity_p50, percentile(rates, 0.25).value,
                 x.sustained_rate, percentile(rates, 0.75).value,
                 capacity_p50 > kHotLimitUs ? " (median past the latency limit)" : "");
    x.round_trip_p50_us = median(latencies_us(untraced, 0, untraced.size()));
    x.traced_p50_us = median(span_durations_us(socket_tracer.spans(), "client.round_trip"));
    x.late_p99_us = late_p99_us(untraced);
    x.socket_floor_us = socket_floor_us(sock);
    x.lanes = check_server_stats(sock, submits, report);
    server.reset();

    // In-process replay on a daemon warm-started from the same generation.
    ss::PlacementDaemon daemon(make_platform(), deployed_config("", "").daemon);
    if (!ss::load_newest_cache_generation(daemon, base).loaded) {
      report.fail("replay daemon could not warm-start from the snapshot");
    }
    Tracer tracer;
    Replay replay(daemon, tracer);
    const ss::DaemonStats before = daemon.stats();
    double bytes = 0.0;
    for (std::size_t i = 0; i < kReplayHits; ++i) {
      const net::SubmitFrame& f = frames[i % kHotDags];
      const net::Response r = replay.submit(f, i);
      if (!r.ok || r.field("src") != "warm" || r.field("fp") != ref[i % kHotDags]) {
        report.fail("replayed SUBMIT " + std::to_string(i) + " served src=" + r.field("src") +
                    " fp=" + r.field("fp"));
      }
    }
    for (const LineTemplate& t : templates) {
      bytes += static_cast<double>(t.prefix.size() + t.suffix.size() + 4);
    }
    for (std::size_t i = 0; i < kReplayEvents; ++i) {
      replay.event(i % 2 == 0, static_cast<ss::ProcId>((i / 2) % 16), kReplayHits + i);
    }
    x.request_bytes = bytes / kHotDags;
    x.daemon = stats_delta(before, daemon.stats());
    x.counts = replay.counts();
    time_persistence(daemon, opt.workdir + "/hot_hits.replay.snap", x);
    finish_trace(report, opt, tracer, x);
  }
  server.reset();
  remove_generations(base);
}

// -------------------------------------------------------------- fresh_cold --

void run_fresh_cold(const Options& opt, Report& report) {
  const std::string sock = opt.workdir + "/fresh_cold.sock";
  constexpr std::size_t kMaxRequests = 100000;
  std::vector<std::string> served_fp(kMaxRequests);
  std::vector<double> served_lp(kMaxRequests);
  const auto line = [&](std::size_t i, std::string& out) {
    net::SubmitFrame frame = cold_frame(opt.seed, i);
    frame.tag = std::to_string(i);
    out = net::format_submit(frame);
  };
  const auto check = [&](std::size_t i, const net::Response& r) {
    if (!r.ok || r.field("src") != "cold") return false;
    served_fp[i] = r.field("fp");
    served_lp[i] = latency_periods(r);
    return true;
  };

  // Setup of a server with nothing to load: construction until its first
  // admission is answered — one fixed DAG, the same for every seed, so the
  // cold path's first-call costs count and the seed does not move it.
  net::SubmitFrame warmup;
  {
    ss::Rng rng(0x5e7u);
    warmup.dag = ss::make_random_layered(rng, 26, 3, 0.4, ss::WeightRanges{});
    warmup.tag = "warmup";
  }
  const std::string warmup_line = net::format_submit(warmup);

  // One phase = a fresh server (empty cache: every DAG is never seen),
  // closed loop with one connection per interactive worker.
  std::vector<double> setups;
  const auto phase = [&](double seconds, std::size_t min_requests, std::size_t repeats,
                         Tracer* tracer, LaneTotals* lanes) {
    std::unique_ptr<ServerHandle> server;
    for (std::size_t r = 0; r < repeats; ++r) {
      server.reset();
      const std::int64_t t0 = now_ns();
      server = std::make_unique<ServerHandle>(make_platform(), deployed_config(sock, ""));
      net::Client client = net::Client::connect_unix_path(sock);
      const net::Response first = client.roundtrip(warmup_line);
      if (!first.ok || first.field("src") != "cold") report.fail("warm-up admission refused");
      setups.push_back(seconds_between(t0, now_ns()));
    }
    std::vector<Outcome> out =
        run_closed_loop(sock, 2, min_requests, kMaxRequests,
                        std::llround(seconds * 1e9), line, check, tracer);
    account(report, out, "fresh_cold SUBMITs");
    const LaneTotals totals = check_server_stats(sock, count_sent(out) + 1, report);
    if (lanes != nullptr) *lanes = totals;
    return out;
  };

  if (!opt.trace) {
    const std::vector<Outcome> out =
        phase(opt.seconds, kFixedColdSet, kSetupRepeats, nullptr, nullptr);
    // Bit-identity of the fixed set against an in-process reference.
    std::vector<net::SubmitFrame> fixed;
    for (std::size_t i = 0; i < kFixedColdSet; ++i) fixed.push_back(cold_frame(opt.seed, i));
    const std::vector<std::string> ref = reference_fps(fixed);
    double lp = 0.0;
    for (std::size_t i = 0; i < kFixedColdSet; ++i) {
      if (served_fp[i] != ref[i]) {
        report.fail("fresh_cold DAG " + std::to_string(i) + " served fp=" + served_fp[i] +
                    " reference fp=" + ref[i]);
      }
      lp += served_lp[i];
    }
    const double rate = completion_rate(out);
    std::cerr << "fresh_cold: " << count_sent(out) << " admissions\n";
    report.add("setup_s", median(setups), "s");
    print_latencies(report, "submit", latencies_us(out, 0, out.size()));
    // The median over the request classes of each class's p50. The six
    // classes cost from ~2 ms to ~60 ms apiece, so the p50 of the mixed
    // sample falls in the gap between two classes and moved ~1.7 times as
    // far as the admission rate when the host's speed drifted.
    std::vector<double> class_p50s;
    for (std::size_t c = 0; c < kColdClasses; ++c) {
      std::vector<double> latencies;
      for (std::size_t i = c; i < out.size(); i += kColdClasses) {
        if (out[i].sent_ns != 0) {
          latencies.push_back(out[i].status == Status::kOk
                                  ? out[i].latency_us()
                                  : std::numeric_limits<double>::infinity());
        }
      }
      class_p50s.push_back(median(latencies));
      std::cerr << "class " << c << " (" << (c % 2 == 0 ? 26 : 52) << " tasks, "
                << cold_frame(opt.seed, c).model.to_string() << "): p50_us=" << class_p50s.back()
                << '\n';
    }
    report.add("submit_p50_us", median(class_p50s), "us");
    report.add("admissions_per_s", rate, "1/s");
    report.add("placement_latency_periods", lp / kFixedColdSet, "periods");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double phase_s = std::max(1.0, 0.3 * opt.seconds);
    const std::size_t min_requests = 16;
    const std::vector<Outcome> untraced = phase(phase_s, min_requests, 1, nullptr, nullptr);
    Tracer socket_tracer;
    TraceExtras x;
    const std::vector<Outcome> traced_out =
        phase(phase_s, min_requests, 1, &socket_tracer, &x.lanes);
    x.round_trip_p50_us = median(latencies_us(untraced, 0, untraced.size()));
    x.traced_p50_us = median(span_durations_us(socket_tracer.spans(), "client.round_trip"));
    x.late_p99_us = 0.0;  // closed loop: requests are sent when due
    x.sustained_rate = completion_rate(untraced);
    {
      ServerHandle idle(make_platform(), deployed_config(sock, ""));
      x.socket_floor_us = socket_floor_us(sock);
    }

    ss::PlacementDaemon daemon(make_platform(), deployed_config("", "").daemon);
    Tracer tracer;
    Replay replay(daemon, tracer);
    const std::size_t n = std::min(kReplayColdCap, count_sent(traced_out));
    double bytes = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const net::SubmitFrame f = cold_frame(opt.seed, i);
      bytes += static_cast<double>(net::format_submit(f).size());
      const net::Response r = replay.submit(f, i);
      if (!r.ok || r.field("fp") != served_fp[i]) {
        report.fail("replayed cold DAG " + std::to_string(i) + " fp=" + r.field("fp") +
                    " served fp=" + served_fp[i]);
      }
    }
    const ss::DaemonStats before = daemon.stats();
    for (std::size_t i = 0; i < kReplayEvents / 10; ++i) {
      replay.event(i % 2 == 0, static_cast<ss::ProcId>((i / 2) % 16), n + i);
    }
    x.request_bytes = n > 0 ? bytes / static_cast<double>(n) : 0.0;
    x.daemon = stats_delta(before, daemon.stats());
    x.counts = replay.counts();
    time_persistence(daemon, opt.workdir + "/fresh_cold.replay.snap", x);
    finish_trace(report, opt, tracer, x);
  }
}

// --------------------------------------------------------------- churn_mix --

namespace {

struct ChurnItem {
  bool event = false;
  bool failure = false;
  ss::ProcId proc = 0;
  std::size_t frame = 0;
};

struct ChurnPlan {
  std::vector<PlannedSend> sends;
  std::vector<ChurnItem> items;
};

/// Hits at kChurnHitRate on connection 0 merged by due time with the
/// trace's events on connection 1, one trace step every `cadence_ns`.
ChurnPlan churn_plan(const ss::ChurnTrace& trace, std::int64_t cadence_ns, double seconds) {
  const auto horizon = std::llround(seconds * 1e9);
  std::vector<std::pair<PlannedSend, ChurnItem>> merged;
  const std::vector<PlannedSend> hits = uniform_plan(kChurnHitRate, seconds);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ChurnItem item;
    item.frame = k % kHotDags;
    merged.emplace_back(hits[k], item);
  }
  for (std::size_t step = 0; step < trace.steps.size(); ++step) {
    const std::int64_t due = static_cast<std::int64_t>(step) * cadence_ns;
    if (due >= horizon) break;
    for (const ss::ClusterEvent& e : trace.steps[step]) {
      ChurnItem item;
      item.event = true;
      item.failure = e.kind == ss::ClusterEvent::Kind::kFailure;
      item.proc = e.proc;
      merged.emplace_back(PlannedSend{due, 1}, item);
    }
  }
  std::stable_sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.first.due_ns < b.first.due_ns;
  });
  ChurnPlan plan;
  for (const auto& [send, item] : merged) {
    plan.sends.push_back(send);
    plan.items.push_back(item);
  }
  return plan;
}

std::size_t event_count(const ss::ChurnTrace& trace) {
  std::size_t n = 0;
  for (const auto& step : trace.steps) n += step.size();
  return n;
}

}  // namespace

void run_churn_mix(const Options& opt, Report& report) {
  const std::string sock = opt.workdir + "/churn_mix.sock";
  const std::vector<net::SubmitFrame> frames = hot_working_set(opt.seed, true);
  std::vector<LineTemplate> templates;
  for (const net::SubmitFrame& f : frames) templates.push_back(LineTemplate::of(f));
  const std::vector<std::string> ref = reference_fps(frames);

  // Independent 64-step churn traces (each ends with every processor
  // recovered), appended until there are kChurnMinEvents events, then
  // replayed at the cadence that spreads them over the whole run.
  const ss::FaultModel model = ss::FaultModel::parse(kChurnModel);
  const ss::Platform platform = make_platform();
  ss::ChurnTrace trace;
  for (std::uint64_t k = 0; event_count(trace) < kChurnMinEvents; ++k) {
    const ss::ChurnTrace part =
        ss::generate_churn_trace(model, platform, opt.seed * 1000 + k, ss::ChurnTraceConfig{});
    trace.steps.insert(trace.steps.end(), part.steps.begin(), part.steps.end());
  }
  const std::int64_t cadence_ns =
      std::llround(opt.seconds * 1e9 / static_cast<double>(trace.steps.size()));
  std::cerr << "churn trace: " << trace.steps.size() << " steps, " << event_count(trace)
            << " events, one step every " << cadence_ns / 1000 << " us\n";

  std::vector<double> setups;
  double latency_sum = 0.0;
  // One phase = a fresh server filled cold with the hot working set, then
  // hits and events replayed open loop.
  const auto phase = [&](double seconds, std::size_t repeats, Tracer* tracer,
                         LaneTotals* lanes) {
    std::unique_ptr<ServerHandle> server;
    std::uint64_t submits = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
      server.reset();
      submits = 0;
      latency_sum = 0.0;
      const std::int64_t t0 = now_ns();
      server = std::make_unique<ServerHandle>(make_platform(), deployed_config(sock, ""));
      net::Client client = net::Client::connect_unix_path(sock);
      std::string line;
      for (std::size_t d = 0; d < kHotDags; ++d) {
        templates[d].render(d, line);
        const net::Response resp = client.roundtrip(line);
        ++submits;
        if (!resp.ok || resp.field("src") != "cold" || resp.field("fp") != ref[d]) {
          report.fail("cold fill SUBMIT " + std::to_string(d) + ": src=" + resp.field("src") +
                      " fp=" + resp.field("fp") + " want cold fp=" + ref[d]);
          continue;
        }
        latency_sum += latency_periods(resp);
      }
      setups.push_back(seconds_between(t0, now_ns()));
    }
    const ChurnPlan plan = churn_plan(trace, cadence_ns, seconds);
    const auto line = [&](std::size_t i, std::string& out) {
      const ChurnItem& item = plan.items[i];
      if (!item.event) {
        templates[item.frame].render(i, out);
        return;
      }
      net::EventFrame e;
      e.failure = item.failure;
      e.proc = item.proc;
      e.tag = std::to_string(i);
      out = net::format_event(e);
    };
    // Events answer with their kind. Hits are served from the cache
    // (degraded_ok=1), a degraded one with its explicit deficit; a cold
    // answer is legal only after a failed rebuild dropped the entry.
    const auto check = [&](std::size_t i, const net::Response& r) {
      const ChurnItem& item = plan.items[i];
      if (!r.ok) return false;
      if (item.event) return r.field("kind") == (item.failure ? "fail" : "recover");
      const std::string& src = r.field("src");
      if (src == "degraded") return r.field_u64("eps_have") < r.field_u64("eps_want");
      return src == "hit" || src == "cold";
    };
    OpenLoopOptions options;
    options.connections = 2;
    options.tracer = tracer;
    std::vector<Outcome> out = run_open_loop(sock, plan.sends, line, check, options);
    account(report, out, "churn_mix");
    for (const ChurnItem& item : plan.items) submits += item.event ? 0 : 1;
    const LaneTotals totals = check_server_stats(sock, submits, report);
    if (lanes != nullptr) *lanes = totals;
    return std::make_pair(plan, out);
  };

  const auto split = [](const ChurnPlan& plan, const std::vector<Outcome>& out, bool events) {
    std::vector<Outcome> part;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (plan.items[i].event == events) part.push_back(out[i]);
    }
    return part;
  };

  if (!opt.trace) {
    const auto [plan, out] = phase(opt.seconds, 3, nullptr, nullptr);
    const std::vector<Outcome> hits = split(plan, out, false);
    const std::vector<Outcome> events = split(plan, out, true);
    write_outcomes(opt.workdir + "/churn_mix.outcomes.tsv", "hit", hits, false);
    write_outcomes(opt.workdir + "/churn_mix.outcomes.tsv", "event", events, true);
    std::cerr << "generator late_p99_us=" << late_p99_us(out) << '\n';
    report.add("setup_s", median(setups), "s");
    const std::vector<double> latencies = latencies_us(hits, 0, hits.size());
    print_latencies(report, "submit", latencies);
    report.add("submit_p50_us", median(latencies), "us");
    report.add("admissions_per_s", completion_rate(hits), "1/s");
    // Event round trips are printed, not reported: see README (churn_mix).
    const std::vector<double> event_us = latencies_us(events, 0, events.size());
    std::cerr << "event: samples=" << event_us.size()
              << " p50_us=" << percentile(event_us, 0.5).value
              << " p95_us=" << percentile(event_us, 0.95).value
              << " p99_us=" << percentile(event_us, 0.99).value << '\n';
    report.add("placement_latency_periods", latency_sum / kHotDags, "periods");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double phase_s = std::max(1.0, 0.3 * opt.seconds);
    const auto untraced = phase(phase_s, 1, nullptr, nullptr);
    Tracer socket_tracer;
    TraceExtras x;
    const auto traced_run = phase(phase_s, 1, &socket_tracer, &x.lanes);
    const std::vector<Outcome> untraced_hits = split(untraced.first, untraced.second, false);
    x.round_trip_p50_us = median(latencies_us(untraced_hits, 0, untraced_hits.size()));
    x.sustained_rate = completion_rate(untraced_hits);
    std::vector<double> traced_hits;
    for (const Span& s : socket_tracer.spans()) {
      if (!traced_run.first.items[s.request].event) {
        traced_hits.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    x.traced_p50_us = median(traced_hits);
    x.late_p99_us = late_p99_us(untraced.second);
    {
      ServerHandle idle(make_platform(), deployed_config(sock, ""));
      x.socket_floor_us = socket_floor_us(sock);
    }

    // Replay: the cold fill, then the traced phase's sequence in order.
    ss::PlacementDaemon daemon(make_platform(), deployed_config("", "").daemon);
    Tracer tracer;
    Replay replay(daemon, tracer);
    for (std::size_t d = 0; d < kHotDags; ++d) (void)replay.submit(frames[d], d);
    const ss::DaemonStats before = daemon.stats();
    const ChurnPlan& plan = traced_run.first;
    for (std::size_t i = 0; i < plan.items.size(); ++i) {
      const ChurnItem& item = plan.items[i];
      const std::uint64_t request = kHotDags + i;
      if (item.event) {
        replay.event(item.failure, item.proc, request);
      } else {
        const net::Response r = replay.submit(frames[item.frame], request);
        if (!r.ok) report.fail("replayed churn hit " + std::to_string(i) + ": " + r.message);
      }
    }
    daemon.drain();
    double bytes = 0.0;
    for (const LineTemplate& t : templates) {
      bytes += static_cast<double>(t.prefix.size() + t.suffix.size() + 4);
    }
    x.request_bytes = bytes / kHotDags;
    x.daemon = stats_delta(before, daemon.stats());
    x.counts = replay.counts();
    time_persistence(daemon, opt.workdir + "/churn_mix.replay.snap", x);
    finish_trace(report, opt, tracer, x);
  }
}

}  // namespace svcbench
