// Plumbing of the service benchmark: the report it prints, the in-process
// server it drives, the open- and closed-loop request generators, and the
// span recorder of the traced run.
//
// Generator shape: an open loop is one thread driving every connection (at
// most two): it sends each request at its due time and reads answers in
// between, spinning on non-blocking reads. A closed loop is one blocking
// thread per connection. Open-loop requests are timed from their
// due time, so a stall also charges the requests queued behind it; the
// generator's own lateness is kept per request. Responses are matched to
// requests by the echoed `tag=` field, which is the request's index in the
// plan.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "platform/platform.hpp"
#include "service/server.hpp"

namespace svcbench {

namespace ss = streamsched;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation prints as its last line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  [[nodiscard]] std::string json() const;
};

/// Peak resident set of this process, MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------------ spans --

/// In-memory span recorder of one thread.
class Tracer {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t request) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Names a span after the fact (the call's outcome decides the stage).
  void rename(std::int64_t id, const char* name) {
    spans_[static_cast<std::size_t>(id)].name = name;
  }
  void add(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span; returns what `fn` returns.
template <typename Fn>
auto traced(Tracer& tracer, const char* name, std::int64_t parent, std::uint64_t request,
            Fn&& fn) {
  const std::int64_t id = tracer.open(name, parent, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer.close(id);
  } else {
    auto result = fn();
    tracer.close(id);
    return result;
  }
}

/// Durations (µs) of every span called `name`.
[[nodiscard]] std::vector<double> span_durations_us(const std::vector<Span>& spans,
                                                    const char* name);

/// Writes spans as TSV (name, start_ns, end_ns, parent, request, self_ns).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Prints the per-span-name and per-layer self-time table to stderr.
void print_stage_table(const std::string& title, const std::vector<Span>& spans);

// ----------------------------------------------------------------- server --

/// The deployed defaults of the server binary: interactive lane 2 workers
/// / bound 64, batch lane 1 worker / bound 16, cache 256, background
/// re-heal on.
[[nodiscard]] ss::net::ServerConfig deployed_config(const std::string& socket_path,
                                                    const std::string& snapshot_base);

/// The cluster every workload places onto: the server binary's default
/// (16 processors, failure probabilities in [0.02, 0.08], --seed 42). It
/// is the deployment, not the traffic, so the benchmark's seed does not
/// move it: a reseeded cluster changes how many replicas prob:R models
/// need, which swung fresh_cold's admission rate by 50% between seeds.
[[nodiscard]] ss::Platform make_platform();

/// A Server running its poll loop on a thread; stopped and joined on
/// destruction.
class ServerHandle {
 public:
  ServerHandle(ss::Platform platform, ss::net::ServerConfig config);
  ~ServerHandle();
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  [[nodiscard]] ss::net::Server& server() { return server_; }

 private:
  ss::net::Server server_;
  std::thread thread_;
};

/// Removes every snapshot generation of `base` (and its leftover .tmp).
void remove_generations(const std::string& base);

// --------------------------------------------------------------- requests --

/// A SUBMIT line split around its tag value, so each request gets its own
/// tag without re-serializing the DAG.
struct LineTemplate {
  std::string prefix;
  std::string suffix;

  [[nodiscard]] static LineTemplate of(ss::net::SubmitFrame frame);
  void render(std::uint64_t tag, std::string& out) const;
};

enum class Status : std::uint8_t { kPending, kOk, kError, kBadCheck };

struct Outcome {
  std::int64_t due_ns = 0;   ///< absolute due time (closed loop: send time)
  std::int64_t sent_ns = 0;  ///< 0 = never sent
  std::int64_t recv_ns = 0;
  Status status = Status::kPending;

  [[nodiscard]] double latency_us() const { return 1e-3 * static_cast<double>(recv_ns - due_ns); }
  [[nodiscard]] double late_us() const { return 1e-3 * static_cast<double>(sent_ns - due_ns); }
};

/// Builds request `index`'s line into `out`.
using LineFn = std::function<void(std::size_t index, std::string& out)>;
/// Checks an OK or ERR response to request `index`; false = failed check.
/// Called on the generator threads, one index per call, each index once.
using CheckFn = std::function<bool(std::size_t index, const ss::net::Response& resp)>;

struct PlannedSend {
  std::int64_t due_ns = 0;  ///< offset from the loop's start
  std::uint8_t conn = 0;
};

struct OpenLoopOptions {
  std::size_t connections = 1;
  /// Traced runs record a root span per request (due → answered).
  Tracer* tracer = nullptr;
};

/// Sends `plan` on schedule and collects one Outcome per planned request;
/// requests unanswered 3 s after the last due time count as timed out.
[[nodiscard]] std::vector<Outcome> run_open_loop(const std::string& socket_path,
                                                 const std::vector<PlannedSend>& plan,
                                                 const LineFn& line, const CheckFn& check,
                                                 const OpenLoopOptions& options);

/// Pipelined closed loop on one connection: keeps `window` requests in
/// flight, sending the next as each answer arrives, until `duration_ns`
/// has passed; then waits for the rest. Outcomes are indexed by request
/// (due = send time).
[[nodiscard]] std::vector<Outcome> run_window(const std::string& socket_path, std::size_t window,
                                              std::int64_t duration_ns, const LineFn& line,
                                              const CheckFn& check);

/// Closed loop: `connections` threads each send their next request when
/// the previous one is answered, until `duration_ns` has passed and at
/// least `min_requests` were sent (never more than `max_requests`).
/// Outcomes are indexed by request; unsent ones stay kPending/sent_ns 0.
/// Traced runs record a root span per request (sent → answered).
[[nodiscard]] std::vector<Outcome> run_closed_loop(const std::string& socket_path,
                                                   std::size_t connections,
                                                   std::size_t min_requests,
                                                   std::size_t max_requests,
                                                   std::int64_t duration_ns, const LineFn& line,
                                                   const CheckFn& check,
                                                   Tracer* tracer = nullptr);

/// Writes outcomes as TSV (label, index, due offset from the first due
/// time in ns, latency in µs, late in µs, status) for offline analysis.
void write_outcomes(const std::string& path, const std::string& label,
                    const std::vector<Outcome>& outcomes, bool append);

/// Latencies (µs) of the sent outcomes in [begin, end); failures count as
/// +inf so they miss any latency limit.
[[nodiscard]] std::vector<double> latencies_us(const std::vector<Outcome>& outcomes,
                                               std::size_t begin, std::size_t end);

/// Outcomes in [begin, end) that were sent and did not come back OK.
[[nodiscard]] std::size_t count_failed(const std::vector<Outcome>& outcomes, std::size_t begin,
                                       std::size_t end);

}  // namespace svcbench
