#include "harness.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "platform/generators.hpp"
#include "service/persistence.hpp"
#include "util/rng.hpp"

namespace svcbench {

// ----------------------------------------------------------------- report --

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Report::fail(const std::string& why) {
  correct = false;
  std::cerr << "svcbench: check failed: " << why << '\n';
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A percentile over failed requests is +inf; JSON has no infinity, so
    // it prints as a value far beyond any latency limit.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e12;
    out << (i > 0 ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------------ spans --

std::vector<double> span_durations_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\trequest\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
        << s.request << '\t' << self[i] << '\n';
  }
}

void print_stage_table(const std::string& title, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::vector<double>> self_by_name;
  // Per layer: self time summed over each request's spans, then the p50
  // across requests.
  std::map<std::string, std::map<std::uint64_t, double>> layer_request;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_name[s.name].push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    self_by_name[s.name].push_back(1e-3 * static_cast<double>(self[i]));
    layer_request[layer_of(s.name)][s.request] += 1e-3 * static_cast<double>(self[i]);
  }
  std::fprintf(stderr, "\n== %s: %zu spans ==\n%-34s %8s %12s %12s\n", title.c_str(),
               spans.size(), "span", "count", "p50_us", "self_p50_us");
  for (const auto& [name, d] : by_name) {
    std::fprintf(stderr, "%-34s %8zu %12.2f %12.2f\n", name.c_str(), d.size(),
                 percentile(d, 0.5).value, percentile(self_by_name[name], 0.5).value);
  }
  std::fprintf(stderr, "%-34s %8s %12s\n", "layer", "requests", "self_p50_us");
  for (const auto& [layer, per_request] : layer_request) {
    std::vector<double> v;
    for (const auto& [req, us] : per_request) {
      (void)req;
      v.push_back(us);
    }
    std::fprintf(stderr, "%-34s %8zu %12.2f\n", layer.c_str(), v.size(),
                 percentile(v, 0.5).value);
  }
}

// ----------------------------------------------------------------- server --

ss::net::ServerConfig deployed_config(const std::string& socket_path,
                                      const std::string& snapshot_base) {
  ss::net::ServerConfig config;
  config.unix_path = socket_path;
  config.snapshot_path = snapshot_base;
  auto& interactive = config.lanes[static_cast<std::size_t>(ss::net::QosClass::kInteractive)];
  auto& batch = config.lanes[static_cast<std::size_t>(ss::net::QosClass::kBatch)];
  interactive.workers = 2;
  interactive.bound = 64;
  batch.workers = 1;
  batch.bound = 16;
  config.daemon.cache_capacity = 256;
  config.daemon.auto_reheal = true;
  return config;
}

ss::Platform make_platform() {
  ss::Rng rng(42);
  return ss::make_reliability_heterogeneous(rng, 16, 0.02, 0.08);
}

ServerHandle::ServerHandle(ss::Platform platform, ss::net::ServerConfig config)
    : server_(std::move(platform), std::move(config)) {
  thread_ = std::thread([this] { server_.run(); });
}

ServerHandle::~ServerHandle() {
  server_.shutdown();
  if (thread_.joinable()) thread_.join();
}

void remove_generations(const std::string& base) {
  for (const ss::SnapshotGeneration& g : ss::list_snapshot_generations(base)) {
    ::unlink(g.path.c_str());
    ::unlink((g.path + ".tmp").c_str());
  }
  ::unlink(base.c_str());
  ::unlink((base + ".tmp").c_str());
}

// --------------------------------------------------------------- requests --

LineTemplate LineTemplate::of(ss::net::SubmitFrame frame) {
  static const std::string kMark = "TAGMARK";
  frame.tag = kMark;
  const std::string line = ss::net::format_submit(frame);
  const std::size_t at = line.find(kMark);
  return LineTemplate{line.substr(0, at), line.substr(at + kMark.size())};
}

void LineTemplate::render(std::uint64_t tag, std::string& out) const {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, tag).ptr;
  out.assign(prefix);
  out.append(digits, end);
  out.append(suffix);
}

namespace {

bool parse_tag(const ss::net::Response& resp, std::size_t limit, std::size_t& index) {
  const std::string& tag = resp.field("tag");
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(tag.data(), tag.data() + tag.size(), value);
  if (ec != std::errc() || ptr != tag.data() + tag.size() || value >= limit) return false;
  index = value;
  return true;
}

Status judge(std::size_t index, const ss::net::Response& resp, const CheckFn& check) {
  const bool passed = check(index, resp);
  if (!resp.ok) return Status::kError;
  return passed ? Status::kOk : Status::kBadCheck;
}

/// Non-blocking reader of one connection. The generator spins on it
/// instead of sleeping in the kernel: a vCPU left idle halts, and waking it
/// costs a trip through the hypervisor whose length follows the host's
/// load, not the service's. Spinning keeps that cost off the generator's
/// side of every round trip.
class Inbox {
 public:
  explicit Inbox(int fd) : fd_(fd) {}

  /// Takes what the socket holds and calls `on_response(resp, t)` for each
  /// complete line, `t` being when its bytes were read. False once the
  /// connection is closed.
  template <typename Fn>
  bool poll(Fn&& on_response) {
    if (fd_ < 0) return false;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return true;
    if (n <= 0) {
      fd_ = -1;
      return false;
    }
    const std::int64_t t = now_ns();
    in_.append(chunk, static_cast<std::size_t>(n));
    std::size_t from = 0;
    for (std::size_t nl; (nl = in_.find('\n', from)) != std::string::npos; from = nl + 1) {
      ss::net::Response resp;
      try {
        resp = ss::net::parse_response(in_.substr(from, nl - from));
      } catch (const std::exception& e) {
        std::cerr << "svcbench: unparsable response: " << e.what() << '\n';
        continue;
      }
      on_response(resp, t);
    }
    in_.erase(0, from);
    return true;
  }

 private:
  int fd_;
  std::string in_;
};

/// Records an answer on its outcome; false (and a note) when its tag
/// matches no request still waiting.
bool record(std::vector<Outcome>& outcomes, const ss::net::Response& resp, std::int64_t t,
            const CheckFn& check, std::size_t& index) {
  if (!parse_tag(resp, outcomes.size(), index) || outcomes[index].recv_ns != 0) {
    std::cerr << "svcbench: unmatched response: " << resp.message << '\n';
    return false;
  }
  outcomes[index].recv_ns = t;
  outcomes[index].status = judge(index, resp, check);
  return true;
}

constexpr std::int64_t kDrainTimeoutNs = 3'000'000'000;

}  // namespace

std::vector<Outcome> run_open_loop(const std::string& socket_path,
                                   const std::vector<PlannedSend>& plan, const LineFn& line,
                                   const CheckFn& check, const OpenLoopOptions& options) {
  std::vector<Outcome> outcomes(plan.size());
  std::vector<ss::net::Client> clients;
  std::vector<Inbox> inboxes;
  for (std::size_t c = 0; c < options.connections; ++c) {
    clients.push_back(ss::net::Client::connect_unix_path(socket_path));
    inboxes.emplace_back(clients.back().fd());
  }
  // The plan starts shortly after the connections are up, so the first
  // due times are not already late.
  const std::int64_t start = now_ns() + 5'000'000;
  for (std::size_t i = 0; i < plan.size(); ++i) outcomes[i].due_ns = start + plan[i].due_ns;
  const std::int64_t deadline =
      (plan.empty() ? start : outcomes.back().due_ns) + kDrainTimeoutNs;

  std::size_t next = 0;  // next request to send
  std::size_t answered = 0;
  bool sending = true;   // false once a send failed: the server went away
  std::string buffer;
  const auto on_response = [&](const ss::net::Response& resp, std::int64_t t) {
    std::size_t index = 0;
    if (!record(outcomes, resp, t, check, index)) return;
    if (options.tracer != nullptr) {
      options.tracer->add(Span{"client.round_trip", outcomes[index].due_ns, t, -1, index});
    }
    ++answered;
  };
  while (answered < (sending ? plan.size() : next)) {
    const std::int64_t now = now_ns();
    if (sending && next < plan.size() && now >= outcomes[next].due_ns) {
      Outcome& o = outcomes[next];
      line(next, buffer);
      o.sent_ns = now_ns();
      try {
        clients[plan[next].conn].send_line(buffer);
        ++next;
      } catch (const std::exception& e) {
        // The unsent rest stays unsent; the sent but unanswered requests
        // time out below.
        std::cerr << "svcbench: send failed: " << e.what() << '\n';
        o.sent_ns = 0;
        sending = false;
      }
      continue;
    }
    if (now >= deadline) break;
    for (Inbox& inbox : inboxes) (void)inbox.poll(on_response);
  }
  return outcomes;
}

std::vector<Outcome> run_window(const std::string& socket_path, std::size_t window,
                                std::int64_t duration_ns, const LineFn& line,
                                const CheckFn& check) {
  std::vector<Outcome> outcomes;
  ss::net::Client client = ss::net::Client::connect_unix_path(socket_path);
  const std::int64_t deadline = now_ns() + duration_ns;
  std::string buffer;
  std::size_t answered = 0;
  const auto send_next = [&] {
    const std::size_t i = outcomes.size();
    line(i, buffer);
    Outcome& o = outcomes.emplace_back();
    o.due_ns = o.sent_ns = now_ns();
    client.send_line(buffer);
  };
  // Blocking reads: with the window full the server never waits for the
  // generator, so its wakeups cost nothing here, and a sleeping generator
  // leaves every vCPU to the server's threads.
  try {
    while (outcomes.size() < window) send_next();
    while (answered < outcomes.size()) {
      const ss::net::Response resp = client.read_response();
      const std::int64_t t = now_ns();
      std::size_t index = 0;
      if (!record(outcomes, resp, t, check, index)) continue;
      ++answered;
      if (t < deadline) send_next();
    }
  } catch (const std::exception& e) {
    // The unanswered requests stay pending: failures.
    std::cerr << "svcbench: window connection lost: " << e.what() << '\n';
  }
  return outcomes;
}

std::vector<Outcome> run_closed_loop(const std::string& socket_path, std::size_t connections,
                                     std::size_t min_requests, std::size_t max_requests,
                                     std::int64_t duration_ns, const LineFn& line,
                                     const CheckFn& check, Tracer* tracer) {
  std::vector<Outcome> outcomes(max_requests);
  std::atomic<std::size_t> next{0};
  const std::int64_t deadline = now_ns() + duration_ns;
  std::vector<Tracer> tracers(connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Outcome* pending = nullptr;  // sent, not yet answered
      try {
        ss::net::Client client = ss::net::Client::connect_unix_path(socket_path);
        std::string buffer;
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= max_requests || (i >= min_requests && now_ns() >= deadline)) return;
          line(i, buffer);
          Outcome& o = outcomes[i];
          o.due_ns = o.sent_ns = now_ns();
          pending = &o;
          const ss::net::Response resp = client.roundtrip(buffer);
          pending = nullptr;
          o.recv_ns = now_ns();
          o.status = judge(i, resp, check);
          if (tracer != nullptr) {
            tracers[c].add(Span{"client.round_trip", o.sent_ns, o.recv_ns, -1, i});
          }
        }
      } catch (const std::exception& e) {
        // Connection lost: the pending request stays unanswered, a failure.
        std::cerr << "svcbench: connection " << c << " lost: " << e.what() << '\n';
        if (pending != nullptr) pending->status = Status::kError;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (tracer != nullptr) {
    for (const Tracer& t : tracers) {
      for (const Span& s : t.spans()) tracer->add(s);
    }
  }
  return outcomes;
}

void write_outcomes(const std::string& path, const std::string& label,
                    const std::vector<Outcome>& outcomes, bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!append) out << "label\tindex\tdue_ns\tlatency_us\tlate_us\tstatus\n";
  const std::int64_t origin = outcomes.empty() ? 0 : outcomes.front().due_ns;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.sent_ns == 0) continue;
    out << label << '\t' << i << '\t' << o.due_ns - origin << '\t' << o.latency_us() << '\t'
        << o.late_us() << '\t' << static_cast<int>(o.status) << '\n';
  }
}

std::vector<double> latencies_us(const std::vector<Outcome>& outcomes, std::size_t begin,
                                 std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end; ++i) {
    const Outcome& o = outcomes[i];
    if (o.sent_ns == 0) continue;
    out.push_back(o.status == Status::kOk ? o.latency_us()
                                          : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::size_t count_failed(const std::vector<Outcome>& outcomes, std::size_t begin,
                         std::size_t end) {
  std::size_t n = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (outcomes[i].sent_ns != 0 && outcomes[i].status != Status::kOk) ++n;
  }
  return n;
}

}  // namespace svcbench
