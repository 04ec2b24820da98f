// Pure measurement rules of the service benchmark: percentiles with the
// samples-beyond count, the interval rule behind `sustained_rate`,
// the stage-sum residual, and span self time. Kept free of sockets and
// threads so the benchmark's own tests pin them exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace svcbench {

// ------------------------------------------------------------ percentiles --

/// Nearest-rank percentile of a sample set plus how many samples lie
/// strictly after it in sorted order. A percentile is only reported when
/// `beyond >= kMinBeyond`; fewer means the run was too short to say
/// anything about that tail.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline constexpr std::size_t kMinBeyond = 10;

/// `q` in (0, 1]. Empty input gives a zero Percentile.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

/// `q` percentile of each run of `chunk` consecutive samples (a trailing
/// partial chunk joins the one before it), then the median over chunks:
/// a burst of slow samples moves one chunk's percentile, not the result.
/// `beyond` is the smallest count beyond the percentile in any chunk.
[[nodiscard]] Percentile chunked_percentile(const std::vector<double>& samples, double q,
                                            std::size_t chunk);

// --------------------------------------------------------- sustained rate --

/// Completions per second in each whole interval of `interval_ns`,
/// counted from each phase's first completion; the time between phases is
/// no interval. The sustained rate is a percentile of these: a host stall
/// empties one interval instead of lowering an average over the phase.
[[nodiscard]] std::vector<double> interval_rates(
    const std::vector<std::vector<std::int64_t>>& phase_completions_ns, std::int64_t interval_ns);

// ---------------------------------------------------------------- stages --

/// Round-trip time the listed stages do not account for (queue waits,
/// wakeups, syscalls the stages miss). Negative when the stages overlap
/// or overcount; reported as is, never clamped.
[[nodiscard]] double stage_residual(double round_trip, const std::vector<double>& stages);

// ----------------------------------------------------------------- spans --

/// One timed call. `parent` indexes the same span vector (-1 = root);
/// spans of one request share `request`. `name` is a string literal
/// "<layer>.<stage>".
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Per span: its duration minus the part of its interval covered by its
/// direct children (overlapping children counted once, children clipped
/// to the parent's interval).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// The layer of a span name: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

}  // namespace svcbench
