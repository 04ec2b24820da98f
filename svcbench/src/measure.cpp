#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace svcbench {

namespace {

/// 1-based nearest rank of quantile q among n samples. The epsilon keeps
/// q*n that is integral in exact arithmetic (0.99 * 1000) from rounding
/// up a rank through binary representation error.
std::size_t nearest_rank(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const std::size_t rank = nearest_rank(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

Percentile chunked_percentile(const std::vector<double>& samples, double q,
                              std::size_t chunk) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty() || chunk == 0) return out;
  const std::size_t chunks = std::max<std::size_t>(1, samples.size() / chunk);
  std::vector<double> values;
  out.beyond = samples.size();
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto end = c + 1 == chunks ? samples.end() : begin + static_cast<std::ptrdiff_t>(chunk);
    const Percentile p = percentile(std::vector<double>(begin, end), q);
    values.push_back(p.value);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.value = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  return out;
}

std::vector<double> interval_rates(
    const std::vector<std::vector<std::int64_t>>& phase_completions_ns, std::int64_t interval_ns) {
  std::vector<double> rates;
  if (interval_ns <= 0) return rates;
  const double per_second = 1e9 / static_cast<double>(interval_ns);
  for (std::vector<std::int64_t> t : phase_completions_ns) {
    if (t.empty()) continue;
    std::sort(t.begin(), t.end());
    const auto whole = static_cast<std::size_t>((t.back() - t.front()) / interval_ns);
    const std::size_t first = rates.size();
    rates.resize(first + whole, 0.0);
    for (const std::int64_t at : t) {
      const auto k = static_cast<std::size_t>((at - t.front()) / interval_ns);
      if (k < whole) rates[first + k] += per_second;
    }
  }
  return rates;
}

double stage_residual(double round_trip, const std::vector<double>& stages) {
  double sum = 0.0;
  for (double s : stages) sum += s;
  return round_trip - sum;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace svcbench
