// Tests of the benchmark's measurement rules (src/measure.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "measure.hpp"

namespace svcbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = percentile(one_to(9), 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 5.0);
  EXPECT_EQ(p50.beyond, 4u);
}

TEST(Percentile, RuleNeedsTenSamplesBeyond) {
  // p99 needs 1000 samples, p95 200: one fewer leaves 9 beyond.
  EXPECT_LT(percentile(one_to(999), 0.99).beyond, kMinBeyond);
  EXPECT_GE(percentile(one_to(1000), 0.99).beyond, kMinBeyond);
  EXPECT_LT(percentile(one_to(199), 0.95).beyond, kMinBeyond);
  EXPECT_GE(percentile(one_to(200), 0.95).beyond, kMinBeyond);
}

TEST(Percentile, UnsortedInputAndEmpty) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 0.5).value, 3.0);
  EXPECT_EQ(percentile({}, 0.99).samples, 0u);
  EXPECT_DOUBLE_EQ(percentile({7}, 0.99).value, 7.0);
}

TEST(Percentile, ChunkedTakesTheMedianOverChunks) {
  // Three chunks of 100: two calm (p95 = 95), one with a burst of slow
  // samples (p95 = 1000); the trailing 50 samples join the last chunk.
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 100; ++i) v.push_back(c == 1 && i > 80 ? 1000.0 : i);
  }
  for (int i = 0; i < 50; ++i) v.push_back(1.0);
  const Percentile p = chunked_percentile(v, 0.95, 100);
  EXPECT_EQ(p.samples, 350u);
  EXPECT_DOUBLE_EQ(p.value, 95.0);
  EXPECT_EQ(p.beyond, 5u);
  EXPECT_DOUBLE_EQ(percentile(v, 0.95).value, 1000.0);
  // Fewer samples than one chunk: the plain percentile.
  EXPECT_DOUBLE_EQ(chunked_percentile(one_to(40), 0.5, 100).value, 20.0);
  // An even number of chunks averages the middle two.
  std::vector<double> two = one_to(100);
  for (int i = 0; i < 100; ++i) two.push_back(2.0 * (i + 1));
  EXPECT_DOUBLE_EQ(chunked_percentile(two, 0.5, 100).value, (50.0 + 100.0) / 2);
}

TEST(SelfTime, SubtractsChildrenCountingOverlapOnce) {
  // root [0,100) with children [10,30) and [20,50) (overlap 20..30) and a
  // grandchild [12,18) that only reduces its own parent.
  std::vector<Span> spans = {
      {"replay.submit", 0, 100, -1, 1},
      {"net.parse_request", 10, 30, 0, 1},
      {"daemon.admit_hit", 20, 50, 0, 1},
      {"core.schedule_fingerprint", 12, 18, 1, 1},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  std::vector<Span> spans = {
      {"server.format_response", 100, 200, -1, 7},
      {"core.schedule_fingerprint", 150, 260, 0, 7},
  };
  EXPECT_EQ(self_times_ns(spans)[0], 50);
  EXPECT_EQ(layer_of("core.schedule_fingerprint"), "core");
  EXPECT_EQ(layer_of("plain"), "plain");
}

TEST(StageSum, ResidualIsRoundTripMinusStages) {
  EXPECT_DOUBLE_EQ(stage_residual(400.0, {6.0, 215.0, 12.0, 77.0, 9.0}), 81.0);
  EXPECT_DOUBLE_EQ(stage_residual(10.0, {}), 10.0);
  // Overcounting stages show as a negative residual, never clamped.
  EXPECT_DOUBLE_EQ(stage_residual(100.0, {80.0, 40.0}), -20.0);
}

TEST(SustainedRate, RatesOfWholeIntervals) {
  // 10 completions in [0, 1) s, 20 in [1, 2) s, 30 in [2, 3) s; the last
  // completion at 3 s closes the third interval and starts no fourth.
  std::vector<std::int64_t> t;
  for (int k = 0; k < 10; ++k) t.push_back(k * 100'000'000LL);
  for (int k = 0; k < 20; ++k) t.push_back(1'000'000'000LL + k * 50'000'000LL);
  for (int k = 0; k < 30; ++k) t.push_back(2'000'000'000LL + k * 33'000'000LL);
  t.push_back(3'000'000'000LL);
  EXPECT_EQ(interval_rates({t}, 1'000'000'000LL), (std::vector<double>{10, 20, 30}));
  // Unsorted input and a shorter interval: rates stay per second.
  std::reverse(t.begin(), t.end());
  EXPECT_EQ(interval_rates({t}, 500'000'000LL), (std::vector<double>{10, 10, 20, 20, 32, 28}));
}

TEST(SustainedRate, StallEmptiesOneIntervalNotThePercentile) {
  // 100/s for 5 s with nothing completing in the third second.
  std::vector<std::int64_t> t;
  for (int k = 0; k <= 500; ++k) {
    const std::int64_t at = k * 10'000'000LL;
    if (at < 2'000'000'000LL || at >= 3'000'000'000LL) t.push_back(at);
  }
  const std::vector<double> rates = interval_rates({t}, 1'000'000'000LL);
  EXPECT_EQ(rates, (std::vector<double>{100, 100, 0, 100, 100}));
  EXPECT_DOUBLE_EQ(percentile(rates, 0.75).value, 100.0);
  EXPECT_DOUBLE_EQ(percentile(rates, 0.5).value, 100.0);
}

TEST(SustainedRate, LessThanOneIntervalGivesNone) {
  EXPECT_TRUE(interval_rates({}, 1'000'000'000LL).empty());
  EXPECT_TRUE(interval_rates({{}}, 1'000'000'000LL).empty());
  EXPECT_TRUE(interval_rates({{5, 900'000'000LL}}, 1'000'000'000LL).empty());
  EXPECT_TRUE(interval_rates({{0, 5, 2'000'000'000LL}}, 0).empty());
}

TEST(SustainedRate, PoolsTheIntervalsOfEveryPhase) {
  // Phase A: 3 whole seconds at 10/s; phase B, an hour later: 2 whole
  // seconds at 40/s. The gap between phases is no interval of its own.
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  for (int k = 0; k <= 30; ++k) a.push_back(k * 100'000'000LL);
  for (int k = 0; k <= 80; ++k) b.push_back(3'600'000'000'000LL + k * 25'000'000LL);
  EXPECT_EQ(interval_rates({a, b}, 1'000'000'000LL), (std::vector<double>{10, 10, 10, 40, 40}));
}

}  // namespace
}  // namespace svcbench
