#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sgr {
namespace {

/// The registry is process-global; every test starts from a clean,
/// enabled registry and leaves it disabled and empty.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetMetrics();
    obs::EnableMetrics(true);
  }
  void TearDown() override {
    obs::EnableMetrics(false);
    obs::ResetMetrics();
  }
};

TEST_F(ObsMetricsTest, CountersAccumulate) {
  obs::MetricAdd("a", 3);
  obs::MetricAdd("a", 4);
  obs::MetricAdd("b", 1);
  const obs::MetricsSnapshot counters = obs::SnapshotCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.at("a"), 7u);
  EXPECT_EQ(counters.at("b"), 1u);
}

TEST_F(ObsMetricsTest, DisabledCallsAreNoOps) {
  obs::EnableMetrics(false);
  EXPECT_FALSE(obs::MetricsEnabled());
  obs::MetricAdd("a", 5);
  obs::MetricMax("g", 5);
  EXPECT_TRUE(obs::SnapshotCounters().empty());
  EXPECT_TRUE(obs::SnapshotMaxMetrics().empty());
}

TEST_F(ObsMetricsTest, MaxKeepsTheHighWaterMark) {
  obs::MetricMax("depth", 3);
  obs::MetricMax("depth", 9);
  obs::MetricMax("depth", 5);
  EXPECT_EQ(obs::SnapshotMaxMetrics().at("depth"), 9u);
}

TEST_F(ObsMetricsTest, SinkSeesOnlyItsOwnThreadsUpdates) {
  obs::MetricsSink sink;
  std::thread other;
  {
    const obs::ScopedMetricsSink open(&sink);
    obs::MetricAdd("mine", 2);
    obs::MetricMax("gauge", 7);
    // Another thread has no sink open, so its updates reach only the
    // process-wide registry.
    other = std::thread([] { obs::MetricAdd("theirs", 5); });
    other.join();
  }
  obs::MetricAdd("mine", 3);  // after the scope closed
  EXPECT_EQ(sink.Counters(), (obs::MetricsSnapshot{{"mine", 2}}));
  EXPECT_EQ(sink.Maxima(), (obs::MetricsSnapshot{{"gauge", 7}}));
  EXPECT_EQ(obs::SnapshotCounters().at("mine"), 5u);
  EXPECT_EQ(obs::SnapshotCounters().at("theirs"), 5u);
}

TEST_F(ObsMetricsTest, ConcurrentAddsSumExactly) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAddsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kAddsPerThread; ++i) {
        obs::MetricAdd("shared", 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(obs::SnapshotCounters().at("shared"), kThreads * kAddsPerThread);
}

TEST_F(ObsMetricsTest, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(obs::PeakRssBytes(), 0u);
#else
  EXPECT_EQ(obs::PeakRssBytes(), 0u);
#endif
}

}  // namespace
}  // namespace sgr
