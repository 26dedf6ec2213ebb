#include "exp/parallel.h"

#include <atomic>
#include <cmath>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "obs/metrics.h"

namespace sgr {
namespace {

TEST(ParallelPrimitivesTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

TEST(ParallelPrimitivesTest, DeriveSeedIsDeterministicAndSpreads) {
  EXPECT_EQ(DeriveSeed(42, 7), DeriveSeed(42, 7));
  EXPECT_NE(DeriveSeed(42, 7), DeriveSeed(42, 8));
  EXPECT_NE(DeriveSeed(42, 7), DeriveSeed(43, 7));
}

TEST(ParallelPrimitivesTest, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(kCount, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ParallelPrimitivesTest, ParallelForZeroAndInline) {
  int calls = 0;
  ParallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(5, 1, [&](std::size_t) { ++calls; });  // inline path
  EXPECT_EQ(calls, 5);
}

TEST(ParallelPrimitivesTest, ParallelForRethrowsTheLowestThrowingIndex) {
  std::atomic<int> calls{0};
  try {
    ParallelFor(100, 4, [&](std::size_t i) {
      ++calls;
      if (i == 17 || i == 60) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "no exception reached the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "17");
  }
  EXPECT_EQ(calls.load(), 100);  // the other iterations still ran
}

TEST(ThreadPoolTest, TasksReportIntoTheSubmittersMetricsSink) {
  obs::ResetMetrics();
  obs::EnableMetrics(true);
  obs::MetricsSink outer;
  obs::MetricsSink inner;
  {
    const obs::ScopedMetricsSink open(&outer);
    obs::MetricAdd("outer", 1);
    {
      const obs::ScopedMetricsSink nested(&inner);
      ThreadPool pool(3);
      PoolFor(pool, 8, [](std::size_t) { obs::MetricAdd("work", 1); });
    }
    EXPECT_EQ(obs::CurrentMetricsSink(), &outer);  // restored on exit
  }
  EXPECT_EQ(obs::CurrentMetricsSink(), nullptr);
  obs::MetricAdd("unattributed", 1);
  obs::EnableMetrics(false);

  EXPECT_EQ(outer.Counters(), (obs::MetricsSnapshot{{"outer", 1}}));
  const obs::MetricsSnapshot counters = inner.Counters();
  EXPECT_EQ(counters.at("work"), 8u);
  EXPECT_EQ(counters.at("pool.tasks"), 3u);  // one claiming task per worker
  EXPECT_EQ(counters.count("outer"), 0u);
  EXPECT_GE(inner.Maxima().at("pool.queue_peak"), 1u);
  // The process-wide registry sees everything.
  EXPECT_EQ(obs::SnapshotCounters().at("work"), 8u);
  EXPECT_EQ(obs::SnapshotCounters().at("unattributed"), 1u);
  obs::ResetMetrics();
}

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] { ++done; });
    }
    pool.Wait();
    EXPECT_EQ(done.load(), 64);
  }
}

/// Experiment fixture: small social graph, light settings so the full
/// six-method pipeline stays fast.
class ParallelRunnerTest : public ::testing::Test {
 protected:
  ParallelRunnerTest() {
    Rng rng(11);
    original_ = CsrGraph(GenerateSocialGraph(400, 3, 0.4, 0.3, rng));
    config_.query_fraction = 0.1;
    config_.restoration.rewire.rewiring_coefficient = 10.0;
    config_.property_options.max_path_sources = 40;
    config_.property_options.threads = 1;
    properties_ = ComputeProperties(original_, config_.property_options);
  }

  CsrGraph original_;
  ExperimentConfig config_;
  GraphProperties properties_;
};

void ExpectSameResults(const std::vector<MethodRunResult>& a,
                       const std::vector<MethodRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    for (std::size_t p = 0; p < kNumProperties; ++p) {
      EXPECT_DOUBLE_EQ(a[i].distances[p], b[i].distances[p])
          << "method " << i << " property " << p;
    }
    EXPECT_DOUBLE_EQ(a[i].average_distance, b[i].average_distance);
    EXPECT_EQ(a[i].restoration.graph.NumNodes(),
              b[i].restoration.graph.NumNodes());
    EXPECT_EQ(a[i].restoration.graph.NumEdges(),
              b[i].restoration.graph.NumEdges());
  }
}

TEST_F(ParallelRunnerTest, SnapshotOracleIsReproducible) {
  // A trial is exactly reproducible from its seed and produces finite
  // distances.
  const auto first =
      RunExperiment(original_, properties_, config_, /*run_seed=*/123);
  const auto second =
      RunExperiment(original_, properties_, config_, /*run_seed=*/123);
  ExpectSameResults(first, second);
  for (std::size_t i = 0; i < first.size(); ++i) {
    for (std::size_t p = 0; p < kNumProperties; ++p) {
      EXPECT_TRUE(std::isfinite(first[i].distances[p]));
    }
  }
}

TEST_F(ParallelRunnerTest, TrialsDeterministicAcrossThreadCounts) {
  constexpr std::size_t kTrials = 4;
  const auto sequential = RunExperiments(original_, properties_, config_,
                                         /*seed_base=*/900, kTrials,
                                         /*threads=*/1);
  const auto parallel = RunExperiments(original_, properties_, config_,
                                       /*seed_base=*/900, kTrials,
                                       /*threads=*/4);
  const auto oversubscribed = RunExperiments(original_, properties_,
                                             config_, /*seed_base=*/900,
                                             kTrials, /*threads=*/16);
  ASSERT_EQ(sequential.size(), kTrials);
  ASSERT_EQ(parallel.size(), kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    ExpectSameResults(sequential[t], parallel[t]);
    ExpectSameResults(sequential[t], oversubscribed[t]);
  }
}

TEST_F(ParallelRunnerTest, TrialsMatchSequentialRunExperimentCalls) {
  // RunExperiments(seed_base, i) must equal RunExperiment(seed_base + i):
  // the parallel engine adds concurrency, not a new seeding scheme.
  const auto trials = RunExperiments(original_, properties_, config_,
                                     /*seed_base=*/77, 3, /*threads=*/2);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const auto expected =
        RunExperiment(original_, properties_, config_, 77 + t);
    ExpectSameResults(expected, trials[t]);
  }
}

}  // namespace
}  // namespace sgr
