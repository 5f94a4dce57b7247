// Self-tests of the end-to-end benchmark: the timing wrapper must be
// observational (wrapped runs reproduce unwrapped ones byte for byte), and
// the summary statistics must pick the right tail percentile.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "bench_stats.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/io/binary.h"
#include "timed_policy.h"

namespace e2ebench {
namespace {

using fairmove::FairMoveConfig;
using fairmove::FairMoveSystem;
using fairmove::PolicyKind;

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), -1.0);
  EXPECT_EQ(TailPercentile(19), -1.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(1008), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(99999), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
}

TEST(SummaryTest, MedianQuartilesAndTail) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  const Summary s = Summarize(values);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_DOUBLE_EQ(s.q1, 250.75);
  EXPECT_DOUBLE_EQ(s.q3, 750.25);
  EXPECT_EQ(s.tail_p, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.01);
  EXPECT_DOUBLE_EQ(Percentile({3.0}, 99.0), 3.0);
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(CheckFleetMetricsTest, FlagsMissingSamplesAndImpossibleCounts) {
  fairmove::FleetMetrics m;
  m.pe.Add(1.0);
  m.pe.Add(2.0);
  m.total_requests = 10;
  m.trips = 6;
  m.expired_requests = 4;
  EXPECT_EQ(CheckFleetMetrics(m, 2), "");
  EXPECT_NE(CheckFleetMetrics(m, 3), "");
  m.expired_requests = 5;
  EXPECT_NE(CheckFleetMetrics(m, 2), "");
  m.expired_requests = 4;
  m.pe.Add(std::nan(""));
  EXPECT_NE(CheckFleetMetrics(m, 3), "");
}

TEST(FastestPerPositionTest, SumsTheFastestSampleOfEachPosition) {
  FastestPerPosition fastest;
  EXPECT_EQ(fastest.Sum(), 0.0);
  EXPECT_TRUE(fastest.Add({3.0, 1.0, 2.0}));
  EXPECT_TRUE(fastest.Add({2.0, 2.0, 2.5}));
  EXPECT_FALSE(fastest.Add({0.0, 0.0}));  // another length: ignored
  EXPECT_EQ(fastest.repetitions(), 2);
  EXPECT_DOUBLE_EQ(fastest.Sum(), 2.0 + 1.0 + 2.0);
}

TEST(ListScheduleMakespanTest, LanesTakeIndicesInOrder) {
  EXPECT_EQ(ListScheduleMakespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({1.0, 2.0, 3.0}, 1), 6.0);
  // The long index first: the short ones share the other lane.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({5.0, 1.0, 1.0, 1.0}, 2), 5.0);
  // The long index last: it waits for the first lane to free up.
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({1.0, 1.0, 5.0}, 2), 6.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({0.5, 4.0, 1.0, 1.0, 2.0}, 4), 4.0);
  EXPECT_DOUBLE_EQ(ListScheduleMakespan({0.5, 4.0, 1.0, 1.0, 4.0}, 4), 4.5);
}

struct MethodRun {
  uint64_t digest = 0;
  std::string state;  // SaveState bytes after the run
};

/// One method cell the way Evaluator::RunKind composes it, with or without
/// the timing wrapper (in `mode`) around the policy.
MethodRun RunMethod(FairMoveSystem& system, PolicyKind kind, bool wrapped,
                    PolicyTimes* times,
                    TimedPolicy::Mode mode = TimedPolicy::Mode::kFull) {
  auto sim_or = fairmove::Simulator::Create(
      &system.city(), &system.demand(), system.sim().tariff(),
      system.sim().config());
  EXPECT_TRUE(sim_or.ok());
  std::unique_ptr<fairmove::Simulator> sim = std::move(*sim_or);
  std::unique_ptr<fairmove::DisplacementPolicy> policy =
      fairmove::MakePolicy(kind, *sim, 7000);
  TimedPolicy* timed = nullptr;
  if (wrapped) {
    auto w = std::make_unique<TimedPolicy>(std::move(policy), mode);
    timed = w.get();
    policy = std::move(w);
  }
  fairmove::Trainer trainer(sim.get(), system.config().trainer);
  if (policy->WantsTransitions()) trainer.Train(policy.get());
  trainer.RunEvaluationEpisode(policy.get(), system.config().eval.seed,
                               fairmove::kSlotsPerDay);
  MethodRun run;
  run.digest = FleetMetricsDigest(fairmove::ComputeFleetMetrics(*sim));
  fairmove::BinaryWriter state;
  EXPECT_TRUE(policy->SaveState(&state).ok());
  run.state = state.str();
  EXPECT_TRUE(policy->Health().ok());
  if (timed != nullptr) *times = timed->times();
  return run;
}

TEST(TimedPolicyTest, WrappedRunsAreByteIdenticalForAllSixMethods) {
  FairMoveConfig config = FairMoveConfig::FullShenzhen().Scaled(0.03);
  config.trainer.episodes = 1;
  auto system_or = FairMoveSystem::Create(config);
  ASSERT_TRUE(system_or.ok()) << system_or.status();
  FairMoveSystem& system = **system_or;
  for (PolicyKind kind : FairMoveSystem::AllMethods()) {
    SCOPED_TRACE(fairmove::PolicyKindName(kind));
    PolicyTimes times, bounds;
    const MethodRun plain = RunMethod(system, kind, false, nullptr);
    const MethodRun wrapped = RunMethod(system, kind, true, &times);
    const MethodRun bounds_only = RunMethod(system, kind, true, &bounds,
                                            TimedPolicy::Mode::kBoundsOnly);
    EXPECT_EQ(plain.digest, wrapped.digest);
    EXPECT_EQ(plain.state, wrapped.state);
    EXPECT_EQ(plain.digest, bounds_only.digest);
    EXPECT_EQ(plain.state, bounds_only.state);
    // Both modes stamp the start and end of every decide and learn call, in
    // order; only kFull also accumulates durations and counts.
    const size_t calls =
        static_cast<size_t>(times.decide_calls + times.learn_calls);
    EXPECT_EQ(times.call_bounds.size(), 2 * calls);
    EXPECT_EQ(bounds.call_bounds.size(), 2 * calls);
    EXPECT_TRUE(std::is_sorted(bounds.call_bounds.begin(),
                               bounds.call_bounds.end()));
    EXPECT_EQ(bounds.decide_calls, 0);
    EXPECT_EQ(bounds.learn_calls, 0);
    EXPECT_GT(times.decide_calls, 0);
    EXPECT_GT(times.decide_rows, 0);
    EXPECT_GE(times.begin_calls, 1);
    auto probe = fairmove::MakePolicy(kind, system.sim(), 7000);
    if (probe->WantsTransitions()) {
      EXPECT_GT(times.learn_calls, 0);
      EXPECT_GT(times.transitions, 0);
      EXPECT_FALSE(times.training_batches.empty());
    } else {
      EXPECT_EQ(times.learn_calls, 0);
    }
  }
}

TEST(TimedPolicyTest, ForwardsRestoreStateAndLastFeatures) {
  FairMoveConfig config = FairMoveConfig::FullShenzhen().Scaled(0.03);
  auto system_or = FairMoveSystem::Create(config);
  ASSERT_TRUE(system_or.ok()) << system_or.status();
  fairmove::Simulator& sim = (*system_or)->sim();
  TimedPolicy policy(fairmove::MakePolicy(PolicyKind::kFairMove, sim, 7000));
  EXPECT_EQ(policy.name(), "FairMove");
  EXPECT_TRUE(policy.WantsTransitions());
  policy.SetTraining(false);
  sim.Reset(3);
  policy.BeginEpisode(sim);
  sim.Step(&policy);
  ASSERT_NE(policy.LastFeatures(), nullptr);
  EXPECT_EQ(policy.LastFeatures(), policy.inner().LastFeatures());
  fairmove::BinaryWriter saved;
  ASSERT_TRUE(policy.SaveState(&saved).ok());
  fairmove::BinaryReader reader(saved.str());
  EXPECT_TRUE(policy.RestoreState(&reader).ok());
  fairmove::BinaryWriter again;
  ASSERT_TRUE(policy.inner().SaveState(&again).ok());
  EXPECT_EQ(saved.str(), again.str());
}

}  // namespace
}  // namespace e2ebench
