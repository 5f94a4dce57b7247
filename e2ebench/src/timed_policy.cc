#include "timed_policy.h"

#include <chrono>

#include "fairmove/common/macros.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

TimedPolicy::TimedPolicy(std::unique_ptr<fairmove::DisplacementPolicy> inner,
                         Mode mode)
    : inner_(std::move(inner)), mode_(mode) {
  FM_CHECK(inner_ != nullptr);
}

void TimedPolicy::BeginEpisode(const fairmove::Simulator& sim) {
  if (mode_ == Mode::kBoundsOnly) {
    inner_->BeginEpisode(sim);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->BeginEpisode(sim);
  times_.begin_s += SecondsSince(start);
  ++times_.begin_calls;
}

void TimedPolicy::DecideActions(const fairmove::Simulator& sim,
                                const std::vector<fairmove::TaxiObs>& vacant,
                                std::vector<fairmove::Action>* actions) {
  const Clock::time_point start = Clock::now();
  inner_->DecideActions(sim, vacant, actions);
  const Clock::time_point end = Clock::now();
  times_.call_bounds.push_back(start);
  times_.call_bounds.push_back(end);
  if (mode_ == Mode::kBoundsOnly) return;
  times_.decide_s += std::chrono::duration<double>(end - start).count();
  ++times_.decide_calls;
  times_.decide_rows += static_cast<int64_t>(vacant.size());
}

void TimedPolicy::SetTraining(bool training) {
  training_ = training;
  inner_->SetTraining(training);
}

void TimedPolicy::Learn(const std::vector<Transition>& transitions) {
  const Clock::time_point start = Clock::now();
  inner_->Learn(transitions);
  const Clock::time_point end = Clock::now();
  times_.call_bounds.push_back(start);
  times_.call_bounds.push_back(end);
  if (mode_ == Mode::kBoundsOnly) return;
  times_.learn_s += std::chrono::duration<double>(end - start).count();
  ++times_.learn_calls;
  times_.transitions += static_cast<int64_t>(transitions.size());
  if (training_) {
    times_.training_batches.push_back(
        static_cast<int64_t>(transitions.size()));
  }
}

}  // namespace e2ebench
