#ifndef E2EBENCH_TIMED_POLICY_H_
#define E2EBENCH_TIMED_POLICY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fairmove/sim/policy.h"

namespace e2ebench {

/// What a TimedPolicy measured around the calls into the wrapped policy.
struct PolicyTimes {
  int64_t decide_calls = 0;
  int64_t decide_rows = 0;  // vacant taxis decided for
  double decide_s = 0.0;
  int64_t learn_calls = 0;
  int64_t transitions = 0;  // transitions fed to Learn
  double learn_s = 0.0;
  int64_t begin_calls = 0;
  double begin_s = 0.0;
  /// Size of every Learn() batch fed while the policy was training, in call
  /// order (the input of the computed learner operation count).
  std::vector<int64_t> training_batches;
  /// When each DecideActions and Learn call started and ended, in call
  /// order: they cut an episode into its decisions, its learning and the
  /// simulator and trainer work between them.
  std::vector<std::chrono::steady_clock::time_point> call_bounds;
};

/// Forwarding DisplacementPolicy that times DecideActions, Learn and
/// BeginEpisode of the policy it owns with std::chrono::steady_clock and
/// forwards every other virtual untouched, so a wrapped run produces the
/// same bytes as an unwrapped one. Not thread-safe, like the policies it
/// wraps: one wrapper per simulator.
class TimedPolicy final : public fairmove::DisplacementPolicy {
 public:
  enum class Mode {
    /// Times every call and records call_bounds.
    kFull,
    /// Records only call_bounds; every other field of PolicyTimes stays 0.
    kBoundsOnly,
  };

  explicit TimedPolicy(std::unique_ptr<fairmove::DisplacementPolicy> inner,
                       Mode mode = Mode::kFull);

  const PolicyTimes& times() const { return times_; }
  fairmove::DisplacementPolicy& inner() { return *inner_; }

  std::string name() const override { return inner_->name(); }
  void BeginEpisode(const fairmove::Simulator& sim) override;
  void DecideActions(const fairmove::Simulator& sim,
                     const std::vector<fairmove::TaxiObs>& vacant,
                     std::vector<fairmove::Action>* actions) override;
  void SetTraining(bool training) override;
  void Learn(const std::vector<Transition>& transitions) override;
  bool WantsTransitions() const override {
    return inner_->WantsTransitions();
  }
  fairmove::Status Health() const override { return inner_->Health(); }
  void AppendTelemetry(fairmove::JsonObject* row) const override {
    inner_->AppendTelemetry(row);
  }
  fairmove::Status SaveState(fairmove::BinaryWriter* out) const override {
    return inner_->SaveState(out);
  }
  fairmove::Status RestoreState(fairmove::BinaryReader* in) override {
    return inner_->RestoreState(in);
  }
  const std::vector<std::vector<float>>* LastFeatures() const override {
    return inner_->LastFeatures();
  }

 private:
  std::unique_ptr<fairmove::DisplacementPolicy> inner_;
  const Mode mode_;
  bool training_ = false;
  PolicyTimes times_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TIMED_POLICY_H_
