#include "ctmc/exact_sampler.hpp"

namespace p2p {

void ExactGeneratorSampler::set_state(const TypeCountState& state) {
  P2P_ASSERT(state.num_pieces() == params_.num_pieces());
  if (params_.immediate_departure()) {
    P2P_ASSERT_MSG(state.seeds() == 0,
                   "gamma = infinity forbids peer seeds in the state");
  }
  state_ = state;
}

double ExactGeneratorSampler::enumerate() {
  transitions_.clear();
  double total = 0;
  for_each_transition(params_, state_, [&](const Transition& t) {
    transitions_.push_back(t);
    total += t.rate;
  });
  return total;
}

void ExactGeneratorSampler::apply_one(double total) {
  double u = rng_.uniform() * total;
  for (const Transition& t : transitions_) {
    if (u < t.rate) {
      apply_transition(t, state_);
      return;
    }
    u -= t.rate;
  }
  apply_transition(transitions_.back(), state_);  // rounding residue
}

bool ExactGeneratorSampler::step() {
  const double total = enumerate();
  if (total <= 0) return false;
  now_ += rng_.exponential(total);
  apply_one(total);
  return true;
}

void ExactGeneratorSampler::run_until(double t_end) {
  while (now_ < t_end) {
    if (!step()) break;
  }
}

void ExactGeneratorSampler::run_sampled(
    double t_end, double dt,
    const std::function<void(double, const TypeCountState&)>& sample) {
  double next_sample = now_ + dt;
  while (now_ < t_end) {
    const double total = enumerate();
    if (total <= 0) break;
    const double event_time = now_ + rng_.exponential(total);
    while (next_sample <= t_end && next_sample < event_time) {
      sample(next_sample, state_);
      next_sample += dt;
    }
    now_ = event_time;
    apply_one(total);
  }
  while (next_sample <= t_end) {
    sample(next_sample, state_);
    next_sample += dt;
  }
}

}  // namespace p2p
