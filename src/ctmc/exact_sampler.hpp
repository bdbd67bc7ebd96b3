// ExactGeneratorSampler: textbook Gillespie over the enumerated generator
// Q (core/generator.hpp). O(2^K * K) per event and no shortcut of any
// kind, which is the point: it is the distributional oracle the tests
// hold the simulators (sim/typecount_sim.hpp, sim/swarm.hpp) against.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/generator.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "rand/rng.hpp"

namespace p2p {

class ExactGeneratorSampler {
 public:
  ExactGeneratorSampler(SwarmParams params, std::uint64_t seed)
      : params_(std::move(params)),
        state_(params_.num_pieces()),
        rng_(seed) {}

  /// Replaces the current population (time is not reset). gamma =
  /// infinity forbids peer seeds in the state.
  void set_state(const TypeCountState& state);
  const TypeCountState& state() const { return state_; }
  double now() const { return now_; }

  /// Advances by one transition; false iff none is enabled.
  bool step();
  void run_until(double t_end);
  /// Samples `sample(t, state)` every `dt` of simulated time up to t_end,
  /// observing the pre-event state (the holding time is drawn first).
  void run_sampled(double t_end, double dt,
                   const std::function<void(double, const TypeCountState&)>&
                       sample);

 private:
  /// Enumerates the transitions out of the current state into
  /// transitions_; returns their total rate.
  double enumerate();
  /// Applies one enumerated transition, drawn proportionally to its rate.
  void apply_one(double total);

  SwarmParams params_;
  TypeCountState state_;
  Rng rng_;
  double now_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace p2p
