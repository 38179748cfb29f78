// Open-loop request arrival traces for the serving front-end (ROADMAP item
// 3: the "millions of users" workload).
//
// Open-loop means arrivals do NOT wait for the server: the trace is fixed
// before the run, so an overloaded server faces an ever-growing backlog
// instead of the closed-loop coordination that hides overload (the classic
// load-testing pitfall). Every trace is virtual-time — a sorted vector of
// arrival instants in virtual seconds — and generated from a single seed
// through ds::Rng, so the same config reproduces the same trace bit for bit
// and a serving run is replayable end to end (no wall clocks anywhere).
//
// Patterns:
//   kPoisson — stationary Poisson process at rate_rps (i.i.d. exponential
//              gaps), the steady-traffic baseline.
//   kBursty  — periodic on/off modulation: rate_rps outside bursts,
//              burst_rate_rps inside [k·burst_every_s, k·burst_every_s +
//              burst_length_s) windows. The load-spike / overload trace.
//   kStep    — rate_rps before step_at_s, step_rate_rps after. The
//              autoscaler's reaction-time trace.
//
// The time-varying patterns use Lewis–Shedler thinning against the peak
// rate, so gaps never straddle a rate boundary incorrectly.
#pragma once

#include <cstdint>
#include <vector>

namespace ds::serve {

enum class ArrivalPattern { kPoisson, kBursty, kStep };

const char* arrival_pattern_name(ArrivalPattern p);

struct WorkloadConfig {
  ArrivalPattern pattern = ArrivalPattern::kPoisson;
  double rate_rps = 1000.0;  // base arrival rate, requests per virtual second
  double duration_s = 1.0;   // trace length in virtual seconds
  std::uint64_t seed = 1;

  // kBursty knobs. burst_rate_rps == 0 defaults to 4× the base rate.
  double burst_rate_rps = 0.0;
  double burst_every_s = 0.25;
  double burst_length_s = 0.05;

  // kStep knobs. step_rate_rps == 0 defaults to 4× the base rate.
  double step_rate_rps = 0.0;
  double step_at_s = 0.5;

  /// The instantaneous rate at virtual time t under this config.
  double rate_at(double t) const;
  /// The peak instantaneous rate (the thinning envelope).
  double peak_rate() const;
};

/// Generate the sorted arrival instants in [0, duration_s). Deterministic:
/// identical config ⇒ identical trace. Throws ds::Error on a non-positive
/// or non-finite rate or duration, a non-finite burst or step rate, or
/// more than 1e8 expected Poisson draws (peak rate × duration).
std::vector<double> generate_arrivals(const WorkloadConfig& config);

}  // namespace ds::serve
