#include "serve/workload.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace ds::serve {

namespace {

// Most Poisson draws (peak rate × duration) a trace may expect.
constexpr double kMaxExpectedArrivals = 1e8;

}  // namespace

const char* arrival_pattern_name(ArrivalPattern p) {
  switch (p) {
    case ArrivalPattern::kPoisson:
      return "poisson";
    case ArrivalPattern::kBursty:
      return "bursty";
    case ArrivalPattern::kStep:
      return "step";
  }
  return "?";
}

double WorkloadConfig::rate_at(double t) const {
  switch (pattern) {
    case ArrivalPattern::kPoisson:
      return rate_rps;
    case ArrivalPattern::kBursty: {
      const double burst = burst_rate_rps > 0.0 ? burst_rate_rps : 4.0 * rate_rps;
      const double phase = std::fmod(t, burst_every_s);
      return phase < burst_length_s ? burst : rate_rps;
    }
    case ArrivalPattern::kStep: {
      const double after = step_rate_rps > 0.0 ? step_rate_rps : 4.0 * rate_rps;
      return t < step_at_s ? rate_rps : after;
    }
  }
  return rate_rps;
}

double WorkloadConfig::peak_rate() const {
  switch (pattern) {
    case ArrivalPattern::kPoisson:
      return rate_rps;
    case ArrivalPattern::kBursty: {
      const double burst = burst_rate_rps > 0.0 ? burst_rate_rps : 4.0 * rate_rps;
      return burst > rate_rps ? burst : rate_rps;
    }
    case ArrivalPattern::kStep: {
      const double after = step_rate_rps > 0.0 ? step_rate_rps : 4.0 * rate_rps;
      return after > rate_rps ? after : rate_rps;
    }
  }
  return rate_rps;
}

std::vector<double> generate_arrivals(const WorkloadConfig& config) {
  DS_CHECK(config.rate_rps > 0.0 && std::isfinite(config.rate_rps),
           "workload rate must be positive and finite, got "
               << config.rate_rps);
  DS_CHECK(config.duration_s > 0.0 && std::isfinite(config.duration_s),
           "workload duration must be positive and finite, got "
               << config.duration_s);
  // An infinite peak rate draws zero gaps, so t would never advance.
  DS_CHECK(std::isfinite(config.burst_rate_rps),
           "burst rate must be finite, got " << config.burst_rate_rps);
  DS_CHECK(std::isfinite(config.step_rate_rps),
           "step rate must be finite, got " << config.step_rate_rps);
  if (config.pattern == ArrivalPattern::kBursty) {
    DS_CHECK(config.burst_every_s > 0.0 &&
                 config.burst_length_s <= config.burst_every_s,
             "burst window must fit inside the burst period");
  }

  // Lewis–Shedler thinning: draw a homogeneous Poisson process at the peak
  // rate, keep each point with probability rate(t)/peak. Exact for any
  // piecewise rate function, and one Rng stream keeps it deterministic.
  Rng rng(config.seed);
  const double peak = config.peak_rate();
  // Bounds the reserve below and the cast to size_t in it.
  DS_CHECK(peak * config.duration_s <= kMaxExpectedArrivals,
           "workload expects " << peak * config.duration_s
                               << " draws, more than "
                               << kMaxExpectedArrivals);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(peak * config.duration_s) + 16);
  double t = 0.0;
  for (;;) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();  // log(0) guard
    t += -std::log(u) / peak;
    if (t >= config.duration_s) break;
    if (rng.uniform() * peak <= config.rate_at(t)) arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace ds::serve
