#include "comm/fault.hpp"

#include <algorithm>

namespace ds {

bool FaultPlan::active() const {
  if (poll_recvs) return true;
  if (drop_probability > 0.0 || jitter > 0.0) return true;
  if (std::any_of(straggler.begin(), straggler.end(),
                  [](double f) { return f != 1.0; })) {
    return true;
  }
  return std::any_of(crash_at.begin(), crash_at.end(),
                     [](double t) { return t != kNeverCrashes; });
}

double FaultPlan::straggler_for(std::size_t rank) const {
  return rank < straggler.size() ? straggler[rank] : 1.0;
}

double FaultPlan::crash_time(std::size_t rank) const {
  return rank < crash_at.size() ? crash_at[rank] : kNeverCrashes;
}

FaultPlan& FaultPlan::with_drop(double probability) {
  DS_CHECK(probability >= 0.0 && probability <= 1.0,
           "drop probability out of [0,1]");
  drop_probability = probability;
  return *this;
}

FaultPlan& FaultPlan::with_jitter(double fraction) {
  DS_CHECK(fraction >= 0.0, "jitter must be non-negative");
  jitter = fraction;
  return *this;
}

FaultPlan& FaultPlan::with_straggler(std::size_t rank, double factor) {
  DS_CHECK(factor >= 1.0, "straggler factor must be >= 1");
  if (straggler.size() <= rank) straggler.resize(rank + 1, 1.0);
  straggler[rank] = factor;
  return *this;
}

FaultPlan& FaultPlan::with_crash(std::size_t rank, double virtual_time) {
  DS_CHECK(virtual_time >= 0.0, "crash time must be non-negative");
  if (crash_at.size() <= rank) crash_at.resize(rank + 1, kNeverCrashes);
  crash_at[rank] = virtual_time;
  return *this;
}

FaultPlan& FaultPlan::with_polling(std::size_t polls, double poll_seconds) {
  DS_CHECK(polls > 0, "need at least one recv poll");
  DS_CHECK(poll_seconds > 0.0, "poll interval must be positive");
  poll_recvs = true;
  max_recv_polls = polls;
  recv_poll_seconds = poll_seconds;
  return *this;
}

}  // namespace ds
