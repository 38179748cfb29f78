// Property tests for the Fabric's binomial-tree collectives: for every
// rank count in {1, 2, 3, 5, 8, 16} (powers of two and awkward odd sizes),
// every collective must agree with a serial reference computed on the same
// payloads, for several roots, and identically with no FaultPlan, with a
// plan that is active but injects nothing (behavior-neutrality), and with
// an active payload-neutral plan (jitter only — time changes, data must
// not).
//
// Payloads are small integers stored as floats, so elementwise sums are
// exact regardless of reduction-tree association and every comparison can
// be EXPECT_EQ rather than a tolerance.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ds {
namespace {

constexpr std::size_t kRankCounts[] = {1, 2, 3, 5, 8, 16};
constexpr std::size_t kPayload = 48;

enum class PlanMode { kNoPlan, kZeroPlan, kJitterPlan };

Fabric make_fabric(std::size_t ranks, PlanMode mode) {
  const LinkModel link = fdr_infiniband();
  switch (mode) {
    case PlanMode::kNoPlan:
      return Fabric(ranks, link);
    case PlanMode::kZeroPlan:
      // Active (it polls, with the default budget) yet injecting nothing:
      // a plan-free fabric already runs FaultPlan::none().
      return Fabric(ranks, link, FaultPlan::none().with_polling(2000, 0.002));
    case PlanMode::kJitterPlan:
      return Fabric(ranks, link, FaultPlan{}.with_jitter(0.5));
  }
  return Fabric(ranks, link);
}

/// One integer-valued payload per rank, deterministic in (ranks, seed).
std::vector<std::vector<float>> make_payloads(std::size_t ranks,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(ranks, std::vector<float>(kPayload));
  for (auto& vec : data) {
    for (auto& x : vec) {
      x = static_cast<float>(static_cast<int>(rng.uniform(-8.0, 9.0)));
    }
  }
  return data;
}

std::vector<float> serial_sum(const std::vector<std::vector<float>>& data) {
  std::vector<float> sum(data.front().size(), 0.0f);
  for (const auto& vec : data) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += vec[i];
  }
  return sum;
}

std::vector<std::size_t> roots_for(std::size_t ranks) {
  if (ranks == 1) return {0};
  return {0, ranks / 2, ranks - 1};
}

class CollectiveProperty : public ::testing::TestWithParam<PlanMode> {};

TEST_P(CollectiveProperty, TreeBroadcastReplicatesRootPayload) {
  for (const std::size_t p : kRankCounts) {
    for (const std::size_t root : roots_for(p)) {
      SCOPED_TRACE(::testing::Message() << "P=" << p << " root=" << root);
      Fabric fabric = make_fabric(p, GetParam());
      const auto payloads = make_payloads(p, 7001 + p);
      auto buffers = payloads;
      parallel_for_threads(
          p, [&](std::size_t r) { fabric.tree_broadcast(r, root, buffers[r]); });
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(buffers[r], payloads[root]) << "rank " << r;
      }
    }
  }
}

TEST_P(CollectiveProperty, TreeReduceMatchesSerialReference) {
  for (const std::size_t p : kRankCounts) {
    for (const std::size_t root : roots_for(p)) {
      SCOPED_TRACE(::testing::Message() << "P=" << p << " root=" << root);
      Fabric fabric = make_fabric(p, GetParam());
      const auto payloads = make_payloads(p, 7101 + p);
      const std::vector<float> expected = serial_sum(payloads);
      auto buffers = payloads;
      parallel_for_threads(
          p, [&](std::size_t r) { fabric.tree_reduce(r, root, buffers[r]); });
      // tree_reduce only defines the ROOT buffer; the others are consumed.
      EXPECT_EQ(buffers[root], expected);
    }
  }
}

TEST_P(CollectiveProperty, TreeAllreduceMatchesSerialReferenceOnEveryRank) {
  for (const std::size_t p : kRankCounts) {
    SCOPED_TRACE(::testing::Message() << "P=" << p);
    Fabric fabric = make_fabric(p, GetParam());
    const auto payloads = make_payloads(p, 7201 + p);
    const std::vector<float> expected = serial_sum(payloads);
    auto buffers = payloads;
    parallel_for_threads(
        p, [&](std::size_t r) { fabric.tree_allreduce(r, 0, buffers[r]); });
    for (std::size_t r = 0; r < p; ++r) {
      EXPECT_EQ(buffers[r], expected) << "rank " << r;
    }
  }
}

TEST_P(CollectiveProperty, AllreduceResultInvariantToRoot) {
  // The root only shapes the reduction/broadcast tree; integer payloads
  // make the sum exact, so every root must produce the identical result.
  for (const std::size_t p : kRankCounts) {
    SCOPED_TRACE(::testing::Message() << "P=" << p);
    const auto payloads = make_payloads(p, 7301 + p);
    const std::vector<float> expected = serial_sum(payloads);
    for (const std::size_t root : roots_for(p)) {
      Fabric fabric = make_fabric(p, GetParam());
      auto buffers = payloads;
      parallel_for_threads(p, [&](std::size_t r) {
        fabric.tree_allreduce(r, root, buffers[r]);
      });
      for (std::size_t r = 0; r < p; ++r) {
        EXPECT_EQ(buffers[r], expected) << "root " << root << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlans, CollectiveProperty,
                         ::testing::Values(PlanMode::kNoPlan,
                                           PlanMode::kZeroPlan,
                                           PlanMode::kJitterPlan),
                         [](const auto& info) {
                           switch (info.param) {
                             case PlanMode::kNoPlan: return "NoPlan";
                             case PlanMode::kZeroPlan: return "ZeroPlan";
                             case PlanMode::kJitterPlan: return "JitterPlan";
                           }
                           return "Unknown";
                         });

TEST(CollectiveFaultNeutrality, ZeroPlanClocksMatchNoPlanBitwise) {
  // The zero-cost-when-disabled guarantee at fabric level: the same
  // schedule on a plan-free fabric and on an active plan that injects
  // nothing must land every rank on the bitwise-identical virtual and
  // vector clock, with the same fabric counters. The schedule covers the
  // collectives, eager and overlapped sends, wildcard and polled receives;
  // rank 0 takes every push before it replies, so its clocks do not depend
  // on the order recv_any serves them.
  constexpr int kPush = 1;
  constexpr int kReply = 2;
  const char* const counters[] = {
      obs::names::kFabricMessagesSent, obs::names::kFabricBytesSent,
      obs::names::kFabricDrops,        obs::names::kFabricRetransmits,
      obs::names::kFabricMessagesLost, obs::names::kFabricTimeouts};
  for (const std::size_t p : kRankCounts) {
    SCOPED_TRACE(::testing::Message() << "P=" << p);
    Fabric bare = make_fabric(p, PlanMode::kNoPlan);
    Fabric zero = make_fabric(p, PlanMode::kZeroPlan);
    ASSERT_TRUE(zero.faults().active());
    const auto payloads = make_payloads(p, 7401 + p);
    std::vector<std::vector<double>> deltas;
    for (Fabric* fabric : {&bare, &zero}) {
      auto buffers = payloads;
      const obs::MetricsSnapshot before = obs::metrics().snapshot();
      parallel_for_threads(p, [&](std::size_t r) {
        fabric->advance(r, 1.5e-3 * static_cast<double>(r + 1));
        fabric->tree_allreduce(r, 0, buffers[r]);
        fabric->barrier(r);
        if (r == 0) {
          std::vector<std::vector<float>> pushes(p);
          for (std::size_t i = 1; i < p; ++i) {
            auto [src, payload] = fabric->recv_any(0, kPush);
            pushes[src] = std::move(payload);
          }
          for (std::size_t w = 1; w < p; ++w) {
            fabric->send_overlapped(0, w, kReply, std::move(pushes[w]));
          }
        } else {
          fabric->send_overlapped(r, 0, kPush, buffers[r]);
          std::vector<float> reply;
          while (!fabric->try_recv(r, 0, kReply, reply)) {
            std::this_thread::yield();
          }
          EXPECT_EQ(reply, buffers[r]);
        }
      });
      const obs::MetricsSnapshot after = obs::metrics().snapshot();
      deltas.emplace_back();
      for (const char* name : counters) {
        deltas.back().push_back(after.delta(before, name));
      }
    }
    for (std::size_t r = 0; r < p; ++r) {
      EXPECT_EQ(bare.clock(r), zero.clock(r)) << "rank " << r;
      EXPECT_EQ(bare.vclock(r), zero.vclock(r)) << "rank " << r;
    }
    EXPECT_EQ(bare.max_clock(), zero.max_clock());
    EXPECT_EQ(deltas[0], deltas[1]);
    if (p > 1) {
      EXPECT_GT(deltas[0][0], 0.0);
    }
  }
}

TEST(CollectiveFaultNeutrality, JitterPlanOnlyStretchesTime) {
  // An active plan with jitter alone must keep payloads exact (checked by
  // the parameterized suite) while making the run strictly slower.
  const std::size_t p = 8;
  Fabric clean = make_fabric(p, PlanMode::kZeroPlan);
  Fabric jittery = make_fabric(p, PlanMode::kJitterPlan);
  const auto payloads = make_payloads(p, 7501);
  for (Fabric* fabric : {&clean, &jittery}) {
    auto buffers = payloads;
    parallel_for_threads(
        p, [&](std::size_t r) { fabric->tree_allreduce(r, 0, buffers[r]); });
  }
  EXPECT_GT(jittery.max_clock(), clean.max_clock());
}

}  // namespace
}  // namespace ds
