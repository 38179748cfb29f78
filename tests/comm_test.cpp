#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/collectives.hpp"
#include "comm/cost_model.hpp"
#include "comm/fabric.hpp"
#include "comm/fault.hpp"
#include "comm/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ds {
namespace {

// ------------------------------ Cost model ----------------------------------

TEST(CostModel, Table2Values) {
  // The exact α/β rows of the paper's Table 2.
  const LinkModel fdr = fdr_infiniband();
  EXPECT_DOUBLE_EQ(fdr.alpha, 0.7e-6);
  EXPECT_DOUBLE_EQ(fdr.beta, 0.2e-9);
  const LinkModel qdr = qdr_infiniband();
  EXPECT_DOUBLE_EQ(qdr.alpha, 1.2e-6);
  EXPECT_DOUBLE_EQ(qdr.beta, 0.3e-9);
  const LinkModel gbe = tengbe_neteffect();
  EXPECT_DOUBLE_EQ(gbe.alpha, 7.2e-6);
  EXPECT_DOUBLE_EQ(gbe.beta, 0.9e-9);
  EXPECT_EQ(table2_networks().size(), 3u);
}

TEST(CostModel, AlphaBetaFormula) {
  const LinkModel link{"test", 1.0e-6, 2.0e-9};
  EXPECT_DOUBLE_EQ(link.transfer_seconds(0.0), 1.0e-6);
  EXPECT_DOUBLE_EQ(link.transfer_seconds(1.0e6), 1.0e-6 + 2.0e-3);
}

TEST(CostModel, LatencyDominatesSmallMessages) {
  // §5.2: "β is much smaller than α, which is the major communication
  // overhead" — for small messages latency dominates on every Table 2 net.
  for (const LinkModel& link : table2_networks()) {
    const double small = link.transfer_seconds(100.0);
    EXPECT_GT(link.alpha / small, 0.5);
  }
}

TEST(CostModel, McdramFasterThanDdr) {
  EXPECT_LT(knl_mcdram().beta, knl_ddr4().beta);
}

// -------------------------------- Ledger ------------------------------------

TEST(Ledger, AccumulatesPerPhase) {
  CostLedger ledger;
  ledger.charge(Phase::kForwardBackward, 1.0);
  ledger.charge(Phase::kForwardBackward, 2.0);
  ledger.charge(Phase::kCpuGpuParamComm, 3.0);
  EXPECT_DOUBLE_EQ(ledger.seconds(Phase::kForwardBackward), 3.0);
  EXPECT_DOUBLE_EQ(ledger.total_seconds(), 6.0);
}

TEST(Ledger, CommRatioCoversThreeCommCategories) {
  CostLedger ledger;
  ledger.charge(Phase::kGpuGpuParamComm, 1.0);
  ledger.charge(Phase::kCpuGpuDataComm, 2.0);
  ledger.charge(Phase::kCpuGpuParamComm, 3.0);
  ledger.charge(Phase::kForwardBackward, 4.0);
  EXPECT_DOUBLE_EQ(ledger.comm_seconds(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.comm_ratio(), 0.6);
}

TEST(Ledger, EmptyLedgerHasZeroRatio) {
  const CostLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.comm_ratio(), 0.0);
}

TEST(Ledger, PlusEqualsMerges) {
  CostLedger a, b;
  a.charge(Phase::kGpuUpdate, 1.0);
  b.charge(Phase::kGpuUpdate, 2.0);
  b.charge(Phase::kCpuUpdate, 5.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds(Phase::kGpuUpdate), 3.0);
  EXPECT_DOUBLE_EQ(a.seconds(Phase::kCpuUpdate), 5.0);
}

TEST(Ledger, NegativeChargeRejected) {
  CostLedger ledger;
  EXPECT_THROW(ledger.charge(Phase::kGpuUpdate, -1.0), Error);
}

TEST(Ledger, ReportContainsPercentages) {
  CostLedger ledger;
  ledger.charge(Phase::kForwardBackward, 3.0);
  ledger.charge(Phase::kCpuGpuParamComm, 1.0);
  const std::string report = ledger.report();
  EXPECT_NE(report.find("for/backward"), std::string::npos);
  EXPECT_NE(report.find("75.0%"), std::string::npos);
}

// ------------------------- Data-movement collectives -------------------------

TEST(Collectives, ReduceSumAddsAll) {
  std::vector<float> a{1, 2}, b{10, 20}, c{100, 200};
  std::vector<float> out(2);
  reduce_sum({a, b, c}, out);
  EXPECT_EQ(out, (std::vector<float>{111, 222}));
}

TEST(Collectives, BroadcastCopiesToAll) {
  std::vector<float> src{7, 8};
  std::vector<float> d1(2), d2(2);
  broadcast(src, {d1, d2});
  EXPECT_EQ(d1, src);
  EXPECT_EQ(d2, src);
}

TEST(Collectives, AllreduceMakesAllEqualToSum) {
  std::vector<float> a{1, 0}, b{2, 5}, c{3, 1};
  allreduce_sum({a, b, c});
  EXPECT_EQ(a, (std::vector<float>{6, 6}));
  EXPECT_EQ(b, a);
  EXPECT_EQ(c, a);
}

TEST(Collectives, ReduceSizeMismatchThrows) {
  std::vector<float> a{1, 2}, b{1};
  std::vector<float> out(2);
  EXPECT_THROW(reduce_sum({a, b}, out), Error);
}

// ----------------------------- Cost formulas --------------------------------

TEST(Collectives, TreeRounds) {
  EXPECT_EQ(tree_rounds(1), 0u);
  EXPECT_EQ(tree_rounds(2), 1u);
  EXPECT_EQ(tree_rounds(4), 2u);
  EXPECT_EQ(tree_rounds(5), 3u);
  EXPECT_EQ(tree_rounds(8), 3u);
  EXPECT_EQ(tree_rounds(64), 6u);
}

TEST(Collectives, LinearIsThetaP_TreeIsThetaLogP) {
  // §6.1.1: P(α+|W|β) → log P(α+|W|β).
  const LinkModel link = fdr_infiniband();
  const double bytes = 1.0e6;
  const double hop = link.transfer_seconds(bytes);
  EXPECT_NEAR(collective_seconds(CollectiveAlgo::kLinear, 16, bytes, link),
              15.0 * hop, 1e-12);
  EXPECT_NEAR(
      collective_seconds(CollectiveAlgo::kBinomialTree, 16, bytes, link),
      4.0 * hop, 1e-12);
}

TEST(Collectives, SingleRankIsFree) {
  const LinkModel link = fdr_infiniband();
  EXPECT_EQ(collective_seconds(CollectiveAlgo::kLinear, 1, 1e6, link), 0.0);
  EXPECT_EQ(collective_seconds(CollectiveAlgo::kBinomialTree, 1, 1e6, link),
            0.0);
}

TEST(Collectives, AllreduceIsTwiceCollective) {
  const LinkModel link = qdr_infiniband();
  EXPECT_DOUBLE_EQ(
      allreduce_seconds(CollectiveAlgo::kBinomialTree, 8, 1e6, link),
      2.0 * collective_seconds(CollectiveAlgo::kBinomialTree, 8, 1e6, link));
}

TEST(Collectives, PackedBeatsPerLayerByLatency) {
  // Figure 10's mechanism: same bytes, fewer α.
  const LinkModel link = tengbe_neteffect();  // highest-latency Table 2 net
  const std::vector<double> layers(20, 50.0e3);
  const double packed = model_collective_seconds(
      CollectiveAlgo::kBinomialTree, 8, layers, MessageLayout::kPacked, link);
  const double per_layer = model_collective_seconds(
      CollectiveAlgo::kBinomialTree, 8, layers, MessageLayout::kPerLayer,
      link);
  EXPECT_GT(per_layer, packed);
  EXPECT_NEAR(per_layer - packed, 19.0 * 3.0 * link.alpha, 1e-9);
}

// -------------------------------- Fabric ------------------------------------

TEST(Fabric, SendRecvDeliversPayload) {
  Fabric fabric(2, fdr_infiniband());
  std::thread sender([&] {
    fabric.send(0, 1, 5, {1.0f, 2.0f, 3.0f});
  });
  const std::vector<float> got = fabric.recv(1, 0, 5);
  sender.join();
  EXPECT_EQ(got, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(Fabric, RecvMatchesTagAndSource) {
  Fabric fabric(3, fdr_infiniband());
  fabric.send(0, 2, 1, {1.0f});
  fabric.send(1, 2, 2, {2.0f});
  // Receive in the opposite order of arrival.
  EXPECT_EQ(fabric.recv(2, 1, 2), (std::vector<float>{2.0f}));
  EXPECT_EQ(fabric.recv(2, 0, 1), (std::vector<float>{1.0f}));
}

TEST(Fabric, RecvAnyTakesFirstMatchingTag) {
  Fabric fabric(3, fdr_infiniband());
  fabric.send(1, 0, 9, {1.0f});
  fabric.send(2, 0, 9, {2.0f});
  const auto [src1, p1] = fabric.recv_any(0, 9);
  const auto [src2, p2] = fabric.recv_any(0, 9);
  EXPECT_EQ(src1, 1u);  // FCFS mailbox order
  EXPECT_EQ(p1, (std::vector<float>{1.0f}));
  EXPECT_EQ(src2, 2u);
  EXPECT_EQ(p2, (std::vector<float>{2.0f}));
}

TEST(Fabric, RecvAnyRotationServesEverySenderUnderContention) {
  // Regression for the parameter server's FCFS starvation bias: with plain
  // mailbox order a flooding low-numbered rank was always served first.
  // The rotating scan guarantees every pending sender is served within one
  // sweep of the peer set.
  Fabric fabric(4, fdr_infiniband());
  for (int i = 0; i < 8; ++i) {
    fabric.send(1, 0, 7, {static_cast<float>(i)});  // rank 1 floods
  }
  fabric.send(2, 0, 7, {100.0f});
  fabric.send(3, 0, 7, {200.0f});

  std::vector<std::size_t> first_three;
  for (int i = 0; i < 3; ++i) {
    first_three.push_back(fabric.recv_any(0, 7).first);
  }
  EXPECT_EQ(first_three, (std::vector<std::size_t>{1, 2, 3}));

  // Drained senders drop out of the rotation; rank 1's backlog still comes
  // out in per-sender FIFO order.
  for (int i = 1; i < 8; ++i) {
    const auto [src, payload] = fabric.recv_any(0, 7);
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(payload, (std::vector<float>{static_cast<float>(i)}));
  }
}

TEST(Fabric, RecvAnySkipsOtherTags) {
  Fabric fabric(3, fdr_infiniband());
  fabric.send(1, 0, 5, {5.0f});   // different tag, must be left queued
  fabric.send(2, 0, 9, {9.0f});
  const auto [src, payload] = fabric.recv_any(0, 9);
  EXPECT_EQ(src, 2u);
  EXPECT_EQ(payload, (std::vector<float>{9.0f}));
  EXPECT_EQ(fabric.recv(0, 1, 5), (std::vector<float>{5.0f}));
}

TEST(Fabric, ClockAdvancesWithTransferCost) {
  const LinkModel link{"t", 1.0e-3, 0.0};  // 1 ms latency, no bandwidth term
  Fabric fabric(2, link);
  fabric.send(0, 1, 0, {1.0f});
  EXPECT_NEAR(fabric.clock(0), 1.0e-3, 1e-12);
  fabric.recv(1, 0, 0);
  EXPECT_NEAR(fabric.clock(1), 1.0e-3, 1e-12) << "receiver syncs to arrival";
}

TEST(Fabric, RecvKeepsLaterLocalClock) {
  const LinkModel link{"t", 1.0e-3, 0.0};
  Fabric fabric(2, link);
  fabric.advance(1, 5.0);  // receiver is already past the arrival time
  fabric.send(0, 1, 0, {1.0f});
  fabric.recv(1, 0, 0);
  EXPECT_NEAR(fabric.clock(1), 5.0, 1e-12);
}

TEST(Fabric, SelfSendRejected) {
  Fabric fabric(2, fdr_infiniband());
  EXPECT_THROW(fabric.send(0, 0, 0, {1.0f}), Error);
}

TEST(Fabric, OverlappedSendChargesTheSenderAlphaOnly) {
  const LinkModel link{"t", 1.0e-3, 1.0e-6};  // 1 ms latency, 1 µs per byte
  Fabric fabric(2, link);
  fabric.advance(0, 2.0e-3);
  fabric.send_overlapped(0, 1, 0, std::vector<float>(250));  // 1000 bytes
  const double posted = fabric.clock(0);
  EXPECT_EQ(posted, 2.0e-3 + 1.0e-3) << "the sender pays α only";
  fabric.recv(1, 0, 0);
  EXPECT_EQ(fabric.clock(1), posted + 1.0e-6 * 1000.0)
      << "arrival = post time + β·bytes";
}

TEST(Fabric, EmptyTryRecvReturnsFalseAndNarratesNothing) {
  Fabric fabric(2, fdr_infiniband());
  fabric.send(0, 1, 4, {1.0f});  // queued under another tag
  obs::set_tracing_enabled(false);
  obs::reset();
  obs::set_tracing_enabled(true);
  std::vector<float> out{7.0f};
  EXPECT_FALSE(fabric.try_recv(1, 0, 3, out));
  const std::vector<obs::ThreadEvents> threads = obs::snapshot();
  obs::set_tracing_enabled(false);
  obs::reset();
  std::size_t events = 0;
  for (const obs::ThreadEvents& t : threads) events += t.events.size();
  EXPECT_EQ(events, 0u);
  EXPECT_EQ(out, (std::vector<float>{7.0f}));
  EXPECT_EQ(fabric.clock(1), 0.0);
  EXPECT_TRUE(fabric.try_recv(1, 0, 4, out));
  EXPECT_EQ(out, (std::vector<float>{1.0f}));
}

TEST(Fabric, MessageDroppedOnEveryAttemptIsLostAndCounted) {
  const FaultPlan plan = FaultPlan{}.with_drop(1.0).with_polling(1, 0.001);
  Fabric fabric(2, fdr_infiniband(), plan);
  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  fabric.send(0, 1, 0, {1.0f});
  fabric.send_overlapped(0, 1, 0, {2.0f});
  const obs::MetricsSnapshot after = obs::metrics().snapshot();
  EXPECT_EQ(after.delta(before, obs::names::kFabricMessagesLost), 2.0);
  EXPECT_EQ(after.delta(before, obs::names::kFabricDrops),
            2.0 * static_cast<double>(plan.max_send_attempts));
  std::vector<float> out;
  EXPECT_FALSE(fabric.try_recv(1, 0, 0, out));
  EXPECT_THROW(fabric.recv(1, 0, 0), RankFailure) << "the timeout backstop";
}

TEST(Fabric, BlockedRecvSeesAPeerRetireWithoutAPlan) {
  // Liveness is checked in every mode: without a fault plan a receive
  // blocked on a peer that retires must unwind, not wait forever.
  Fabric fabric(3, fdr_infiniband());
  fabric.send(1, 0, 0, {1.0f});
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fabric.retire(1);
    fabric.retire(2);
  });
  EXPECT_EQ(fabric.recv(0, 1, 0), (std::vector<float>{1.0f}))
      << "a retired peer's queued message is still delivered";
  EXPECT_THROW(fabric.recv(0, 1, 0), RankFailure);
  EXPECT_THROW(fabric.recv_any(0, 0), RankFailure);
  peer.join();
}

class FabricCollectiveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FabricCollectiveTest, TreeBroadcastReachesAllRanks) {
  const std::size_t p = GetParam();
  Fabric fabric(p, fdr_infiniband());
  std::vector<std::vector<float>> data(p);
  data[0] = {3.0f, 1.0f, 4.0f};
  parallel_for_threads(p, [&](std::size_t r) {
    if (r != 0) data[r].assign(3, 0.0f);
    fabric.tree_broadcast(r, 0, data[r]);
  });
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_EQ(data[r], (std::vector<float>{3.0f, 1.0f, 4.0f})) << "rank " << r;
  }
}

TEST_P(FabricCollectiveTest, TreeReduceSumsAtRoot) {
  const std::size_t p = GetParam();
  Fabric fabric(p, fdr_infiniband());
  std::vector<std::vector<float>> data(p);
  parallel_for_threads(p, [&](std::size_t r) {
    data[r] = {static_cast<float>(r + 1), 1.0f};
    fabric.tree_reduce(r, 0, data[r]);
  });
  const float expected = static_cast<float>(p * (p + 1) / 2);
  ASSERT_EQ(data[0].size(), 2u);
  EXPECT_EQ(data[0][0], expected);
  EXPECT_EQ(data[0][1], static_cast<float>(p));
}

TEST_P(FabricCollectiveTest, TreeAllreduceGivesEveryoneTheSum) {
  const std::size_t p = GetParam();
  Fabric fabric(p, fdr_infiniband());
  std::vector<std::vector<float>> data(p);
  parallel_for_threads(p, [&](std::size_t r) {
    data[r] = {static_cast<float>(r)};
    fabric.tree_allreduce(r, 0, data[r]);
  });
  const float expected = static_cast<float>(p * (p - 1) / 2);
  for (std::size_t r = 0; r < p; ++r) {
    ASSERT_EQ(data[r].size(), 1u);
    EXPECT_EQ(data[r][0], expected) << "rank " << r;
  }
}

TEST_P(FabricCollectiveTest, BarrierSynchronisesClocks) {
  const std::size_t p = GetParam();
  Fabric fabric(p, fdr_infiniband());
  parallel_for_threads(p, [&](std::size_t r) {
    fabric.advance(r, static_cast<double>(r));  // ranks drift apart
    fabric.barrier(r);
  });
  const double max_after = fabric.max_clock();
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_GE(fabric.clock(r), static_cast<double>(p - 1));
    EXPECT_LE(fabric.clock(r), max_after);
  }
}

TEST_P(FabricCollectiveTest, NonZeroRootBroadcast) {
  const std::size_t p = GetParam();
  if (p < 2) return;
  Fabric fabric(p, fdr_infiniband());
  const std::size_t root = p - 1;
  std::vector<std::vector<float>> data(p);
  parallel_for_threads(p, [&](std::size_t r) {
    data[r] = {r == root ? 42.0f : 0.0f};
    fabric.tree_broadcast(r, root, data[r]);
  });
  for (std::size_t r = 0; r < p; ++r) EXPECT_EQ(data[r][0], 42.0f);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FabricCollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(Fabric, TreeCriticalPathIsLogarithmic) {
  // Broadcasting over 8 ranks with a pure-latency link must finish in
  // 3 hops of critical path, not 7.
  const LinkModel link{"t", 1.0e-3, 0.0};
  Fabric fabric(8, link);
  std::vector<std::vector<float>> data(8);
  parallel_for_threads(8, [&](std::size_t r) {
    data[r] = {1.0f};
    fabric.tree_broadcast(r, 0, data[r]);
  });
  EXPECT_NEAR(fabric.max_clock(), 3.0e-3, 1e-9);
}

}  // namespace
}  // namespace ds
