// α-β communication cost model (paper §5.2): sending an n-byte message over
// a link costs α + β·n seconds, where α is latency and β the reciprocal
// bandwidth. Table 2 of the paper gives α/β for three InfiniBand fabrics;
// the PCIe and on-chip profiles below extend the same model to the other
// links the experiments cross.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ds {

/// One link: time(n bytes) = alpha + beta * n.
struct LinkModel {
  std::string name;
  double alpha = 0.0;  // seconds
  double beta = 0.0;   // seconds per byte

  double transfer_seconds(double bytes) const { return alpha + beta * bytes; }
};

// ---------------------------------------------------------------------------
// Paper Table 2 — InfiniBand networks.
// ---------------------------------------------------------------------------

/// Mellanox 56 Gb/s FDR InfiniBand: α = 0.7 µs, β = 0.2 ns/byte.
LinkModel fdr_infiniband();

/// Intel 40 Gb/s QDR InfiniBand: α = 1.2 µs, β = 0.3 ns/byte.
LinkModel qdr_infiniband();

/// Intel 10 GbE NetEffect NE020: α = 7.2 µs, β = 0.9 ns/byte.
LinkModel tengbe_neteffect();

/// All three Table 2 rows, FDR first.
std::vector<LinkModel> table2_networks();

// ---------------------------------------------------------------------------
// Cluster and KNL links used by the weak-scaling and node models.
// ---------------------------------------------------------------------------

/// Cray Aries (Cori) inter-node link for the weak-scaling model.
LinkModel cray_aries();

/// KNL on-package MCDRAM streams (§2.1: 475 GB/s measured) and DDR4.
LinkModel knl_mcdram();
LinkModel knl_ddr4();

}  // namespace ds
