#include "comm/cost_model.hpp"

namespace ds {

LinkModel fdr_infiniband() { return {"Mellanox 56Gb/s FDR IB", 0.7e-6, 0.2e-9}; }

LinkModel qdr_infiniband() { return {"Intel 40Gb/s QDR IB", 1.2e-6, 0.3e-9}; }

LinkModel tengbe_neteffect() {
  return {"Intel 10GbE NetEffect NE020", 7.2e-6, 0.9e-9};
}

std::vector<LinkModel> table2_networks() {
  return {fdr_infiniband(), qdr_infiniband(), tengbe_neteffect()};
}

LinkModel cray_aries() {
  // Cori's Aries/Dragonfly: ~1.3 µs MPI latency, ~9 GB/s per-node injection.
  return {"Cray Aries", 1.3e-6, 1.0 / 9.0e9};
}

LinkModel knl_mcdram() {
  // §2.1: MCDRAM measured at 475 GB/s (STREAM); negligible latency at the
  // granularity this model charges (whole weight/data sweeps).
  return {"KNL MCDRAM", 0.5e-6, 1.0 / 475.0e9};
}

LinkModel knl_ddr4() {
  // §2.1: KNL DDR4 at ~90 GB/s.
  return {"KNL DDR4", 0.5e-6, 1.0 / 90.0e9};
}

}  // namespace ds
