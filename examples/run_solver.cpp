// The paper-artifact workflow (§10.5): experiments driven by a
// solver.prototxt-style text file.
//
//   ./run_solver [solver-file]
//
// Without an argument, an embedded default config (Hogwild EASGD on the
// MNIST stand-in) is used. Sample configs live in examples/solvers/. A bad
// config prints its error to stderr and exits with status 1.
#include <cstdio>

#include "core/solver_config.hpp"
#include "support/error.hpp"

namespace {

constexpr const char* kDefaultSolver = R"(
# Hogwild EASGD (the paper's lock-free contribution) on 4 simulated GPUs.
method: hogwild_easgd
net: lenet_s
dataset: mnist_like
workers: 4
max_iter: 600
batch_size: 32
base_lr: 0.08
rho: 2.8125          # moving-rate rule: eta*rho = 0.9/P
momentum: 0.9
test_interval: 50
test_iter: 256
seed: 1
)";

int run(int argc, char** argv) {
  ds::SolverSpec spec;
  if (argc > 1) {
    std::printf("loading solver: %s\n", argv[1]);
    spec = ds::load_solver_file(argv[1]);
  } else {
    std::printf("using the embedded default solver config\n");
    spec = ds::parse_solver(kDefaultSolver);
  }

  std::printf("method=%s net=%s dataset=%s workers=%zu max_iter=%zu\n\n",
              spec.method.c_str(), spec.net.c_str(), spec.dataset.c_str(),
              spec.train.workers, spec.train.iterations);

  const ds::RunResult r = ds::run_solver(spec);
  std::printf("%9s %10s %9s %9s\n", "iteration", "vtime(s)", "loss", "acc");
  for (const ds::TracePoint& p : r.trace) {
    std::printf("%9zu %10.3f %9.4f %9.3f\n", p.iteration, p.vtime, p.loss,
                p.accuracy);
  }
  std::printf("\nbreakdown:\n%s\n", r.ledger.report().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ds::Error& e) {
    std::fprintf(stderr, "run_solver: %s\n", e.what());
    return 1;
  }
}
