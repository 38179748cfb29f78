// Ablation — gradient compression on the wire (§3.4's deferred future
// work, implemented here): Sync SGD with fp32, int8, and error-feedback
// 1-bit gradients on identical data/model/hardware.
#include <cstdio>
#include <vector>

#include "core/sync_algorithms.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  const auto args = ds::bench::BenchArgs::parse(argc, argv);
  ds::bench::print_header(
      "Ablation: gradient compression on the wire (Sync SGD, LeNet)");

  std::vector<ds::RunResult> runs;
  for (const ds::GradCompression c :
       {ds::GradCompression::kNone, ds::GradCompression::kInt8,
        ds::GradCompression::kOneBit}) {
    ds::bench::MnistLenetSetup setup;
    setup.ctx.config.compression = c;
    setup.ctx.config.iterations = 250;
    args.apply(setup.ctx.config);
    runs.push_back(run_sync_sgd(setup.ctx, setup.hw));
  }

  for (const ds::RunResult& r : runs) {
    std::printf("\n");
    ds::bench::print_trace(r);
  }

  std::printf("\n%-26s %10s %14s %14s %10s\n", "codec", "final acc",
              "comm (virt s)", "total (virt s)", "comm cut");
  const double base_comm =
      runs[0].ledger.seconds(ds::Phase::kGpuGpuParamComm);
  for (const ds::RunResult& r : runs) {
    const double comm = r.ledger.seconds(ds::Phase::kGpuGpuParamComm);
    std::printf("%-26s %10.3f %14.3f %14.3f %9.1fx\n", r.method.c_str(),
                r.final_accuracy, comm, r.total_seconds, base_comm / comm);
  }
  std::printf(
      "\nExpected shape: int8 and 1-bit match fp32 accuracy within noise "
      "(error feedback\nabsorbs the 1-bit loss) while cutting wire time; "
      "with LeNet's small weights the\nlatency floor bounds the total-time "
      "win — exactly why §5.2 packs messages first.\n");

  ds::bench::Reporter reporter("ablation_quantization");
  args.describe(reporter);
  return ds::bench::report_runs(args, reporter, runs);
}
