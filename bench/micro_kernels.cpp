// Compute-kernel microbenchmarks (google-benchmark): GEMM across the shapes
// the model zoo actually produces, im2col/col2im, per-layer forward/backward,
// the EASGD update rules, and whole-network steps. These are the knobs of
// the virtual-time calibration — gemm throughput here is what bounds the
// wall-clock cost of every experiment binary.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "core/easgd_rules.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "support/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace {

void fill(std::vector<float>& v, ds::Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
}

void set_gflops(benchmark::State& state, double flops_per_iter) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

// ----------------------------------- GEMM -----------------------------------

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  fill(a, rng);
  fill(b, rng);
  for (auto _ : state) {
    ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, n, n, n, 1.0f, a.data(),
             b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, ds::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNNThreaded(benchmark::State& state) {
  // The opt-in deterministic threaded path (bitwise identical to serial).
  const std::size_t n = 256;
  ds::kernel_config().gemm_threads = static_cast<std::size_t>(state.range(0));
  ds::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  fill(a, rng);
  fill(b, rng);
  for (auto _ : state) {
    ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, n, n, n, 1.0f, a.data(),
             b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  ds::kernel_config().gemm_threads = 1;
  set_gflops(state, ds::gemm_flops(n, n, n));
}
// Real time, not CPU time: the benchmark's CPU time counts only the calling
// thread, one of the pool's lanes, so a CPU-time rate would be inflated.
BENCHMARK(BM_GemmNNThreaded)->Arg(2)->Arg(4)->UseRealTime();

void BM_GemmConvShape(benchmark::State& state) {
  // The LeNet conv2 shape: [12 x 150] · [150 x 64] per image.
  ds::Rng rng(1);
  std::vector<float> a(12 * 150), b(150 * 64), c(12 * 64);
  fill(a, rng);
  fill(b, rng);
  for (auto _ : state) {
    ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, 12, 64, 150, 1.0f,
             a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, ds::gemm_flops(12, 64, 150));
}
BENCHMARK(BM_GemmConvShape);

void BM_GemmConvShapeBatched(benchmark::State& state) {
  // The same conv2 layer lowered batch-at-once: [12 x 150] · [150 x 32·64].
  const std::size_t batch = 32;
  ds::Rng rng(1);
  std::vector<float> a(12 * 150), b(150 * batch * 64), c(12 * batch * 64);
  fill(a, rng);
  fill(b, rng);
  for (auto _ : state) {
    ds::gemm(ds::Transpose::kNo, ds::Transpose::kNo, 12, batch * 64, 150,
             1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, ds::gemm_flops(12, batch * 64, 150));
}
BENCHMARK(BM_GemmConvShapeBatched);

void BM_GemmTransposed(benchmark::State& state) {
  // The backward dW shape: A^T path.
  const std::size_t m = 64, n = 192, k = 32;
  ds::Rng rng(1);
  std::vector<float> a(k * m), b(k * n), c(m * n);
  fill(a, rng);
  fill(b, rng);
  for (auto _ : state) {
    ds::gemm(ds::Transpose::kYes, ds::Transpose::kNo, m, n, k, 1.0f, a.data(),
             b.data(), 1.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, ds::gemm_flops(m, n, k));
}
BENCHMARK(BM_GemmTransposed);

// ---------------------------------- im2col ----------------------------------

void BM_Im2col(benchmark::State& state) {
  const ds::ConvGeom g{3, 32, 32, 3, 1, 1};
  ds::Rng rng(1);
  std::vector<float> img(g.channels * g.height * g.width);
  std::vector<float> col(g.col_rows() * g.col_cols());
  fill(img, rng);
  for (auto _ : state) {
    ds::im2col(g, img.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_Col2im(benchmark::State& state) {
  const ds::ConvGeom g{3, 32, 32, 3, 1, 1};
  ds::Rng rng(1);
  std::vector<float> img(g.channels * g.height * g.width, 0.0f);
  std::vector<float> col(g.col_rows() * g.col_cols());
  fill(col, rng);
  for (auto _ : state) {
    ds::col2im(g, col.data(), img.data());
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_Col2im);

// ---------------------------------- Layers ----------------------------------

// Conv layer benches: state.range(0) is the batch size, so the per-image
// and batched-lowering regimes share one harness. in 3 → out 16 channels on
// 32×32 inputs (the AlexNet-s stem shape), forward = 1/3 of flops_per_sample.
// Every conv forward here is a training forward (train == true), the one
// that lowers the whole batch; inference goes one image at a time.
void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  ds::Conv2D conv(3, 16, 3, 1, 1);
  std::vector<float> params(conv.param_count()), grads(conv.param_count());
  conv.bind(params, grads);
  ds::Rng rng(2);
  conv.init_params(rng);
  ds::Tensor x({batch, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  ds::Tensor y;
  for (auto _ : state) {
    conv.forward(x, y, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  set_gflops(state, conv.flops_per_sample(x.shape()) / 3.0 *
                        static_cast<double>(batch));
}
BENCHMARK(BM_ConvForward)->Arg(8)->Arg(32);

void BM_ConvBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  ds::Conv2D conv(3, 16, 3, 1, 1);
  std::vector<float> params(conv.param_count()), grads(conv.param_count());
  conv.bind(params, grads);
  ds::Rng rng(2);
  conv.init_params(rng);
  ds::Tensor x({batch, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  ds::Tensor y, dx;
  conv.forward(x, y, /*train=*/true);
  ds::Tensor dy(y.shape());
  dy.fill(0.01f);
  for (auto _ : state) {
    conv.backward(x, y, dy, dx);
    benchmark::DoNotOptimize(dx.data());
  }
  set_gflops(state, conv.flops_per_sample(x.shape()) * 2.0 / 3.0 *
                        static_cast<double>(batch));
}
BENCHMARK(BM_ConvBackward)->Arg(8)->Arg(32);

void BM_ConvForwardDeep(benchmark::State& state) {
  // A mid-network shape: 32 → 64 channels on 16×16, batch 32 — the regime
  // where the batched lowering's single fat GEMM pays off most.
  const std::size_t batch = 32;
  ds::Conv2D conv(32, 64, 3, 1, 1);
  std::vector<float> params(conv.param_count()), grads(conv.param_count());
  conv.bind(params, grads);
  ds::Rng rng(2);
  conv.init_params(rng);
  ds::Tensor x({batch, 32, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  ds::Tensor y;
  for (auto _ : state) {
    conv.forward(x, y, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  set_gflops(state, conv.flops_per_sample(x.shape()) / 3.0 *
                        static_cast<double>(batch));
}
BENCHMARK(BM_ConvForwardDeep);

// ------------------------- Convolution algorithms ---------------------------

// Forward throughput per ConvAlgo on an AlexNet-class 3×3/s1/p1 layer
// (32 → 32 channels on 16×16, batch 32 — the alexnet_s conv3 shape, which
// every mid-network conv in the zoo resembles). GFLOP/s counts the
// direct-convolution flop budget for every algorithm so the numbers are
// comparable. The "speedup_vs_im2col" counter re-times the im2col
// path on the same tensors in-process and reports the ratio — load- and
// machine-stable in a way raw rates are not, so the CI gate can hold the
// ≥1.3× claim against it with a tight tolerance.
void conv3x3_algo_bench(benchmark::State& state, ds::ConvAlgo algo) {
  const std::size_t batch = 32, hw = 16;
  const auto in_c = static_cast<std::size_t>(state.range(0));
  const std::size_t out_c = in_c;
  ds::Rng rng(2);
  ds::Tensor x({batch, in_c, hw, hw});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  const auto make_conv = [&](std::vector<float>& params,
                             std::vector<float>& grads) {
    auto conv = std::make_unique<ds::Conv2D>(in_c, out_c, 3, 1, 1);
    params.resize(conv->param_count());
    grads.resize(conv->param_count());
    conv->bind(params, grads);
    ds::Rng init(2);
    conv->init_params(init);
    return conv;
  };
  std::vector<float> params, grads;
  auto conv = make_conv(params, grads);
  // The thread knob pins the kernel; kAuto hands it back to the heuristic.
  ds::kernel_config().conv_algo = algo;
  ds::Tensor y;
  for (auto _ : state) {
    conv->forward(x, y, /*train=*/true);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = conv->flops_per_sample(x.shape()) / 3.0 *
                       static_cast<double>(batch);
  set_gflops(state, flops);

  // Best-of-3 windows of 10 calls each: the steady-state time, insulated
  // from first-touch page faults on the freshly allocated workspaces.
  const auto time_forward = [&](ds::ConvAlgo a) {
    std::vector<float> p, g;
    auto c = make_conv(p, g);
    ds::kernel_config().conv_algo = a;
    ds::Tensor out;
    for (int warm = 0; warm < 3; ++warm) c->forward(x, out, /*train=*/true);
    double best = 0.0;
    for (int window = 0; window < 3; ++window) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < 10; ++rep) c->forward(x, out, /*train=*/true);
      const double t =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      if (window == 0 || t < best) best = t;
    }
    benchmark::DoNotOptimize(out.data());
    return best;
  };
  state.counters["speedup_vs_im2col"] =
      time_forward(ds::ConvAlgo::kIm2col) / time_forward(algo);
  ds::kernel_config().conv_algo = ds::ConvAlgo::kAuto;
}
BENCHMARK_CAPTURE(conv3x3_algo_bench, im2col, ds::ConvAlgo::kIm2col)
    ->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(conv3x3_algo_bench, direct, ds::ConvAlgo::kDirect)
    ->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(conv3x3_algo_bench, auto_pick, ds::ConvAlgo::kAuto)
    ->Arg(32)->Arg(64);

// ---------------------------- Non-GEMM layers --------------------------------

// LRN forward + backward at the alexnet_s conv1 output (batch 16 × 16 ch ×
// 32×32): before the memoised powf it cost more than every conv together.
void BM_LrnForwardBackward(benchmark::State& state) {
  ds::Rng rng(4);
  ds::Tensor x({16, 16, 32, 32}), dy({16, 16, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0, 2));  // post-ReLU activations
    dy[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  ds::LocalResponseNorm lrn;
  ds::Tensor y, dx;
  for (auto _ : state) {
    lrn.forward(x, y, true);
    lrn.backward(x, y, dy, dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_LrnForwardBackward);

// Max-pool forward: args are (channels, plane, kernel, stride, pad). k2s2 at
// the alexnet_s conv1 output, and inception's k3s1p1 pool branch.
void BM_MaxPoolForward(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(1));
  ds::Rng rng(5);
  ds::Tensor x({16, c, hw, hw});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  ds::MaxPool2D pool(static_cast<std::size_t>(state.range(2)),
                     static_cast<std::size_t>(state.range(3)),
                     static_cast<std::size_t>(state.range(4)));
  ds::Tensor y;
  for (auto _ : state) {
    pool.forward(x, y, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPoolForward)
    ->Args({16, 32, 2, 2, 0})
    ->Args({16, 16, 3, 1, 1});

// ------------------------------- Update rules --------------------------------

void BM_EasgdWorkerStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Rng rng(3);
  std::vector<float> w(n), g(n), center(n);
  fill(w, rng);
  fill(g, rng);
  fill(center, rng);
  for (auto _ : state) {
    ds::easgd_worker_step(w, g, center, 0.01f, 0.01f);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 3 * sizeof(float));
}
BENCHMARK(BM_EasgdWorkerStep)->Arg(14970)->Arg(1 << 20);

void BM_MeasgdWorkerStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Rng rng(3);
  std::vector<float> w(n), v(n), g(n), center(n);
  fill(w, rng);
  fill(g, rng);
  fill(center, rng);
  for (auto _ : state) {
    ds::measgd_worker_step(w, v, g, center, 0.01f, 0.9f, 0.01f);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_MeasgdWorkerStep)->Arg(14970);

void BM_EasgdCenterStepSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ds::Rng rng(3);
  std::vector<float> center(n), sum_w(n);
  fill(center, rng);
  fill(sum_w, rng);
  for (auto _ : state) {
    ds::easgd_center_step_sum(center, sum_w, 4, 0.01f, 0.01f);
    benchmark::DoNotOptimize(center.data());
  }
}
BENCHMARK(BM_EasgdCenterStepSum)->Arg(14970);

// ------------------------------ Whole networks -------------------------------

void BM_LenetForwardBackward(benchmark::State& state) {
  ds::Rng rng(7);
  auto net = ds::make_lenet_s(rng);
  ds::Tensor x({32, 1, 28, 28});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<std::int32_t> labels(32);
  for (std::size_t i = 0; i < 32; ++i) labels[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    net->zero_grads();
    const ds::LossResult r = net->forward_backward(x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
  state.counters["model GFLOP/s"] = benchmark::Counter(
      net->flops_per_sample() * 32.0 *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LenetForwardBackward);

void BM_AlexnetForwardBackward(benchmark::State& state) {
  ds::Rng rng(7);
  auto net = ds::make_alexnet_s(rng);
  ds::Tensor x({8, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<std::int32_t> labels(8);
  for (std::size_t i = 0; i < 8; ++i) labels[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    net->zero_grads();
    const ds::LossResult r = net->forward_backward(x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
}
BENCHMARK(BM_AlexnetForwardBackward);

void BM_GooglenetForwardBackward(benchmark::State& state) {
  // Inception-block step time: the other model family whose 3×3 branches
  // ride the conv dispatch (the 1×1/5×5 stages stay on im2col).
  ds::Rng rng(7);
  auto net = ds::make_googlenet_s(rng);
  ds::Tensor x({8, 3, 32, 32});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<std::int32_t> labels(8);
  for (std::size_t i = 0; i < 8; ++i) labels[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    net->zero_grads();
    const ds::LossResult r = net->forward_backward(x, labels);
    benchmark::DoNotOptimize(r.loss);
  }
}
BENCHMARK(BM_GooglenetForwardBackward);

}  // namespace

#include "micro_bench_main.hpp"
DS_MICRO_BENCH_MAIN("micro_kernels")
