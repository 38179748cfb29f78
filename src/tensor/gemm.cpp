#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>

#include "support/thread_annotations.hpp"

#include "tensor/kernel_pool.hpp"

#include "obs/metrics.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ds {
namespace {

// One 16-float row of the accumulator tile maps onto one 512-bit vector
// (or two 256-bit / four 128-bit ones — the compiler splits as the target
// allows). The unaligned alias is used for C rows and bias loads, whose
// alignment the caller controls; packed panels are always 64-byte aligned.
static_assert(kGemmNR == 16, "micro-kernel is written for 16-wide rows");
static_assert(kGemmMC % kGemmMR == 0 && kGemmNC % kGemmNR == 0,
              "cache blocks must hold whole micro-tiles");
typedef float v16sf __attribute__((vector_size(64)));
typedef float v16sf_u __attribute__((vector_size(64), aligned(4)));

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// Per-thread packing workspaces, grown monotonically and reused across every
// gemm call issued from (or sharded onto) this thread: no allocation on the
// hot path once the largest shape has been seen.
struct PackWorkspace {
  AlignedBuffer a;  // kGemmMC × kGemmKC panel of op(A), alpha pre-applied
  AlignedBuffer b;  // kGemmKC × kGemmNC panel of op(B)
};

PackWorkspace& pack_workspace() {
  static thread_local PackWorkspace ws;
  return ws;
}

// The shared compute pool behind the opt-in threaded path. Concurrent
// threaded gemms serialize on this mutex (each still runs parallel inside);
// serial gemms — the fabric-worker default — never touch it.
Mutex& compute_pool_mutex() {
  static Mutex m;
  return m;
}

ThreadPool& compute_pool(std::size_t threads)
    DS_REQUIRES(compute_pool_mutex()) {
  static std::unique_ptr<ThreadPool> pool;
  if (!pool || pool->size() < threads) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  return *pool;
}

// Pack op(A)[ic:ic+mc, pc:pc+kc] into kGemmMR-row panels, column-major
// within each panel, with alpha folded in and ragged rows zero-padded.
void pack_a(bool trans, const float* a, std::size_t lda, std::size_t ic,
            std::size_t mc, std::size_t pc, std::size_t kc, float alpha,
            float* dst) {
  const std::size_t panels = ceil_div(mc, kGemmMR);
  for (std::size_t ip = 0; ip < panels; ++ip) {
    const std::size_t i0 = ip * kGemmMR;
    const std::size_t mr = std::min(kGemmMR, mc - i0);
    float* out = dst + ip * kc * kGemmMR;
    if (mr < kGemmMR) std::memset(out, 0, kc * kGemmMR * sizeof(float));
    if (!trans) {
      for (std::size_t r = 0; r < mr; ++r) {
        const float* src = a + (ic + i0 + r) * lda + pc;
        for (std::size_t p = 0; p < kc; ++p) {
          out[p * kGemmMR + r] = alpha * src[p];
        }
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * lda + ic + i0;
        for (std::size_t r = 0; r < mr; ++r) {
          out[p * kGemmMR + r] = alpha * src[r];
        }
      }
    }
  }
}

// Pack op(B)[pc:pc+kc, jc:jc+nc] into kGemmNR-column panels, row-major
// within each panel, ragged columns zero-padded.
void pack_b(bool trans, const float* b, std::size_t ldb, std::size_t pc,
            std::size_t kc, std::size_t jc, std::size_t nc, float* dst) {
  const std::size_t panels = ceil_div(nc, kGemmNR);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * kGemmNR;
    const std::size_t nr = std::min(kGemmNR, nc - j0);
    float* out = dst + jp * kc * kGemmNR;
    if (nr < kGemmNR) std::memset(out, 0, kc * kGemmNR * sizeof(float));
    if (!trans) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        float* row = out + p * kGemmNR;
        for (std::size_t j = 0; j < nr; ++j) row[j] = src[j];
      }
    } else {
      for (std::size_t j = 0; j < nr; ++j) {
        const float* src = b + (jc + j0 + j) * ldb + pc;
        for (std::size_t p = 0; p < kc; ++p) {
          out[p * kGemmNR + j] = src[p];
        }
      }
    }
  }
}

// How a micro-tile's accumulator is merged into C. first_k selects the
// beta-combine (the first k-block per tile absorbs beta, so C is never
// pre-scaled in a separate pass); last_k triggers the fused bias epilogue.
struct TileCtx {
  float beta = 0.0f;
  bool first_k = false;
  bool last_k = false;
  const GemmEpilogue* epilogue = nullptr;  // null when no bias is fused
};

// Register micro-kernel: one kGemmMR × kGemmNR accumulator tile over a
// packed kc-deep panel pair. Always computes the full padded tile (the
// packing zero-fill makes that safe); ragged writeback spills through a
// scalar path. i0/j0 are the tile's global C coordinates for the epilogue.
void micro_kernel(std::size_t kc, const float* ap, const float* bp, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  std::size_t i0, std::size_t j0, const TileCtx& ctx) {
  v16sf acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kGemmMR;
    const v16sf bv = *reinterpret_cast<const v16sf*>(bp + p * kGemmNR);
    acc0 += a[0] * bv;
    acc1 += a[1] * bv;
    acc2 += a[2] * bv;
    acc3 += a[3] * bv;
    acc4 += a[4] * bv;
    acc5 += a[5] * bv;
  }
  const GemmEpilogue* ep = ctx.last_k ? ctx.epilogue : nullptr;
  if (mr == kGemmMR && nr == kGemmNR) {
    // By-reference: a by-value v16sf argument is an ABI-affected vector
    // pass and trips -Wpsabi on builds without 512-bit registers enabled.
    const auto finish = [&](std::size_t r, const v16sf& acc_in) {
      v16sf acc = acc_in;
      if (ep != nullptr) {
        if (ep->row_bias != nullptr) acc += ep->row_bias[i0 + r];
        if (ep->col_bias != nullptr) {
          acc += *reinterpret_cast<const v16sf_u*>(ep->col_bias + j0);
        }
      }
      v16sf_u* dst = reinterpret_cast<v16sf_u*>(c + r * ldc);
      if (!ctx.first_k) {
        *dst += acc;
      } else if (ctx.beta == 0.0f) {
        *dst = acc;
      } else {
        *dst = ctx.beta * static_cast<v16sf>(*dst) + acc;
      }
    };
    finish(0, acc0);
    finish(1, acc1);
    finish(2, acc2);
    finish(3, acc3);
    finish(4, acc4);
    finish(5, acc5);
    return;
  }
  alignas(64) float tmp[kGemmMR][kGemmNR];
  *reinterpret_cast<v16sf*>(tmp[0]) = acc0;
  *reinterpret_cast<v16sf*>(tmp[1]) = acc1;
  *reinterpret_cast<v16sf*>(tmp[2]) = acc2;
  *reinterpret_cast<v16sf*>(tmp[3]) = acc3;
  *reinterpret_cast<v16sf*>(tmp[4]) = acc4;
  *reinterpret_cast<v16sf*>(tmp[5]) = acc5;
  for (std::size_t r = 0; r < mr; ++r) {
    float* row = c + r * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = tmp[r][j];
      if (ep != nullptr) {
        if (ep->row_bias != nullptr) v += ep->row_bias[i0 + r];
        if (ep->col_bias != nullptr) v += ep->col_bias[j0 + j];
      }
      if (!ctx.first_k) {
        row[j] += v;
      } else if (ctx.beta == 0.0f) {
        row[j] = v;
      } else {
        row[j] = ctx.beta * row[j] + v;
      }
    }
  }
}

// Macro-kernel: sweep the micro-tile grid of one packed A block against a
// slice [jr_begin, jr_end) of the packed B panels. Each C tile is touched by
// exactly one invocation per k-block, and its k-reduction order is fixed by
// the pc loop in the driver — which is what makes the threaded partition
// bitwise identical to the serial kernel.
void macro_kernel(std::size_t mc, std::size_t nc, std::size_t kc,
                  const float* apack, const float* bpack,
                  std::size_t jr_begin, std::size_t jr_end, float* c,
                  std::size_t ldc, std::size_t ic, std::size_t jc,
                  const TileCtx& ctx) {
  const std::size_t m_panels = ceil_div(mc, kGemmMR);
  for (std::size_t jr = jr_begin; jr < jr_end; ++jr) {
    const std::size_t j0 = jr * kGemmNR;
    const std::size_t nr = std::min(kGemmNR, nc - j0);
    const float* bp = bpack + jr * kc * kGemmNR;
    for (std::size_t ir = 0; ir < m_panels; ++ir) {
      const std::size_t i0 = ir * kGemmMR;
      const std::size_t mr = std::min(kGemmMR, mc - i0);
      micro_kernel(kc, apack + ir * kc * kGemmMR, bp,
                   c + i0 * ldc + j0, ldc, mr, nr, ic + i0, jc + j0, ctx);
    }
  }
}

void apply_beta_and_bias(std::size_t m, std::size_t n, float beta, float* c,
                         std::size_t ldc, const GemmEpilogue* ep) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::memset(row, 0, n * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
    if (ep != nullptr && ep->row_bias != nullptr) {
      const float rb = ep->row_bias[i];
      for (std::size_t j = 0; j < n; ++j) row[j] += rb;
    }
    if (ep != nullptr && ep->col_bias != nullptr) {
      for (std::size_t j = 0; j < n; ++j) row[j] += ep->col_bias[j];
    }
  }
}

void gemm_impl(Transpose trans_a, Transpose trans_b, std::size_t m,
               std::size_t n, std::size_t k, float alpha, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float beta,
               float* c, std::size_t ldc, const GemmEpilogue* epilogue) {
  DS_CHECK(c != nullptr || m * n == 0, "gemm: null C");
  if (m == 0 || n == 0) return;
  {
    static struct {
      obs::Counter& calls = obs::metrics().counter(obs::names::kGemmCalls);
      obs::AccumDouble& flops = obs::metrics().accum(obs::names::kGemmFlops);
    } gm;
    gm.calls.add();
    gm.flops.add(gemm_flops(m, n, k));
  }
  if (epilogue != nullptr && epilogue->row_bias == nullptr &&
      epilogue->col_bias == nullptr) {
    epilogue = nullptr;
  }
  if (k == 0 || alpha == 0.0f) {
    apply_beta_and_bias(m, n, beta, c, ldc, epilogue);
    return;
  }
  DS_CHECK(a != nullptr && b != nullptr, "gemm: null input");
  const bool ta = trans_a == Transpose::kYes;
  const bool tb = trans_b == Transpose::kYes;
  const std::size_t threads = std::max<std::size_t>(
      std::size_t{1}, kernel_config().gemm_threads);

  // Deterministic M-grid shard: with few kGemmMC blocks, shrink the block
  // (kGemmMR-aligned) so every thread gets one; leftover parallelism splits
  // the jr panel range. Block geometry never changes a tile's value — each
  // tile's k-reduction is fixed by the pc loop — so any partition is bitwise
  // identical to serial.
  std::size_t mc_eff = kGemmMC;
  if (threads > 1 && ceil_div(m, mc_eff) < threads) {
    mc_eff = std::max(kGemmMR, ceil_div(m, threads * kGemmMR) * kGemmMR);
  }
  const std::size_t m_blocks = ceil_div(m, mc_eff);

  const auto run = [&](ThreadPool* pool) {
    PackWorkspace& ws = pack_workspace();
    for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
      const std::size_t nc = std::min(kGemmNC, n - jc);
      const std::size_t jr_panels = ceil_div(nc, kGemmNR);
      const std::size_t j_split =
          pool == nullptr
              ? 1
              : std::min(std::max<std::size_t>(threads / m_blocks, 1),
                         jr_panels);
      const std::size_t jr_chunk = ceil_div(jr_panels, j_split);
      for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
        const std::size_t kc = std::min(kGemmKC, k - pc);
        TileCtx ctx;
        ctx.beta = beta;
        ctx.first_k = pc == 0;
        ctx.last_k = pc + kc == k;
        ctx.epilogue = epilogue;
        ws.b.ensure(jr_panels * kc * kGemmNR);
        pack_b(tb, b, ldb, pc, kc, jc, nc, ws.b.data());
        const float* bpack = ws.b.data();
        const auto block = [&](std::size_t ic, std::size_t jr_begin,
                               std::size_t jr_end, PackWorkspace& tws) {
          const std::size_t mc = std::min(mc_eff, m - ic);
          tws.a.ensure(ceil_div(mc, kGemmMR) * kc * kGemmMR);
          pack_a(ta, a, lda, ic, mc, pc, kc, alpha, tws.a.data());
          macro_kernel(mc, nc, kc, tws.a.data(), bpack, jr_begin, jr_end,
                       c + ic * ldc + jc, ldc, ic, jc, ctx);
        };
        if (pool == nullptr) {
          for (std::size_t ic = 0; ic < m; ic += mc_eff) {
            block(ic, 0, jr_panels, ws);
          }
        } else {
          pool->parallel_for(m_blocks * j_split, [&](std::size_t t) {
            const std::size_t ic = (t / j_split) * mc_eff;
            const std::size_t jr_begin =
                std::min((t % j_split) * jr_chunk, jr_panels);
            const std::size_t jr_end =
                std::min(jr_begin + jr_chunk, jr_panels);
            if (jr_begin >= jr_end) return;
            // A task on the calling thread gets `ws` back: it packs into
            // ws.a, which is free, while ws.b holds the shared B panel.
            block(ic, jr_begin, jr_end, pack_workspace());
          });
        }
      }
    }
  };

  if (threads <= 1) {
    run(nullptr);
  } else {
    const MutexLock lock(compute_pool_mutex());
    run(&compute_pool(threads));
  }
}

}  // namespace

KernelConfig& kernel_config() {
  static thread_local KernelConfig config;
  return config;
}

void kernel_parallel_for(std::size_t tasks, std::size_t threads,
                         const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (threads <= 1 || tasks == 1) {
    for (std::size_t t = 0; t < tasks; ++t) fn(t);
    return;
  }
  const MutexLock lock(compute_pool_mutex());
  compute_pool(threads).parallel_for(tasks, fn);
}

void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            nullptr);
}

void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc, const GemmEpilogue& epilogue) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            &epilogue);
}

void gemm(Transpose trans_a, Transpose trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  const std::size_t lda = (trans_a == Transpose::kYes) ? m : k;
  const std::size_t ldb = (trans_b == Transpose::kYes) ? k : n;
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n,
            nullptr);
}

}  // namespace ds
