#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace ds {
namespace {

// -------------------------------- Shape -------------------------------------

TEST(Shape, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s.dim(1), 3u);
}

TEST(Shape, EmptyShapeHasZeroElements) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 0u);
}

TEST(Shape, EqualityAndString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).str(), "[2x3]");
}

// -------------------------------- Tensor ------------------------------------

TEST(Tensor, ZeroInitialised) {
  Tensor t({3, 5});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, TwoDimAccess) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, FourDimAccessMatchesRowMajor) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[7] = 3.0f;
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_EQ(t[7], 3.0f);
}

TEST(Tensor, ReshapeRejectsSizeChange) {
  Tensor t({2, 6});
  EXPECT_THROW(t.reshape(Shape{5, 5}), Error);
}

TEST(Tensor, ResizeReallocatesOnlyWhenGrowing) {
  Tensor t(Shape{8, 4});
  const float* ptr = t.data();
  t.resize(Shape{2, 4});
  EXPECT_EQ(t.shape(), (Shape{2, 4}));
  EXPECT_EQ(t.numel(), 8u);
  EXPECT_EQ(t.data(), ptr);
  t.resize(Shape{4, 8});  // same element count as the first shape
  EXPECT_EQ(t.numel(), 32u);
  EXPECT_EQ(t.data(), ptr);
  t.resize(Shape{16, 4});
  EXPECT_EQ(t.numel(), 64u);
  EXPECT_EQ(t.span().size(), 64u);
}

// Under AddressSanitizer a read past numel() dies even though a shrinking
// resize kept the larger allocation.
TEST(TensorAsan, ReadPastResizedNumelDies) {
#ifndef DS_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  Tensor t(Shape{8, 16});
  t.resize(Shape{1, 16});
  const volatile float* p = t.data();
  EXPECT_EQ(p[15], 0.0f);
  EXPECT_DEATH((void)p[16], "use-after-poison");
#endif
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({4});
  a[0] = 1.0f;
  Tensor b = a;
  b[0] = 2.0f;
  EXPECT_EQ(a[0], 1.0f);
}

// --------------------------------- Ops --------------------------------------

TEST(Ops, Axpy) {
  std::vector<float> x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
}

TEST(Ops, Axpby) {
  std::vector<float> x{1, 2}, y{10, 20};
  axpby(3.0f, x, 0.5f, y);
  EXPECT_EQ(y, (std::vector<float>{8, 16}));
}

TEST(Ops, ScaleAndCopy) {
  std::vector<float> x{2, 4}, y(2);
  scale(0.5f, x);
  EXPECT_EQ(x, (std::vector<float>{1, 2}));
  copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(Ops, AddSubDot) {
  std::vector<float> a{1, 2, 3}, b{4, 5, 6}, out(3);
  add(a, b, out);
  EXPECT_EQ(out, (std::vector<float>{5, 7, 9}));
  sub(b, a, out);
  EXPECT_EQ(out, (std::vector<float>{3, 3, 3}));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Ops, NormSumMaxAbs) {
  std::vector<float> x{3, -4};
  EXPECT_DOUBLE_EQ(l2_norm(x), 5.0);
  EXPECT_DOUBLE_EQ(sum(x), -1.0);
  EXPECT_EQ(max_abs(x), 4.0f);
}

TEST(Ops, SizeMismatchThrows) {
  std::vector<float> a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(axpy(1.0f, a, b), Error);
  EXPECT_THROW(dot(a, b), Error);
}

// --------------------------------- GEMM -------------------------------------

// Reference implementation for validation.
void naive_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
                float alpha, const std::vector<float>& a,
                const std::vector<float>& b, float beta,
                std::vector<float>& c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(alpha * acc + beta * c[i * n + j]);
    }
  }
}

struct GemmCase {
  bool ta, tb;
  std::size_t m, n, k;
  float alpha, beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const GemmCase& p = GetParam();
  Rng rng(1234);
  std::vector<float> a(p.m * p.k), b(p.k * p.n), c(p.m * p.n), ref;
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : c) v = static_cast<float>(rng.uniform(-1, 1));
  ref = c;

  naive_gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a, b, p.beta, ref);
  gemm(p.ta ? Transpose::kYes : Transpose::kNo,
       p.tb ? Transpose::kYes : Transpose::kNo, p.m, p.n, p.k, p.alpha,
       a.data(), b.data(), p.beta, c.data());

  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f) << "mismatch at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposesAndShapes, GemmParamTest,
    ::testing::Values(
        GemmCase{false, false, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{false, true, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{true, false, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{true, true, 4, 5, 6, 1.0f, 0.0f},
        GemmCase{false, false, 1, 1, 1, 2.0f, 0.5f},
        GemmCase{false, false, 17, 13, 9, -1.5f, 1.0f},
        GemmCase{false, true, 32, 8, 24, 0.7f, 0.3f},
        GemmCase{true, false, 8, 32, 16, 1.0f, 1.0f},
        GemmCase{true, true, 7, 7, 7, 1.0f, 0.0f},
        GemmCase{false, false, 64, 1, 64, 1.0f, 0.0f},
        GemmCase{false, false, 1, 64, 64, 1.0f, 0.0f}));

TEST(Gemm, ZeroSizedEdges) {
  std::vector<float> c{5.0f};
  // k=0 with beta=0 must zero C and not touch A/B.
  gemm(Transpose::kNo, Transpose::kNo, 1, 1, 0, 1.0f, nullptr, nullptr, 0.0f,
       c.data());
  EXPECT_EQ(c[0], 0.0f);
  // m=0 / n=0 are no-ops.
  gemm(Transpose::kNo, Transpose::kNo, 0, 5, 3, 1.0f, nullptr, nullptr, 0.0f,
       nullptr);
  SUCCEED();
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  std::vector<float> c{2.0f, 4.0f};
  gemm(Transpose::kNo, Transpose::kNo, 1, 2, 3, 0.0f, nullptr, nullptr, 0.5f,
       c.data());
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

// ------------------------------- im2col -------------------------------------

TEST(Im2col, IdentityKernelCopiesImage) {
  ConvGeom g{1, 3, 3, 1, 1, 0};
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(g, img.data(), col.data());
  EXPECT_EQ(col, img);  // 1×1 kernel, stride 1: the image itself
}

TEST(Im2col, KnownSmallCase) {
  // 1 channel, 3×3 image, 2×2 kernel, stride 1, no pad → 4 rows × 4 cols.
  ConvGeom g{1, 3, 3, 2, 1, 0};
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(g, img.data(), col.data());
  // Row 0 = top-left tap of each window: 1,2,4,5.
  EXPECT_EQ(col[0], 1.0f);
  EXPECT_EQ(col[1], 2.0f);
  EXPECT_EQ(col[2], 4.0f);
  EXPECT_EQ(col[3], 5.0f);
  // Row 3 = bottom-right tap: 5,6,8,9.
  EXPECT_EQ(col[12], 5.0f);
  EXPECT_EQ(col[15], 9.0f);
}

TEST(Im2col, PaddingReadsZero) {
  ConvGeom g{1, 2, 2, 3, 1, 1};  // 2×2 image, 3×3 kernel, pad 1 → 2×2 out
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(g, img.data(), col.data());
  // First row = top-left tap of each window; all windows' top-left taps
  // fall in the padding for output (0,0).
  EXPECT_EQ(col[0], 0.0f);
  // Centre tap row (kh=1,kw=1) equals the image.
  const std::size_t centre_row = 1 * 3 + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(col[centre_row * 4 + i], img[i]);
  }
}

TEST(Im2col, StrideSkipsPositions) {
  ConvGeom g{1, 4, 4, 2, 2, 0};  // stride 2 → 2×2 outputs
  EXPECT_EQ(g.out_height(), 2u);
  EXPECT_EQ(g.out_width(), 2u);
  std::vector<float> img(16);
  for (std::size_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  std::vector<float> col(g.col_rows() * g.col_cols());
  im2col(g, img.data(), col.data());
  // Top-left taps of the four windows: 0, 2, 8, 10.
  EXPECT_EQ(col[0], 0.0f);
  EXPECT_EQ(col[1], 2.0f);
  EXPECT_EQ(col[2], 8.0f);
  EXPECT_EQ(col[3], 10.0f);
}

// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2col, Col2imIsAdjoint) {
  ConvGeom g{2, 5, 6, 3, 2, 1};
  Rng rng(77);
  const std::size_t img_n = g.channels * g.height * g.width;
  const std::size_t col_n = g.col_rows() * g.col_cols();
  std::vector<float> x(img_n), y(col_n), colx(col_n), imy(img_n, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));
  im2col(g, x.data(), colx.data());
  col2im(g, y.data(), imy.data());
  EXPECT_NEAR(dot(colx, y), dot(x, imy), 1e-3);
}

TEST(Im2col, GeometryFormulas) {
  ConvGeom g{3, 32, 32, 3, 1, 1};
  EXPECT_EQ(g.out_height(), 32u);
  EXPECT_EQ(g.out_width(), 32u);
  EXPECT_EQ(g.col_rows(), 27u);
  EXPECT_EQ(g.col_cols(), 1024u);
}

}  // namespace
}  // namespace ds
