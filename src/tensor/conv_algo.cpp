#include "tensor/conv_algo.hpp"

#include "tensor/direct_conv.hpp"
#include "tensor/gemm.hpp"

namespace ds {

const char* conv_algo_name(ConvAlgo a) {
  switch (a) {
    case ConvAlgo::kAuto:
      return "auto";
    case ConvAlgo::kIm2col:
      return "im2col";
    case ConvAlgo::kDirect:
      return "direct";
  }
  return "unknown";
}

bool conv_algo_supported(ConvAlgo a, const ConvGeom& g) {
  switch (a) {
    case ConvAlgo::kDirect:
      return direct_conv_supported(g);
    case ConvAlgo::kAuto:
    case ConvAlgo::kIm2col:
      return true;
  }
  return false;
}

ConvAlgo choose_conv_algo(const ConvGeom& g, std::size_t out_channels) {
  (void)out_channels;
  if (!direct_conv_supported(g)) return ConvAlgo::kIm2col;
  // Measured on the micro_kernels conv3x3_algo battery and the model-zoo
  // layer shapes: the register-blocked direct kernel beats im2col 1.5–2.0×
  // once a row fills most of a v16sf lane (16×16 and 32×32 planes), but at
  // 8×8 the blocked layout's slack (an 8-float row padded to 32, a 5.5×
  // size inflation) plus half-empty vector ops hand the win back to the
  // batched lowering.
  if (g.height < 12 || g.width < 12) return ConvAlgo::kIm2col;
  return ConvAlgo::kDirect;
}

ConvAlgo resolve_conv_algo(const ConvGeom& g, std::size_t out_channels) {
  ConvAlgo a = kernel_config().conv_algo;
  if (a == ConvAlgo::kAuto) a = choose_conv_algo(g, out_channels);
  if (!conv_algo_supported(a, g)) a = ConvAlgo::kIm2col;
  return a;
}

}  // namespace ds
