// im2col / col2im lowering used by the convolution layers.
//
// Convolution is implemented as GEMM over an unrolled patch matrix:
//   cols  : [C*KH*KW, OH*OW]   (one image)
//   weight: [OC, C*KH*KW]
//   out   : weight * cols = [OC, OH*OW]
//
// The forward pass writes the patch matrix in the GEMM's packed-strip
// layout (im2col_packed; layout in tensor/gemm.hpp), so there is no
// row-major copy to pack. The backward pass uses the plain row-major matrix
// (im2col), and col2im is its exact adjoint.
//
// Both layouts are filled row by row: for each patch row (c, kh, kw) and
// output row y, the in-image x-range is computed once, the stride-1 run is
// one memcpy, and the borders are zero-filled — no per-element bounds test.
#pragma once

#include "tensor/tensor.hpp"

namespace mtlsplit {

struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }

  void validate() const {
    check_arg(in_c > 0 && in_h > 0 && in_w > 0, "ConvGeom: bad input dims");
    check_arg(kernel_h > 0 && kernel_w > 0, "ConvGeom: bad kernel dims");
    check_arg(stride > 0, "ConvGeom: stride must be positive");
    check_arg(pad >= 0, "ConvGeom: negative padding");
    check_arg(out_h() > 0 && out_w() > 0, "ConvGeom: empty output for input ",
              in_h, "x", in_w, " kernel ", kernel_h, "x", kernel_w, " stride ",
              stride, " pad ", pad);
  }
};

/// Unrolls one image [C, H, W] (flattened view into @p img) into the
/// row-major patch matrix [C*KH*KW, OH*OW] at @p cols (capacity is the
/// caller's responsibility).
void im2col(const float* img, const ConvGeom& g, float* cols);

/// Tensor-backed convenience overload; resizes @p cols when needed.
void im2col(const float* img, const ConvGeom& g, Tensor& cols);

/// Unrolls one image into the patch matrix in the packed-strip layout that
/// ops::detail::gemm_packed reads: ops::detail::packed_size(C*KH*KW, OH*OW)
/// floats at @p cols, columns past OH*OW in the last strip zeroed.
void im2col_packed(const float* img, const ConvGeom& g, float* cols);

/// Adjoint of im2col: accumulates the patch matrix [C*KH*KW, OH*OW] at
/// @p cols back into @p img (img must be pre-zeroed; size C*H*W).
void col2im(const float* cols, const ConvGeom& g, float* img);

/// Tensor-backed convenience overload; validates the cols shape.
void col2im(const Tensor& cols, const ConvGeom& g, float* img);

/// Floats of patch-matrix scratch conv2d_sample needs for geometry @p g.
int64_t conv_scratch_size(const ConvGeom& g);

/// One image's convolution — the single forward path of nn::Conv2d and the
/// graph executor's kConv2d, so the two agree bit for bit by construction:
/// im2col_packed into @p cols (conv_scratch_size floats), gemm_packed with
/// @p weight [out_c, C*KH*KW], then `+= bias[o]` over each output plane
/// (@p bias may be null). @p out is [out_c, OH*OW].
void conv2d_sample(const float* img, const ConvGeom& g, int64_t out_c,
                   const float* weight, const float* bias, float* cols,
                   float* out);

}  // namespace mtlsplit
