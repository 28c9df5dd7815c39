#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"

namespace mtlsplit {

namespace {

/// Writes patch-matrix row (c, kh, kw) — OH*OW floats, row-major over
/// (y, x) — from the channel plane @p plane to @p out.
void patch_row(const float* plane, const ConvGeom& g, int64_t kh, int64_t kw,
               float* out) {
  const int64_t oh = g.out_h(), ow = g.out_w(), s = g.stride;
  // Output columns [x0, x1) tap inside the image row: 0 <= x*s + offx < in_w;
  // output rows [y0, y1) likewise for the image column.
  const int64_t offx = kw - g.pad, offy = kh - g.pad;
  const int64_t x0 = std::min(ow, offx >= 0 ? 0 : (s - 1 - offx) / s);
  const int64_t lastx = g.in_w - 1 - offx;
  const int64_t x1 = std::max(x0, lastx < 0 ? 0 : std::min(ow, lastx / s + 1));
  const int64_t y0 = std::min(oh, offy >= 0 ? 0 : (s - 1 - offy) / s);
  const int64_t lasty = g.in_h - 1 - offy;
  int64_t y1 = std::max(y0, lasty < 0 ? 0 : std::min(oh, lasty / s + 1));
  if (x1 == x0) y1 = y0;  // no tap lands inside a row: all zeros
  std::fill(out, out + y0 * ow, 0.0f);
  std::fill(out + y1 * ow, out + oh * ow, 0.0f);
  if (y1 == y0) return;
  // First in-image pixel of output row y.
  const auto src = [&](int64_t y) {
    return plane + (y * s + offy) * g.in_w + x0 * s + offx;
  };
  if (s == 1 && ow == g.in_w) {
    // Output rows as wide as image rows ("same" padding): the in-image band
    // is one contiguous run in both. The copy drags neighbouring-row pixels
    // into the border columns, which are zeroed below like any border.
    std::memcpy(out + y0 * ow + x0, src(y0),
                static_cast<size_t>((y1 - y0 - 1) * ow + x1 - x0) *
                    sizeof(float));
  } else {
    for (int64_t y = y0; y < y1; ++y) {
      float* o = out + y * ow + x0;
      const float* in = src(y);
      if (s == 1) {
        std::memcpy(o, in, static_cast<size_t>(x1 - x0) * sizeof(float));
      } else {
        for (int64_t x = 0; x < x1 - x0; ++x) o[x] = in[x * s];
      }
    }
  }
  // Border columns are zeroed column by column down the band: a per-row
  // fill of one or two floats would cost a memset call per row.
  for (int64_t x = 0; x < x0; ++x)
    for (int64_t y = y0; y < y1; ++y) out[y * ow + x] = 0.0f;
  for (int64_t x = x1; x < ow; ++x)
    for (int64_t y = y0; y < y1; ++y) out[y * ow + x] = 0.0f;
}

}  // namespace

void im2col(const float* img, const ConvGeom& g, float* cols) {
  g.validate();
  const int64_t ohw = g.out_h() * g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (int64_t kw = 0; kw < g.kernel_w; ++kw)
        patch_row(plane, g, kh, kw,
                  cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * ohw);
  }
}

void im2col(const float* img, const ConvGeom& g, Tensor& cols) {
  g.validate();
  const int64_t rows = g.in_c * g.kernel_h * g.kernel_w;
  const int64_t oh = g.out_h(), ow = g.out_w();
  if (cols.shape() != Shape{rows, oh * ow}) cols = Tensor({rows, oh * ow});
  im2col(img, g, cols.data());
}

void im2col_packed(const float* img, const ConvGeom& g, float* cols) {
  g.validate();
  constexpr int64_t kW = ops::detail::kStripWidth;
  // Patch rows are independent, so at batch 1 they spread over the pool in
  // blocks of at most 32 rows and about kBlockFloats. A block is built
  // row-major in a lane-local buffer (L1/L2 sized), then written out strip
  // by strip: each strip gets the block's rows as one contiguous run,
  // instead of one 64-byte write per row at a stride of a whole strip
  // (measured 2x slower on 48x48 maps).
  constexpr int64_t kBlockFloats = 1 << 14, kBlockRows = 32;
  const int64_t rows = g.in_c * g.kernel_h * g.kernel_w;
  const int64_t ohw = g.out_h() * g.out_w();
  const int64_t padded = (ohw + kW - 1) / kW * kW;  // whole strips
  const int64_t grain =
      std::clamp<int64_t>(kBlockFloats / padded, 1, kBlockRows);
  runtime::parallel_for(0, rows, grain, [&](int64_t r0, int64_t r1) {
    thread_local std::vector<float> block;
    if (static_cast<int64_t>(block.size()) < (r1 - r0) * padded)
      block.resize(static_cast<size_t>((r1 - r0) * padded));
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t c = r / (g.kernel_h * g.kernel_w);
      const int64_t kh = r / g.kernel_w % g.kernel_h, kw = r % g.kernel_w;
      float* row = block.data() + (r - r0) * padded;
      patch_row(img + c * g.in_h * g.in_w, g, kh, kw, row);
      std::fill(row + ohw, row + padded, 0.0f);
    }
    for (int64_t j = 0; j < padded; j += kW) {
      float* dst = cols + j * rows + r0 * kW;
      for (int64_t r = r0; r < r1; ++r, dst += kW)
        std::memcpy(dst, block.data() + (r - r0) * padded + j,
                    kW * sizeof(float));
    }
  });
}

void col2im(const float* cols, const ConvGeom& g, float* img) {
  g.validate();
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += crow[y * ow + x];
          }
        }
      }
    }
  }
}

void col2im(const Tensor& cols, const ConvGeom& g, float* img) {
  g.validate();
  const int64_t rows = g.in_c * g.kernel_h * g.kernel_w;
  check_arg(cols.shape() == Shape{rows, g.out_h() * g.out_w()},
            "col2im: cols shape ", cols.shape(), " does not match geometry");
  col2im(cols.data(), g, img);
}

int64_t conv_scratch_size(const ConvGeom& g) {
  return ops::detail::packed_size(g.in_c * g.kernel_h * g.kernel_w,
                                  g.out_h() * g.out_w());
}

void conv2d_sample(const float* img, const ConvGeom& g, int64_t out_c,
                   const float* weight, const float* bias, float* cols,
                   float* out) {
  const int64_t fan_in = g.in_c * g.kernel_h * g.kernel_w;
  const int64_t ohw = g.out_h() * g.out_w();
  im2col_packed(img, g, cols);
  ops::detail::gemm_packed(out_c, ohw, fan_in, weight, cols, out);
  if (bias == nullptr) return;
  for (int64_t o = 0; o < out_c; ++o) {
    const float b = bias[o];
    float* plane = out + o * ohw;
    for (int64_t j = 0; j < ohw; ++j) plane[j] += b;
  }
}

}  // namespace mtlsplit
