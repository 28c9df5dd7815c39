// Tests for the im2col/col2im lowering, including the adjoint property
// that underpins convolution's backward pass.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit {
namespace {

TEST(ConvGeom, OutputExtents) {
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .kernel_h = 3, .kernel_w = 3,
             .stride = 1, .pad = 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 4);
  g.pad = 0;
  EXPECT_EQ(g.out_h(), 3);
}

TEST(ConvGeom, ValidationCatchesEmptyOutput) {
  ConvGeom g{.in_c = 1, .in_h = 2, .in_w = 2, .kernel_h = 5, .kernel_w = 5,
             .stride = 1, .pad = 0};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g.pad = 2;
  EXPECT_NO_THROW(g.validate());
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1: cols is just the image rows.
  const ConvGeom g{.in_c = 2, .in_h = 3, .in_w = 3, .kernel_h = 1,
                   .kernel_w = 1, .stride = 1, .pad = 0};
  Tensor img({2, 3, 3});
  for (int64_t i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (int64_t i = 0; i < 18; ++i) EXPECT_EQ(cols[i], static_cast<float>(i));
}

TEST(Im2col, PaddingProducesZeros) {
  const ConvGeom g{.in_c = 1, .in_h = 2, .in_w = 2, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor img({1, 2, 2}, 1.0f);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Top-left kernel tap at output (0,0) reads img(-1,-1) -> 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Centre tap always reads a real pixel.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2col, KnownPatchContents) {
  const ConvGeom g{.in_c = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                   .kernel_w = 2, .stride = 1, .pad = 0};
  Tensor img({1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) img[i] = static_cast<float>(i);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Patch at output (0,0) is pixels {0,1,3,4} spread across the 4 rows.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(1, 0), 1.0f);
  EXPECT_EQ(cols.at(2, 0), 3.0f);
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  // Patch at output (1,1) is pixels {4,5,7,8}.
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

// Property: <im2col(x), y> == <x, col2im(y)> for random x, y — col2im is
// the exact adjoint of im2col. Parameterised over geometry.
struct GeomParam {
  int64_t c, h, w, k, stride, pad;
};

class Im2colAdjoint : public ::testing::TestWithParam<GeomParam> {};

TEST_P(Im2colAdjoint, InnerProductIdentity) {
  const GeomParam p = GetParam();
  const ConvGeom g{.in_c = p.c, .in_h = p.h, .in_w = p.w, .kernel_h = p.k,
                   .kernel_w = p.k, .stride = p.stride, .pad = p.pad};
  Rng rng(static_cast<uint64_t>(p.c * 1000 + p.h * 100 + p.k));
  Tensor x({p.c, p.h, p.w});
  rng.fill_uniform(x, -1.0f, 1.0f);

  Tensor cols;
  im2col(x.data(), g, cols);
  Tensor y(cols.shape());
  rng.fill_uniform(y, -1.0f, 1.0f);

  Tensor xadj({p.c, p.h, p.w});
  col2im(y, g, xadj.data());

  const float lhs = ops::sum(ops::mul(cols, y));
  const float rhs = ops::sum(ops::mul(x, xadj));
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(GeomParam{1, 5, 5, 3, 1, 1}, GeomParam{3, 8, 8, 3, 2, 1},
                      GeomParam{2, 7, 5, 5, 2, 2}, GeomParam{4, 6, 6, 1, 1, 0},
                      GeomParam{1, 9, 9, 3, 3, 0},
                      GeomParam{2, 10, 10, 5, 1, 2}));

// Property: both patch-matrix layouts equal a naive per-element gather bit
// for bit — row-major, and packed strips with the last strip zero-padded —
// over kernels 1-5, strides 1-3, padding 0-2, non-square inputs and 1-5
// channels. The larger input spreads the packed fill over several pool
// chunks; it runs at 1 and 4 lanes.
TEST(Im2col, MatchesNaiveGatherInBothLayouts) {
  struct LaneGuard {
    int restore = runtime::num_threads();
    ~LaneGuard() { runtime::set_num_threads(restore); }
  } guard;
  Rng rng(5);
  int checked = 0;
  for (const int lanes : {1, 4}) {
    runtime::set_num_threads(lanes);
    for (const auto [h, w] : {std::pair<int64_t, int64_t>{5, 7}, {9, 4},
                              {23, 37}})
      for (int64_t c = 1; c <= 5; ++c)
        for (int64_t k = 1; k <= 5; ++k)
          for (int64_t stride = 1; stride <= 3; ++stride)
            for (int64_t pad = 0; pad <= 2; ++pad) {
              const ConvGeom g{.in_c = c, .in_h = h, .in_w = w, .kernel_h = k,
                               .kernel_w = k, .stride = stride, .pad = pad};
              if (g.out_h() <= 0 || g.out_w() <= 0) continue;
              const int64_t oh = g.out_h(), ow = g.out_w(), n = oh * ow;
              const int64_t rows = c * k * k;
              Tensor img({c, h, w});
              rng.fill_uniform(img, -1.0f, 1.0f);

              std::vector<float> ref(static_cast<size_t>(rows * n));
              for (int64_t ch = 0; ch < c; ++ch)
                for (int64_t kh = 0; kh < k; ++kh)
                  for (int64_t kw = 0; kw < k; ++kw)
                    for (int64_t y = 0; y < oh; ++y)
                      for (int64_t x = 0; x < ow; ++x) {
                        const int64_t iy = y * stride + kh - pad;
                        const int64_t ix = x * stride + kw - pad;
                        const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
                        ref[static_cast<size_t>(
                            ((ch * k + kh) * k + kw) * n + y * ow + x)] =
                            in ? img[(ch * h + iy) * w + ix] : 0.0f;
                      }

              std::vector<float> flat(ref.size(), -7.0f);
              im2col(img.data(), g, flat.data());
              ASSERT_EQ(std::memcmp(flat.data(), ref.data(),
                                    ref.size() * sizeof(float)),
                        0)
                  << "row-major: c=" << c << " " << h << "x" << w
                  << " k=" << k << " s=" << stride << " p=" << pad;

              const int64_t size = ops::detail::packed_size(rows, n);
              ASSERT_EQ(conv_scratch_size(g), size);
              std::vector<float> packed(static_cast<size_t>(size), -7.0f);
              im2col_packed(img.data(), g, packed.data());
              std::vector<float> want(packed.size());
              const int64_t sw = ops::detail::kStripWidth;
              for (int64_t r = 0; r < rows; ++r)
                for (int64_t j = 0; j < size / rows; ++j)
                  want[static_cast<size_t>((j / sw * rows + r) * sw + j % sw)] =
                      j < n ? ref[static_cast<size_t>(r * n + j)] : 0.0f;
              ASSERT_EQ(std::memcmp(packed.data(), want.data(),
                                    want.size() * sizeof(float)),
                        0)
                  << "packed: lanes=" << lanes << " c=" << c << " " << h
                  << "x" << w << " k=" << k << " s=" << stride << " p=" << pad;
              ++checked;
            }
  }
  EXPECT_GT(checked, 500);
}

TEST(Col2im, ShapeMismatchThrows) {
  const ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor img({1, 4, 4});
  Tensor wrong({3, 3});
  EXPECT_THROW(col2im(wrong, g, img.data()), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
