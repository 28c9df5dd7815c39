// Tests for the precondition helpers in tensor/check.hpp.
//
// Two properties are pinned here:
//  * a check that passes allocates nothing, whatever its message parts
//    (counted by replacing the global operator new in this binary);
//  * a check that fails throws the same exception type with the same text
//    as before the helpers took message parts (golden strings).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "tensor/check.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace {
std::atomic<long> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mtlsplit {
namespace {

/// Number of operator-new calls made while running @p fn.
template <typename Fn>
long allocations_in(Fn&& fn) {
  const long before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

/// Runs @p fn, expecting it to throw @p Error; returns the what() text.
template <typename Error, typename Fn>
std::string failure_text(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type, what(): " << e.what();
    return {};
  }
  ADD_FAILURE() << "no exception thrown";
  return {};
}

// A message longer than std::string's small-buffer capacity: building it as
// a std::string, as the helpers once did, would allocate.
constexpr const char kLongMessage[] =
    "a precondition message long enough to need a heap buffer";

// ----------------------------------------------------- zero-cost success

TEST(CheckSuccess, CounterSeesAnAllocation) {
  // The harness is live: one heap string registers.
  static std::string* volatile sink = nullptr;
  EXPECT_GE(allocations_in([] {
              sink = new std::string(kLongMessage);
              delete sink;
            }),
            1);
  EXPECT_GE(allocations_in([] { (void)msg_cat(kLongMessage, 42); }), 1);
}

TEST(CheckSuccess, LiteralNumericAndShapePartsAllocateNothing) {
  const Shape shape = {2, 3, 32, 32};
  const std::string name = "a std::string part long enough to live on the heap";
  const int64_t dim = 7;
  const double ratio = 0.5;
  EXPECT_EQ(allocations_in([&] {
              check_arg(dim > 0, kLongMessage);
              check_arg(dim > 0, "dim ", dim, " of ", shape, " ratio ", ratio,
                        ' ', name);
              check_bounds(dim < 8, kLongMessage);
              check_bounds(dim < 8, "index ", dim, " out of range for ", shape);
            }),
            0);
}

TEST(CheckSuccess, TensorSizeAllocatesNothing) {
  const Tensor t({2, 3, 4, 5});
  int64_t total = 0;
  EXPECT_EQ(allocations_in([&] {
              for (int64_t i = -4; i < 4; ++i) total += t.size(i);
            }),
            0);
  EXPECT_EQ(total, 2 * (2 + 3 + 4 + 5));
}

TEST(CheckSuccess, ConvGeomValidateAllocatesNothing) {
  ConvGeom g;
  g.in_c = 16;
  g.in_h = g.in_w = 48;
  g.kernel_h = g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(allocations_in([&] { g.validate(); }), 0);
}

// A pre-formatted message would be built on every call; the helpers refuse
// std::string temporaries at compile time but take lvalues and literals.
static_assert(!detail::no_string_temporaries<std::string>);
static_assert(!detail::no_string_temporaries<const char (&)[3], const std::string>);
static_assert(detail::no_string_temporaries<const char (&)[3], std::string&>);
static_assert(detail::no_string_temporaries<const std::string&, int64_t>);

// ------------------------------------------------------ golden messages

TEST(CheckFailure, PartsFormatInOrder) {
  const Shape shape = {4, 1};
  const std::string name = "head0";
  EXPECT_EQ(failure_text<std::invalid_argument>([&] {
              check_arg(false, "layer ", name, ": dim ", int64_t{-3}, " of ",
                        shape, " at ", 'x', ", ratio ", 0.25);
            }),
            "layer head0: dim -3 of [4, 1] at x, ratio 0.25");
  EXPECT_EQ(failure_text<std::out_of_range>(
                [&] { check_bounds(false, "index ", size_t{9}, " past ", 8); }),
            "index 9 past 8");
}

TEST(CheckFailure, ShapePartPrintsAsShapeStr) {
  for (const Shape& s : {Shape{}, Shape{0}, Shape{2, 3}, Shape{-1, 7},
                         Shape{1, 16, 48, 48}, Shape{int64_t{1} << 40}}) {
    EXPECT_EQ(msg_cat(s), shape_str(s));
  }
  EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_str({}), "[]");
  EXPECT_EQ(shape_str({int64_t{1} << 40, -5}), "[1099511627776, -5]");
}

TEST(CheckFailure, TensorSizeOutOfRange) {
  const Tensor t({2, 3});
  EXPECT_EQ(failure_text<std::out_of_range>([&] { (void)t.size(5); }),
            "Tensor::size: dim 5 out of range for [2, 3]");
  EXPECT_EQ(failure_text<std::out_of_range>([&] { (void)t.size(-3); }),
            "Tensor::size: dim -1 out of range for [2, 3]");
}

TEST(CheckFailure, ConvGeomEmptyOutput) {
  ConvGeom g;
  g.in_c = 1;
  g.in_h = 2;
  g.in_w = 3;
  g.kernel_h = 5;
  g.kernel_w = 4;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(failure_text<std::invalid_argument>([&] { g.validate(); }),
            "ConvGeom: empty output for input 2x3 kernel 5x4 stride 1 pad 1");
}

TEST(CheckFailure, SliceBatchBadRange) {
  const Tensor t({4, 3});
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)ops::slice_batch(t, 3, 5); }),
            "slice_batch: bad range [3, 5) for [4, 3]");
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)ops::slice_batch(t, 2, 2); }),
            "slice_batch: bad range [2, 2) for [4, 3]");
}

TEST(CheckFailure, ShapeCarryingMismatches) {
  const Tensor a({2, 3}), b({3, 2});
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)ops::add(a, b); }),
            "add: shape mismatch [2, 3] vs [3, 2]");
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)ops::matmul(a, a); }),
            "matmul: inner dims differ, [2, 3] vs [2, 3]");
  Rng rng(1);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng);
  const Tensor x({1, 2, 8, 8});
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)conv.forward(x); }),
            "Conv2d: expected [N, 3, H, W], got [1, 2, 8, 8]");
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)Tensor({2, 2}, std::vector<float>(3)); }),
            "Tensor: data size 3 does not match shape [2, 2]");
}

TEST(CheckFailure, ExplicitThrowKeepsLayerName) {
  nn::ReLU relu;
  (void)relu.forward(Tensor({2, 3}));
  EXPECT_EQ(failure_text<std::invalid_argument>(
                [&] { (void)relu.backward(Tensor({3, 2})); }),
            "ReLU::backward: gradient shape mismatch");
}

}  // namespace
}  // namespace mtlsplit
