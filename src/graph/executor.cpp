#include "graph/executor.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "graph/passes.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace mtlsplit::graph {

namespace {

// Grain sizes matching the eager layers (activations.cpp, pooling.cpp);
// chunk boundaries never affect values — every kernel below writes each
// output element from a fixed per-element instruction stream — but keeping
// them identical keeps the scheduling behaviour comparable too.
constexpr int64_t kActGrain = 1 << 15;
constexpr int64_t kPlaneGrain = 8;

/// The eager layers' scalar activation functions, expression for
/// expression (activations.cpp) — this is what keeps fused epilogues
/// bitwise identical to a separate activation sweep.
inline float apply_act(ActFn fn, float x) {
  switch (fn) {
    case ActFn::kNone:
      return x;
    case ActFn::kReLU:
      return x > 0.0f ? x : 0.0f;
    case ActFn::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case ActFn::kHardSigmoid:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return 1.0f;
      return x / 6.0f + 0.5f;
    case ActFn::kHardSwish:
      if (x <= -3.0f) return 0.0f;
      if (x >= 3.0f) return x;
      return x * (x + 3.0f) / 6.0f;
    case ActFn::kSiLU:
      return x / (1.0f + std::exp(-x));
  }
  return x;
}

// Epilogue sweeps with the activation resolved before the loop: `fn` is a
// template argument, so apply_act's switch constant-folds away and the
// per-element body vectorizes (a runtime `fn` inside the loop keeps the
// switch live per element and forces scalar code). Values are unchanged —
// same formula, same order — only the dispatch moves out of the loop.
template <ActFn fn>
void act_map_loop(const float* x, float* o, int64_t n) {
  for (int64_t j = 0; j < n; ++j) o[j] = apply_act(fn, x[j]);
}

inline void act_map(ActFn fn, const float* x, float* o, int64_t n) {
  switch (fn) {
    case ActFn::kNone:
      if (o != x) std::memcpy(o, x, static_cast<size_t>(n) * sizeof(float));
      return;
    case ActFn::kReLU:
      return act_map_loop<ActFn::kReLU>(x, o, n);
    case ActFn::kSigmoid:
      return act_map_loop<ActFn::kSigmoid>(x, o, n);
    case ActFn::kHardSigmoid:
      return act_map_loop<ActFn::kHardSigmoid>(x, o, n);
    case ActFn::kHardSwish:
      return act_map_loop<ActFn::kHardSwish>(x, o, n);
    case ActFn::kSiLU:
      return act_map_loop<ActFn::kSiLU>(x, o, n);
  }
}

// Eval-BN per-channel affine with an optional fused activation, one pass.
template <ActFn fn>
void bn_affine_loop(const float* x, float* o, int64_t n, float ga, float mean,
                    float inv_std, float be) {
  for (int64_t j = 0; j < n; ++j)
    o[j] = apply_act(fn, ga * (x[j] - mean) * inv_std + be);
}

inline void bn_affine_act(ActFn fn, const float* x, float* o, int64_t n,
                          float ga, float mean, float inv_std, float be) {
  switch (fn) {
    case ActFn::kNone:
      return bn_affine_loop<ActFn::kNone>(x, o, n, ga, mean, inv_std, be);
    case ActFn::kReLU:
      return bn_affine_loop<ActFn::kReLU>(x, o, n, ga, mean, inv_std, be);
    case ActFn::kSigmoid:
      return bn_affine_loop<ActFn::kSigmoid>(x, o, n, ga, mean, inv_std, be);
    case ActFn::kHardSigmoid:
      return bn_affine_loop<ActFn::kHardSigmoid>(x, o, n, ga, mean, inv_std,
                                                 be);
    case ActFn::kHardSwish:
      return bn_affine_loop<ActFn::kHardSwish>(x, o, n, ga, mean, inv_std, be);
    case ActFn::kSiLU:
      return bn_affine_loop<ActFn::kSiLU>(x, o, n, ga, mean, inv_std, be);
  }
}

}  // namespace

std::shared_ptr<const CompiledPlan> compile(nn::Sequential& seq,
                                            const Shape& input_shape,
                                            const CompileOptions& options) {
  Graph g = lower(seq, input_shape);
  PassManager pm;
  pm.add(std::make_unique<EliminateDeadLayers>());
  if (!options.exact) pm.add(std::make_unique<FoldBatchNorm>());
  pm.add(std::make_unique<FuseActivation>());
  pm.add(std::make_unique<PlanWorkspace>());
  std::vector<PassReport> reports = pm.run(g);
  return std::make_shared<CompiledPlan>(std::move(g), std::move(reports),
                                        options);
}

// ------------------------------------------------------------ GraphExecutor

GraphExecutor::GraphExecutor(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)) {
  check_arg(plan_ != nullptr, "GraphExecutor: null plan");
}

float* GraphExecutor::value_ptr(int value_id, int64_t batch) {
  const Value& v = plan_->graph().values[static_cast<size_t>(value_id)];
  check_arg(v.offset >= 0, "GraphExecutor: value ", v.name,
            " was never planned");
  return arena_.data() + v.offset * batch;
}

Tensor GraphExecutor::run(const Tensor& x) {
  const Graph& g = plan_->graph();
  check_arg(x.dim() == static_cast<int64_t>(g.input_shape.size()),
            "GraphExecutor::run: input rank mismatch");
  for (size_t d = 1; d < g.input_shape.size(); ++d)
    check_arg(x.size(static_cast<int64_t>(d)) == g.input_shape[d],
              "GraphExecutor::run: input dim ", d, " is ",
              x.size(static_cast<int64_t>(d)), ", compiled for ",
              g.input_shape[d]);
  const int64_t nb = x.size(0);
  check_arg(nb >= 1, "GraphExecutor::run: empty batch");

  const size_t need = static_cast<size_t>(g.arena_per_sample * nb +
                                          g.conv_scratch_per_sample);
  if (arena_.size() < need) arena_.resize(need);
  if (taps_.size() < static_cast<size_t>(g.dw_tap_ints))
    taps_.resize(static_cast<size_t>(g.dw_tap_ints));

  std::memcpy(value_ptr(g.input, nb), x.data(),
              static_cast<size_t>(x.numel()) * sizeof(float));

  for (size_t i = 0; i < g.nodes.size(); ++i) {
    exec_node(g.nodes[i], nb);
    if (poison_dead_) {
      // A value whose last reader was node i is dead from here on: flood
      // its slot so any later read (an aliasing bug in the planner or a
      // kernel) turns the output into NaN instead of silently reusing
      // stale bytes.
      for (size_t v = 0; v < g.values.size(); ++v) {
        const Value& val = g.values[v];
        if (val.offset < 0 || val.last_use != static_cast<int>(i)) continue;
        float* p = arena_.data() + val.offset * nb;
        std::fill(p, p + val.elems * nb,
                  std::numeric_limits<float>::quiet_NaN());
      }
    }
  }

  const Value& out_v = g.values[static_cast<size_t>(g.output)];
  const float* po = value_ptr(g.output, nb);
  std::vector<float> buf(po, po + out_v.elems * nb);
  return Tensor(plan_->output_shape(nb), std::move(buf));
}

void GraphExecutor::exec_node(const Node& node, int64_t nb) {
  const Graph& g = plan_->graph();
  const float* px = value_ptr(node.inputs[0], nb);
  float* po = value_ptr(node.output, nb);

  switch (node.kind) {
    case OpKind::kConv2d: {
      const int64_t in_stride = node.in_c * node.in_h * node.in_w;
      const int64_t out_stride = node.out_c * node.out_h * node.out_w;
      const float* pw = g.consts[static_cast<size_t>(node.weight)].data();
      const float* pb =
          node.bias >= 0 ? g.consts[static_cast<size_t>(node.bias)].data()
                         : nullptr;
      ConvGeom geom;
      geom.in_c = node.in_c;
      geom.in_h = node.in_h;
      geom.in_w = node.in_w;
      geom.kernel_h = node.kernel;
      geom.kernel_w = node.kernel;
      geom.stride = node.stride;
      geom.pad = node.pad;
      const ActFn act = node.act;
      // The eager layer's per-sample routine, then the fused activation.
      auto sample = [&](int64_t i, float* cols) {
        float* yout = po + i * out_stride;
        conv2d_sample(px + i * in_stride, geom, node.out_c, pw, pb, cols,
                      yout);
        act_map(act, yout, yout, out_stride);
      };
      if (nb == 1 || runtime::num_threads() == 1) {
        // Serial over samples: the patch matrix comes from the plan's own
        // arena (the statically planned scratch region), and im2col and the
        // GEMM parallelize internally instead.
        float* cols = arena_.data() + g.arena_per_sample * nb;
        for (int64_t i = 0; i < nb; ++i) sample(i, cols);
      } else {
        // Batch-parallel lanes each need a private patch matrix; lanes use
        // their thread-local workspace exactly like the eager layer.
        runtime::parallel_for(0, nb, 1, [&](int64_t lo, int64_t hi) {
          float* cols = runtime::tls_workspace().floats(
              runtime::Workspace::kIm2col, conv_scratch_size(geom));
          for (int64_t i = lo; i < hi; ++i) sample(i, cols);
        });
      }
      break;
    }

    case OpKind::kDepthwiseConv2d: {
      const int64_t k = node.kernel, oh = node.out_h, ow = node.out_w;
      const int64_t channels = node.in_c;
      const int64_t h = node.in_h, w = node.in_w;
      const float* pw = g.consts[static_cast<size_t>(node.weight)].data();
      const float* pb =
          node.bias >= 0 ? g.consts[static_cast<size_t>(node.bias)].data()
                         : nullptr;
      // Precompute the in-bounds taps once per node — the (kh, kw) walk
      // with its boundary skips is identical for every (sample, channel)
      // plane, so the inner loop below replays taps in the exact eager
      // accumulation order without re-testing bounds 9x per output. The
      // table lives in the planned int scratch and is read-only by the
      // time the parallel lanes start.
      int32_t* tt = taps_.data();
      int64_t pos = 0;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xx = 0; xx < ow; ++xx) {
          const int64_t cnt_at = pos++;
          int32_t cnt = 0;
          for (int64_t kh = 0; kh < k; ++kh) {
            const int64_t iy = y * node.stride + kh - node.pad;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t ix = xx * node.stride + kw - node.pad;
              if (ix < 0 || ix >= w) continue;
              tt[pos++] = static_cast<int32_t>(kh * k + kw);
              tt[pos++] = static_cast<int32_t>(iy * w + ix);
              cnt++;
            }
          }
          tt[cnt_at] = cnt;
        }
      }
      const ActFn act = node.act;
      runtime::parallel_for(
          0, nb * channels, 4, [&](int64_t lo, int64_t hi) {
            for (int64_t p = lo; p < hi; ++p) {
              const int64_t c = p % channels;
              const float* plane = px + p * h * w;
              const float* kern = pw + c * k * k;
              float* oplane = po + p * oh * ow;
              const float b = pb ? pb[c] : 0.0f;
              const int32_t* t = tt;
              for (int64_t o = 0; o < oh * ow; ++o) {
                float acc = b;
                int32_t cnt = *t++;
                for (int32_t j = 0; j < cnt; ++j, t += 2)
                  acc += kern[t[0]] * plane[t[1]];
                oplane[o] = act == ActFn::kNone ? acc : apply_act(act, acc);
              }
            }
          });
      break;
    }

    case OpKind::kBatchNorm2d: {
      const int64_t channels = node.in_c, plane = node.in_h * node.in_w;
      const float* pgamma = g.consts[static_cast<size_t>(node.bn_gamma)].data();
      const float* pbeta = g.consts[static_cast<size_t>(node.bn_beta)].data();
      const float* pmean = g.consts[static_cast<size_t>(node.bn_mean)].data();
      const float* pvar = g.consts[static_cast<size_t>(node.bn_var)].data();
      const float eps = node.eps;
      const ActFn act = node.act;
      runtime::parallel_for(0, channels, 1, [&](int64_t clo, int64_t chi) {
        for (int64_t c = clo; c < chi; ++c) {
          const float inv_std = 1.0f / std::sqrt(pvar[c] + eps);
          const float mean = pmean[c];
          const float ga = pgamma[c], be = pbeta[c];
          for (int64_t i = 0; i < nb; ++i) {
            const float* p = px + (i * channels + c) * plane;
            float* po_c = po + (i * channels + c) * plane;
            bn_affine_act(act, p, po_c, plane, ga, mean, inv_std, be);
          }
        }
      });
      break;
    }

    case OpKind::kActivation: {
      const int64_t total =
          g.values[static_cast<size_t>(node.output)].elems * nb;
      const ActFn act = node.act;
      runtime::parallel_for(0, total, kActGrain, [&](int64_t lo, int64_t hi) {
        act_map(act, px + lo, po + lo, hi - lo);
      });
      break;
    }

    case OpKind::kMaxPool2d: {
      const int64_t h = node.in_h, w = node.in_w;
      const int64_t oh = node.out_h, ow = node.out_w;
      const int64_t k = node.kernel, stride = node.stride;
      runtime::parallel_for(
          0, nb * node.in_c, kPlaneGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float* plane = px + i * h * w;
              float* oplane = po + i * oh * ow;
              for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xx = 0; xx < ow; ++xx) {
                  float best = -std::numeric_limits<float>::infinity();
                  for (int64_t kh = 0; kh < k; ++kh) {
                    const int64_t iy = y * stride + kh;
                    for (int64_t kw = 0; kw < k; ++kw) {
                      const float v = plane[iy * w + xx * stride + kw];
                      if (v > best) best = v;
                    }
                  }
                  oplane[y * ow + xx] = best;
                }
              }
            }
          });
      break;
    }

    case OpKind::kAvgPool2d: {
      const int64_t h = node.in_h, w = node.in_w;
      const int64_t oh = node.out_h, ow = node.out_w;
      const int64_t k = node.kernel, stride = node.stride;
      const float inv = 1.0f / static_cast<float>(k * k);
      runtime::parallel_for(
          0, nb * node.in_c, kPlaneGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float* plane = px + i * h * w;
              float* oplane = po + i * oh * ow;
              for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xx = 0; xx < ow; ++xx) {
                  float acc = 0.0f;
                  for (int64_t kh = 0; kh < k; ++kh)
                    for (int64_t kw = 0; kw < k; ++kw)
                      acc += plane[(y * stride + kh) * w + xx * stride + kw];
                  oplane[y * ow + xx] = acc * inv;
                }
              }
            }
          });
      break;
    }

    case OpKind::kGlobalAvgPool: {
      const int64_t plane = node.in_h * node.in_w;
      const float inv = 1.0f / static_cast<float>(plane);
      runtime::parallel_for(
          0, nb * node.in_c, kPlaneGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              double acc = 0.0;
              const float* p = px + i * plane;
              for (int64_t j = 0; j < plane; ++j) acc += p[j];
              po[i] = static_cast<float>(acc) * inv;
            }
          });
      break;
    }

    case OpKind::kLinear: {
      const float* pw = g.consts[static_cast<size_t>(node.weight)].data();
      ops::detail::gemm_nt(nb, node.in_c, node.out_c, px, pw, po);
      if (node.bias >= 0) {
        const float* pb = g.consts[static_cast<size_t>(node.bias)].data();
        for (int64_t i = 0; i < nb; ++i) {
          float* row = po + i * node.out_c;
          for (int64_t j = 0; j < node.out_c; ++j) row[j] += pb[j];
        }
      }
      if (node.act != ActFn::kNone)
        act_map(node.act, po, po, nb * node.out_c);
      break;
    }

    case OpKind::kAdd: {
      const float* pr = value_ptr(node.inputs[1], nb);
      const int64_t total =
          g.values[static_cast<size_t>(node.output)].elems * nb;
      runtime::parallel_for(0, total, kActGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = px[i] + pr[i];
      });
      break;
    }

    case OpKind::kChannelScale: {
      const float* ps = value_ptr(node.inputs[1], nb);  // [N, C] gate
      const int64_t plane = node.in_h * node.in_w;
      runtime::parallel_for(
          0, nb * node.in_c, kPlaneGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float sv = ps[i];
              const float* p = px + i * plane;
              float* o = po + i * plane;
              for (int64_t j = 0; j < plane; ++j) o[j] = p[j] * sv;
            }
          });
      break;
    }

    case OpKind::kIdentity: {
      // Only reachable when the pass pipeline was bypassed; a plain copy.
      const int64_t total =
          g.values[static_cast<size_t>(node.output)].elems * nb;
      std::memcpy(po, px, static_cast<size_t>(total) * sizeof(float));
      break;
    }
  }
}

// ---------------------------------------------------------------- PlanCache

std::shared_ptr<const CompiledPlan> PlanCache::get_or_compile(
    const std::string& key, nn::Sequential& seq, const Shape& input_shape,
    const CompileOptions& options) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) return it->second;
  auto plan = compile(seq, input_shape, options);
  plans_.emplace(key, plan);
  return plan;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return plans_.size();
}

// ----------------------------------------------------------------- dump_dot

std::string dump_dot(const CompiledPlan& plan) {
  const Graph& g = plan.graph();
  std::ostringstream out;
  out << "digraph plan {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n"
      << "  input [shape=ellipse, label=\"input "
      << shape_str(g.input_shape) << "\"];\n";
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    const Value& ov = g.values[static_cast<size_t>(n.output)];
    out << "  n" << i << " [label=\"" << n.label << "\\n" << op_kind_name(n.kind);
    if (n.kernel > 0)
      out << " k" << n.kernel << " s" << n.stride << " p" << n.pad;
    if (n.kind == OpKind::kActivation || n.act != ActFn::kNone)
      out << (n.kind == OpKind::kActivation ? " " : " + ")
          << act_fn_name(n.act);
    out << "\\n" << shape_str(ov.shape) << " @" << ov.offset << "\"];\n";
    for (int in : n.inputs) {
      const Value& iv = g.values[static_cast<size_t>(in)];
      if (iv.def >= 0)
        out << "  n" << iv.def << " -> n" << i << ";\n";
      else
        out << "  input -> n" << i << ";\n";
    }
  }
  const Value& outv = g.values[static_cast<size_t>(g.output)];
  out << "  output [shape=ellipse, label=\"output "
      << shape_str(g.output_shape) << "\"];\n";
  if (outv.def >= 0) out << "  n" << outv.def << " -> output;\n";
  else out << "  input -> output;\n";
  out << "}\n";
  return out.str();
}

}  // namespace mtlsplit::graph
