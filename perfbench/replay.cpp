#include "replay.hpp"

#include <algorithm>

#include "graph/executor.hpp"
#include "sc/deployment.hpp"
#include "tensor/serialize.hpp"
#include "stats.hpp"
#include "tensor/tensor_ops.hpp"

namespace perfbench {

namespace {

/// Times one call, records it as a span under @p parent, returns its
/// duration in microseconds.
template <class Fn>
double timed(SpanStore* spans, const char* name, int64_t parent, Fn&& fn) {
  const int64_t t0 = now_ns();
  fn();
  const int64_t t1 = now_ns();
  if (spans) spans->add(name, t0, t1, parent);
  return 1e-3 * static_cast<double>(t1 - t0);
}

Tensor batch_of(const std::vector<Tensor>& pool, size_t first, int64_t b) {
  std::vector<Tensor> parts;
  for (int64_t i = 0; i < b; ++i)
    parts.push_back(pool[(first + static_cast<size_t>(i)) % pool.size()]);
  return b == 1 ? parts[0] : ops::concat_batch(parts);
}

}  // namespace

ReplayResult replay(const WorkloadSpec& spec, uint64_t seed,
                    const std::vector<Tensor>& pool, int64_t batch,
                    int reps, SpanStore* spans) {
  ReplayResult out;
  const int64_t b = std::max<int64_t>(1, batch);
  auto model = make_model(spec);
  const Shape in1 = {1, 3, spec.image, spec.image};
  const bool int8 = spec.encoding == sc::ZbEncoding::kInt8;
  const bool coded = spec.codec != sc::WireCodec::kRaw;

  // --- graph: compile the plans ScDeployment would compile (exact mode).
  std::shared_ptr<const graph::CompiledPlan> bb_plan;
  std::vector<std::shared_ptr<const graph::CompiledPlan>> head_plans;
  std::vector<double> compile_ms;
  for (int c = 0; c < 3; ++c)
    compile_ms.push_back(1e-3 * timed(spans, "graph.compile", -1, [&] {
      bb_plan = graph::compile(model->backbone(), in1, {.exact = true});
      const Shape zb_in = model->backbone().output_shape(in1);
      head_plans.clear();
      for (size_t j = 0; j < model->num_tasks(); ++j)
        head_plans.push_back(
            graph::compile(model->head(j), zb_in, {.exact = true}));
    }));
  out.compile_ms = quantile(compile_ms, 0.5);
  graph::GraphExecutor bb(bb_plan);
  std::vector<graph::GraphExecutor> heads;
  for (auto& p : head_plans) heads.emplace_back(p);
  auto run_heads = [&](const Tensor& zb) {
    for (auto& h : heads) (void)h.run(zb);
  };

  sc::Channel base(channel_config(spec, seed));
  sc::Channel link = base.fork(1001);
  sc::Channel dep_link = base.fork(1002);
  sc::ScDeploymentConfig dep_cfg;
  dep_cfg.encoding = spec.encoding;
  dep_cfg.codec = spec.codec;
  sc::ScDeployment dep(*model, dep_link, sc::jetson_nano(),
                       sc::rtx3090_server(), dep_cfg);

  // Warm every path once (arena growth, first-touch pages).
  run_heads(bb.run(batch_of(pool, 0, b)));
  (void)dep.infer_batch(batch_of(pool, 0, b));

  std::vector<double> bb1, hd1, bbb, hdb, qz, ser, deser, enc, dec, tx, ib;
  int64_t raw_bytes = 0, framed_bytes = 0;
  double m_edge = 0.0, m_transfer = 0.0, m_server = 0.0;
  int64_t m_items = 0;
  const double per_img = 1.0 / static_cast<double>(b);
  for (int r = 0; r < reps; ++r) {
    const size_t first = static_cast<size_t>(r) * static_cast<size_t>(b);
    // Batch 1.
    const Tensor x1 = pool[first % pool.size()];
    Tensor zb1;
    bb1.push_back(timed(spans, "graph.backbone_b1", -1,
                        [&] { zb1 = bb.run(x1); }));
    hd1.push_back(timed(spans, "graph.heads_b1", -1, [&] { run_heads(zb1); }));

    // The replay batch, stage by stage.
    const Tensor xb = batch_of(pool, first, b);
    const int64_t root = spans ? spans->reserve(1) : -1;
    const int64_t t_root = now_ns();
    Tensor zb;
    bbb.push_back(per_img *
                  timed(spans, "graph.backbone", root, [&] { zb = bb.run(xb); }));
    double q = 0, s = 0, d = 0, e = 0, de = 0, t = 0;
    std::vector<Tensor> rows;
    for (int64_t i = 0; i < b; ++i) {
      const Tensor row = b == 1 ? zb : ops::slice_batch(zb, i, i + 1);
      std::vector<uint8_t> msg;
      if (int8) {
        sc::QuantizedTensor qt;
        q += timed(spans, "sc.quantize", root,
                   [&] { qt = sc::quantize_int8(row); });
        s += timed(spans, "tensor.serialize", root, [&] {
          msg = serialize_int8(qt.shape, qt.values, qt.scale, qt.zero_point);
        });
      } else {
        s += timed(spans, "tensor.serialize", root,
                   [&] { msg = serialize_tensor(row); });
      }
      raw_bytes += static_cast<int64_t>(msg.size());
      if (coded)
        e += timed(spans, "sc.codec.encode", root,
                   [&] { msg = sc::encode_frame(msg, spec.codec); });
      framed_bytes += static_cast<int64_t>(msg.size());
      std::vector<uint8_t> rx;
      t += timed(spans, "sc.link.transmit", root,
                 [&] { rx = link.transmit(std::move(msg)); });
      if (coded)
        de += timed(spans, "sc.codec.decode", root,
                    [&] { rx = sc::decode_frame(rx); });
      WireTensor wt;
      d += timed(spans, "tensor.deserialize", root,
                 [&] { wt = deserialize_tensor(rx); });
      if (int8) {
        q += timed(spans, "sc.dequantize", root, [&] {
          rows.push_back(sc::dequantize_int8(
              {wt.shape, std::move(wt.i8), wt.scale, wt.zero_point}));
        });
      } else {
        rows.push_back(std::move(wt.f32));
      }
    }
    const Tensor zrx = b == 1 ? rows[0] : ops::concat_batch(rows);
    hdb.push_back(per_img *
                  timed(spans, "graph.heads", root, [&] { run_heads(zrx); }));
    if (spans) spans->set(root, "replay.batch", t_root, now_ns(), -1, -1);
    qz.push_back(q * per_img);
    ser.push_back(s * per_img);
    deser.push_back(d * per_img);
    enc.push_back(e * per_img);
    dec.push_back(de * per_img);
    tx.push_back(t * per_img);

    // The same batch through the deployment's own entry point.
    sc::BatchResult br;
    ib.push_back(timed(spans, "sc.infer_batch", -1,
                       [&] { br = dep.infer_batch(xb); }));
    for (const sc::BatchItem& it : br.items) {
      m_edge += it.result.latency.edge_compute_s;
      m_transfer += it.result.latency.transfer_s;
      m_server += it.result.latency.server_compute_s;
      ++m_items;
    }
  }
  out.backbone_b1_us = quantile(bb1, 0.5);
  out.heads_b1_us = quantile(hd1, 0.5);
  out.backbone_us = quantile(bbb, 0.5);
  out.heads_us = quantile(hdb, 0.5);
  out.quantize_us = quantile(qz, 0.5);
  out.serialize_us = quantile(ser, 0.5);
  out.deserialize_us = quantile(deser, 0.5);
  out.encode_us = quantile(enc, 0.5);
  out.decode_us = quantile(dec, 0.5);
  out.transmit_us = quantile(tx, 0.5);
  out.infer_batch_us = quantile(ib, 0.5);
  out.stage_sum_us =
      static_cast<double>(b) *
      (out.backbone_us + out.heads_us + out.quantize_us + out.serialize_us +
       out.deserialize_us + out.encode_us + out.decode_us + out.transmit_us);
  out.codec_ratio = raw_bytes > 0 ? static_cast<double>(framed_bytes) /
                                        static_cast<double>(raw_bytes)
                                  : 1.0;
  if (m_items > 0) {
    const double n = static_cast<double>(m_items);
    out.model_edge_ms = 1e3 * m_edge / n;
    out.model_transfer_ms = 1e3 * m_transfer / n;
    out.model_server_ms = 1e3 * m_server / n;
  }
  return out;
}

}  // namespace perfbench
