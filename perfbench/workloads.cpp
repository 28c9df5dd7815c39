#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 11;

// Rates, windows and latency limits are fixed constants; README.md
// records how they were chosen. Why each workload exists is in the
// README as well.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "serve-heavy",
       .backbone = models::BackboneKind::kMobileNetV3,
       .image = 16,
       .fleet = true,
       .replicas = 3,
       .batching = {.max_batch_size = 8, .max_wait_us = 500},
       .encoding = sc::ZbEncoding::kFloat32,
       .codec = sc::WireCodec::kRaw,
       .link = {},
       .tenants = 256,
       .rate_rps = 1500.0,
       .window = 48,
       .slo_ms = 12.0,
       .lanes = 1},
      {.name = "lossy-wire",
       .backbone = models::BackboneKind::kVgg16,
       .image = 48,
       .fleet = false,
       .replicas = 1,
       .batching = {.max_batch_size = 4, .max_wait_us = 1000},
       .encoding = sc::ZbEncoding::kInt8,
       .codec = sc::WireCodec::kEntropy,
       .link = {.mtu_bytes = 256,
                .loss_prob = 0.05f,
                .jitter_s = 0.0001,
                .max_retransmits = 8,
                .fec_data = 8,
                .fec_parity = 1},
       .tenants = 64,
       .rate_rps = 60.0,
       .window = 16,
       .slo_ms = 60.0,
       .lanes = 2},
  };
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : specs())
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

sc::ChannelConfig channel_config(const WorkloadSpec& spec, uint64_t seed) {
  sc::ChannelConfig cfg;
  cfg.bandwidth_bps = spec.link.enabled() ? 1e8 : 1e9;
  cfg.base_latency_s = 0.0002;
  cfg.seed = 0x5eed0000ull ^ seed;
  cfg.link = spec.link;
  return cfg;
}

std::unique_ptr<core::MtlSplitModel> make_model(const WorkloadSpec& spec) {
  Rng rng(kWeightSeed);
  core::ModelFactoryConfig cfg;
  cfg.backbone = spec.backbone;
  cfg.image_shape = {3, spec.image, spec.image};
  auto m = core::make_mtl_model(cfg, {{"scale", 8}, {"shape", 4}}, rng);
  m->set_training(false);
  return m;
}

Target::Target(const WorkloadSpec& spec, uint64_t seed) {
  serve::ServeConfig serve_cfg;
  serve_cfg.batching = spec.batching;
  serve_cfg.deployment.encoding = spec.encoding;
  serve_cfg.deployment.codec = spec.codec;

  models_.push_back(make_model(spec));
  if (spec.fleet) {
    fleet::FleetConfig cfg;
    cfg.nodes = spec.replicas;
    cfg.replicas_per_node = 1;
    cfg.serve = serve_cfg;
    cfg.data_link = channel_config(spec, seed);
    cfg.control_link.seed = seed + 1;
    const WorkloadSpec* s = &spec;
    cfg.make_replica = [s] { return make_model(*s); };
    fleet_ = std::make_unique<fleet::FleetRouter>(
        *models_[0], sc::jetson_nano(), sc::rtx3090_server(), cfg);
    return;
  }
  link_ = std::make_unique<sc::Channel>(channel_config(spec, seed));
  server_ = std::make_unique<serve::ScServer>(
      std::vector<core::MtlSplitModel*>{models_[0].get()}, *link_,
      sc::jetson_nano(), sc::rtx3090_server(), serve_cfg);
}

Target::~Target() { shutdown(); }

std::future<sc::InferenceResult> Target::submit(Tensor x, uint64_t client) {
  if (fleet_) {
    fleet::FleetSubmitOptions opts;
    opts.base.client_id = client;
    return fleet_->submit(std::move(x), opts);
  }
  return server_->submit(std::move(x), {.client_id = client});
}

void Target::shutdown() {
  if (fleet_) fleet_->shutdown();
  if (server_) server_->shutdown();
}

ServerCounters Target::counters() const {
  ServerCounters c;
  auto add = [&c](const serve::ScServer& s) {
    const serve::ServeStats st = s.stats();
    c.completed += st.completed;
    c.failed += st.failed;
    c.refused += st.rejected + st.shed + st.expired + st.throttled;
    c.batches += st.batches;
    c.stolen += st.stolen;
    c.wire_bytes += st.wire_bytes;
    c.retransmits += st.retransmits;
    c.fec_repaired += st.fec_repaired;
    c.undelivered += st.undelivered;
    c.server_p50_s += st.percentile(50);
  };
  if (server_) {
    add(*server_);
    return c;
  }
  const size_t n = fleet_->num_nodes();
  for (size_t k = 0; k < n; ++k) {
    add(fleet_->node_server(k));
    c.probes_missed += fleet_->telemetry_tree().counter_value(
        "fleet/node" + std::to_string(k) + "/probes_missed");
  }
  c.server_p50_s /= static_cast<double>(n);
  const fleet::FleetStats fs = fleet_->stats();
  c.fleet_submitted = fs.submitted;
  c.fleet_settled_value = fs.settled_value;
  c.fleet_settled_error = fs.settled_error;
  c.failovers = fs.failovers;
  return c;
}

}  // namespace perfbench
