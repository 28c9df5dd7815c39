// The benchmark's workloads and the system each one drives.
//
// Every workload is one fixed configuration of the public serving API
// (ScServer or FleetRouter), a fixed runtime pool size and a fixed offered
// load. The open-loop rate is a quarter to a fifth of the closed-loop
// capacity the unmodified library reached on the reference host
// (README.md); it is a constant, never re-calibrated per run, so a faster
// program meets the same offered load.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "mtl/model_factory.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace mtlsplit;

struct WorkloadSpec {
  std::string name;
  models::BackboneKind backbone;
  int64_t image;           ///< square input side (pixels)
  bool fleet;              ///< FleetRouter (nodes x 1 replica) vs ScServer
  size_t replicas;         ///< fleet nodes; an ScServer has one replica
  serve::BatchingPolicy batching;
  sc::ZbEncoding encoding;
  sc::WireCodec codec;
  sc::LinkModel link;      ///< packetised link; disabled = clean link
  uint64_t tenants;        ///< distinct client ids the load draws from
  double rate_rps;         ///< open-loop offered rate
  size_t window;           ///< closed-loop in-flight window
  double slo_ms;           ///< latency limit of slo_frac
  int lanes;               ///< runtime pool lanes
};

/// Null when @p name is not a workload.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Channel configuration of the workload's data link. Link randomness
/// (loss, jitter) derives from the run seed.
sc::ChannelConfig channel_config(const WorkloadSpec& spec, uint64_t seed);

/// Builds one model of the workload's architecture. Weights come from a
/// fixed seed, so every run serves the same network whatever its seed.
std::unique_ptr<core::MtlSplitModel> make_model(const WorkloadSpec& spec);

/// Serving-side counters, summed over every server of the target.
struct ServerCounters {
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t refused = 0;  ///< rejected + shed + expired + throttled
  int64_t batches = 0;
  int64_t stolen = 0;
  int64_t wire_bytes = 0;
  int64_t retransmits = 0;
  int64_t fec_repaired = 0;
  int64_t undelivered = 0;
  double server_p50_s = 0.0;  ///< mean over servers of their own p50
  // Fleet only.
  int64_t fleet_submitted = 0;
  int64_t fleet_settled_value = 0;
  int64_t fleet_settled_error = 0;
  int64_t failovers = 0;
  int64_t probes_missed = 0;
};

/// The system under load: the workload's replicas behind one ScServer or
/// one FleetRouter.
class Target {
 public:
  Target(const WorkloadSpec& spec, uint64_t seed);
  ~Target();
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  std::future<sc::InferenceResult> submit(Tensor x, uint64_t client);
  ServerCounters counters() const;
  /// Drains and stops the server(s); counters are final afterwards.
  void shutdown();

 private:
  std::vector<std::unique_ptr<core::MtlSplitModel>> models_;
  std::unique_ptr<sc::Channel> link_;
  std::unique_ptr<serve::ScServer> server_;
  std::unique_ptr<fleet::FleetRouter> fleet_;
};

}  // namespace perfbench
