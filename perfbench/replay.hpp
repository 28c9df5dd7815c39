// Stage replay: after the load phases, the workload's own inputs are run
// through the public stage functions one by one — graph::compile and
// GraphExecutor::run (exact mode, as ScDeployment uses them), quantise,
// serialise, entropy code, Channel::transmit on a fork of the workload's
// link, decode, deserialise — and once more through
// ScDeployment::infer_batch, at the mean batch size the server formed.
// Each call is timed from outside the library; a stage the workload's
// configuration does not run reports 0.
#pragma once

#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ReplayResult {
  double compile_ms = 0.0;    ///< backbone + heads plans, median compile
  // Medians over repetitions, per image.
  double backbone_b1_us = 0.0;
  double backbone_us = 0.0;   ///< at the replay batch size
  double heads_b1_us = 0.0;
  double heads_us = 0.0;      ///< at the replay batch size
  double quantize_us = 0.0;   ///< quantize_int8 + dequantize_int8
  double serialize_us = 0.0;
  double deserialize_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double transmit_us = 0.0;
  // Per batch.
  double infer_batch_us = 0.0;
  double stage_sum_us = 0.0;  ///< batch x the per-image stage medians
  double codec_ratio = 1.0;   ///< framed bytes / serialised bytes
  // The paper's §4.2 analytic LatencyBreakdown (modelled, per image).
  double model_edge_ms = 0.0;
  double model_transfer_ms = 0.0;
  double model_server_ms = 0.0;
};

ReplayResult replay(const WorkloadSpec& spec, uint64_t seed,
                    const std::vector<Tensor>& pool, int64_t batch,
                    int reps, SpanStore* spans);

}  // namespace perfbench
