// Load generation: one sender thread and one collector thread.
//
// The sender follows a seeded open-loop Poisson schedule (or, closed
// loop, refills a fixed in-flight window) and stamps when each request
// was due and how long submit() took. The collector stamps each request
// when its *own* future becomes ready: it sweeps every in-flight future
// and then blocks on the oldest one for at most kPollUs, so it never
// spins a core and a completion behind a slower head is stamped within
// one poll period. Every settled value is compared bitwise against its
// sequential reference.
#pragma once

#include <cstdint>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class Outcome : uint8_t { kValue, kRefused, kError, kLost };

struct RequestRecord {
  int64_t due_ns = 0;           ///< schedule time (closed loop: send time)
  int64_t submit_start_ns = 0;  ///< when submit() was entered
  int64_t submit_end_ns = 0;    ///< when submit() returned
  int64_t ready_ns = 0;         ///< when this request's future was ready
  Outcome outcome = Outcome::kLost;
};

struct PhaseConfig {
  bool closed = false;     ///< closed loop (window) vs open loop (rate)
  double rate_rps = 0.0;   ///< open loop
  size_t window = 1;       ///< closed loop
  double seconds = 1.0;    ///< sending stops after this long
  uint64_t seed = 1;       ///< schedule, tenant and image draws
  uint64_t tenants = 1;
  SpanStore* spans = nullptr;  ///< non-null: record request spans
};

struct PhaseResult {
  std::vector<RequestRecord> records;  ///< in settle order
  int64_t start_ns = 0;
  int64_t end_ns = 0;        ///< start + seconds (sending deadline)
  int64_t compared = 0;      ///< values checked against a reference
  int64_t mismatches = 0;    ///< values differing from their reference
  double collector_cpu_s = 0.0;  ///< the collector thread's own CPU time
  double process_cpu_s = 0.0;    ///< process user+sys CPU over the phase
  int64_t count(Outcome o) const;
};

/// True when every task's logits are bitwise equal.
bool same_logits(const sc::InferenceResult& a, const sc::InferenceResult& b);

/// Runs one load phase against @p target. Request k sends a copy of
/// pool[i] for a seeded draw i; its value must equal refs[i] bit for bit.
/// Returns once every request settled or the drain timeout marked the
/// rest lost.
PhaseResult run_phase(Target& target, const std::vector<Tensor>& pool,
                      const std::vector<sc::InferenceResult>& refs,
                      const PhaseConfig& cfg);

}  // namespace perfbench
