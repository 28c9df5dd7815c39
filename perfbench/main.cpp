// perfbench — the repository benchmark binary (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// One run: keep every core awake with idle spinners, build the workload's
// inputs from the seed, compute sequential references, set the target up
// several times (setup_s is the median), warm it, then alternate open-loop
// segments at the workload's fixed rate with closed-loop segments at its
// fixed window; each timing metric is a median over segments. --trace 1
// additionally records spans in every other open segment (the p50
// difference to the untraced ones is the tracing overhead), replays the
// stages, and reports the per-layer metrics. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is
// non-zero on a bitwise mismatch, a lost future or a settlement imbalance.
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/shapes3d.hpp"
#include "load.hpp"
#include "replay.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/deployment.hpp"
#include "serve/telemetry.hpp"
#include "stats.hpp"
#include "tensor/tensor_ops.hpp"

using namespace perfbench;

namespace {

/// Warm-up cycles (one open and one closed segment each) before any
/// timing: under load the program takes several seconds, including some
/// closed-loop bursts, to reach a steady speed (README.md).
constexpr int kWarmupCycles = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 41;
/// Measured segment lengths. A run alternates them, so each metric's
/// median over segments spans the whole run.
constexpr double kOpenSegmentSeconds = 1.0;
constexpr double kClosedSegmentSeconds = 0.5;
/// Repetitions of each replayed stage.
constexpr int kReplayReps = 40;

/// One lowest-priority (SCHED_IDLE) spinning child process per core for
/// the whole run, so no vCPU of a virtual host halts while idle. Waking a
/// halted vCPU goes through the hypervisor, and while the physical host is
/// busy that took milliseconds: every sleep/wake hand-off in the serving
/// path then slowed for minutes at a time, and alternating runs with and
/// without the spinners showed their latency spread apart (README.md). A
/// woken program thread preempts a spinner at once; the spinners' CPU time
/// is not the benchmark process's own (cpu_ms_per_req). The children die
/// with the process (PR_SET_PDEATHSIG) and are reaped on exit.
class KeepAwake {
 public:
  explicit KeepAwake(int n) {
    const pid_t parent = getpid();
    for (int i = 0; i < n; ++i) {
      const pid_t pid = fork();
      if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) _exit(0);
        sched_param sp{};
        sched_setscheduler(0, SCHED_IDLE, &sp);
        for (;;) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#else
          asm volatile("" ::: "memory");
#endif
        }
      }
      if (pid > 0) pids_.push_back(pid);
    }
  }
  ~KeepAwake() {
    for (pid_t p : pids_) kill(p, SIGKILL);
    for (pid_t p : pids_) waitpid(p, nullptr, 0);
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  int count() const { return static_cast<int>(pids_.size()); }

 private:
  std::vector<pid_t> pids_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      a.trace = v[0] == '1';
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct PoolCounters {
  int64_t tasks = 0, chunks = 0, serial = 0;
};
PoolCounters pool_counters() {
  const auto& g = mtlsplit::telemetry::global();
  auto read = [&g](const char* path) {
    const auto* c = g.find_counter(path);
    return c ? c->value() : 0;
  };
  return {read("runtime/pool/tasks"), read("runtime/pool/chunks"),
          read("runtime/pool/serial")};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  return "unknown";
}

/// HEAD of the git checkout the run starts in; "none" outside one.
std::string git_sha() {
  std::string sha;
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p)) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "none" : sha;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fingerprint(const Args& a, const WorkloadSpec& spec,
                        int spinners) {
  const char* env = std::getenv("MTLSPLIT_NUM_THREADS");
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu\": \"%s\", \"nproc\": %d, \"runtime_threads\": %d, "
      "\"MTLSPLIT_NUM_THREADS\": %s%s%s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s, \"offered_rps\": %g, \"window\": %zu, \"slo_ms\": %g, "
      "\"idle_spinners\": %d}",
      json_escape(cpu_model()).c_str(), nproc(),
      mtlsplit::runtime::num_threads(), env ? "\"" : "",
      env ? json_escape(env).c_str() : "null", env ? "\"" : "",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      json_escape(git_sha()).c_str(),
      spec.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.smoke ? "true" : "false", spec.rate_rps, spec.window,
      spec.slo_ms, spinners);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Segments = std::vector<const PhaseResult*>;

std::vector<double> value_latencies_ms(const Segments& segs) {
  std::vector<double> v;
  for (const PhaseResult* p : segs)
    for (const RequestRecord& r : p->records)
      if (r.outcome == Outcome::kValue)
        v.push_back(1e-6 * static_cast<double>(r.ready_ns - r.due_ns));
  return v;
}

/// Median over segments of each segment's @p q latency quantile. A slow
/// spell of the host moves a few segments, not the median.
double segment_latency_ms(const Segments& segs, double q) {
  std::vector<double> per_segment;
  for (const PhaseResult* p : segs) {
    const std::vector<double> lat = value_latencies_ms({p});
    if (!lat.empty()) per_segment.push_back(quantile(lat, q));
  }
  return quantile(per_segment, 0.5);
}

/// Median over segments of the values that settled before the segment's
/// sending deadline, per second from the segment's start to the last of
/// them. Values settle a batch at a time, so counting them against the
/// full segment would step the rate by a batch per segment.
double segment_throughput_rps(const Segments& segs) {
  std::vector<double> per_segment;
  for (const PhaseResult* p : segs) {
    int64_t n = 0, last_ns = p->start_ns;
    for (const RequestRecord& r : p->records)
      if (r.outcome == Outcome::kValue && r.ready_ns < p->end_ns) {
        ++n;
        last_ns = std::max(last_ns, r.ready_ns);
      }
    per_segment.push_back(
        ratio(n, 1e-9 * static_cast<double>(last_ns - p->start_ns)));
  }
  return quantile(per_segment, 0.5);
}

/// Median over segments of the share of requests sent that settled with
/// a value within @p limit_ms; failures and refusals count as misses.
double segment_slo_frac(const Segments& segs, double limit_ms) {
  std::vector<double> per_segment;
  for (const PhaseResult* p : segs) {
    int64_t within = 0;
    for (const RequestRecord& r : p->records)
      within += r.outcome == Outcome::kValue &&
                1e-6 * static_cast<double>(r.ready_ns - r.due_ns) <= limit_ms;
    if (!p->records.empty())
      per_segment.push_back(
          ratio(within, static_cast<double>(p->records.size())));
  }
  return quantile(per_segment, 0.5);
}

/// Median over segments of process CPU time per request sent, in ms.
double segment_cpu_ms_per_req(const Segments& segs) {
  std::vector<double> per_segment;
  for (const PhaseResult* p : segs)
    if (!p->records.empty())
      per_segment.push_back(1e3 * p->process_cpu_s /
                            static_cast<double>(p->records.size()));
  return quantile(per_segment, 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* found = find_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *found;
  // Forked before the runtime pool starts its threads.
  const KeepAwake awake(nproc());
  // The workload's pool size, unless MTLSPLIT_NUM_THREADS sets one.
  if (!std::getenv("MTLSPLIT_NUM_THREADS"))
    mtlsplit::runtime::set_num_threads(spec.lanes);
  const std::string fp = fingerprint(args, spec, awake.count());
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("fingerprint %s\n", fp.c_str());

  // --- Inputs: Shapes3D T1/T2 images drawn from the workload seed.
  const int64_t pool_size = args.smoke ? 8 : 32;
  data::Shapes3dConfig dc;
  dc.count = pool_size;
  dc.image_size = spec.image;
  dc.seed = splitmix(args.seed);
  const data::MultiTaskDataset ds = data::make_shapes3d_t1t2(dc);
  std::vector<Tensor> pool;
  for (int64_t i = 0; i < pool_size; ++i)
    pool.push_back(ops::slice_batch(ds.images(), i, i + 1));

  // --- Sequential references, before any timing. A lossy workload's
  // reference is the clean int8 path: no codec, no loss.
  std::vector<sc::InferenceResult> refs;
  {
    auto model = make_model(spec);
    sc::ChannelConfig clean_cfg;
    sc::Channel clean(clean_cfg);
    sc::ScDeploymentConfig ref_cfg;
    ref_cfg.encoding = spec.encoding;
    sc::ScDeployment ref(*model, clean, sc::jetson_nano(),
                         sc::rtx3090_server(), ref_cfg);
    for (const Tensor& x : pool) refs.push_back(ref.infer(x));
  }

  bool correct = true;
  auto fail = [&correct](const char* what) {
    std::printf("CHECK FAILED: %s\n", what);
    correct = false;
  };

  // --- Setup, repeated: model build, weight copy, boot, and the first
  // request until it settles (plan compile, pool spin-up). setup_s is
  // the median; the last target stays up for the load.
  std::vector<double> setup_s;
  std::unique_ptr<Target> target;
  for (int s = 0; s < (args.smoke ? 1 : kSetups); ++s) {
    target.reset();
    const int64_t t0 = now_ns();
    target = std::make_unique<Target>(spec, args.seed);
    try {
      const sc::InferenceResult first = target->submit(pool[0], 0).get();
      setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
      if (!same_logits(first, refs[0]))
        fail("setup request differs from its reference");
    } catch (const std::exception&) {
      fail("setup request failed");
    }
  }
  // The last setup's request is the first one the final target settled.
  constexpr int64_t kSetupRequests = 1;

  // --- Segments: open-loop at the fixed rate, closed-loop at the fixed
  // window. Untraced runs alternate them, so both sample the whole run.
  // Traced runs warm up with open segments only and send every measured
  // open segment (odd ones traced) before any closed one, so until then
  // the servers' own latency histograms hold the set-up request and
  // open-loop traffic only.
  const double open_seg_s = args.smoke ? 0.2 : kOpenSegmentSeconds;
  const double closed_seg_s = args.smoke ? 0.1 : kClosedSegmentSeconds;
  auto open_phase = [&](uint64_t salt, SpanStore* spans) {
    return run_phase(*target, pool, refs,
                     {.closed = false, .rate_rps = spec.rate_rps,
                      .seconds = open_seg_s, .seed = splitmix(args.seed ^ salt),
                      .tenants = spec.tenants, .spans = spans});
  };
  auto closed_phase = [&](uint64_t salt) {
    return run_phase(*target, pool, refs,
                     {.closed = true, .window = spec.window,
                      .seconds = closed_seg_s,
                      .seed = splitmix(args.seed ^ salt),
                      .tenants = spec.tenants});
  };
  std::vector<PhaseResult> warm;
  for (int c = 0; c < (args.smoke ? 1 : kWarmupCycles); ++c) {
    warm.push_back(open_phase(0x10u + static_cast<unsigned>(c), nullptr));
    if (!args.trace)
      warm.push_back(closed_phase(0x20u + static_cast<unsigned>(c)));
  }

  const int cycles = std::max<int>(
      args.trace ? 2 : 1,
      static_cast<int>(std::lround(args.seconds / (open_seg_s + closed_seg_s))));
  std::unique_ptr<SpanStore> spans;
  if (args.trace)
    spans = std::make_unique<SpanStore>(
        static_cast<size_t>(2.0 * spec.rate_rps * open_seg_s * cycles) + 65536);
  std::vector<PhaseResult> open(static_cast<size_t>(cycles)),
      closed(static_cast<size_t>(cycles));
  auto run_open = [&](int c) {
    open[static_cast<size_t>(c)] =
        open_phase(0x100u + static_cast<unsigned>(c),
                   c % 2 ? spans.get() : nullptr);
  };
  auto run_closed = [&](int c) {
    closed[static_cast<size_t>(c)] =
        closed_phase(0x200u + static_cast<unsigned>(c));
  };
  const ServerCounters c0 = target->counters();
  const PoolCounters p0 = pool_counters();
  ServerCounters c1;
  PoolCounters p1;
  if (args.trace) {
    for (int c = 0; c < cycles; ++c) run_open(c);
    c1 = target->counters();
    p1 = pool_counters();
    for (int c = 0; c < cycles; ++c) run_closed(c);
  } else {
    for (int c = 0; c < cycles; ++c) {
      run_open(c);
      run_closed(c);
    }
  }
  const ServerCounters c2 = target->counters();

  // --- Settlement balance, from the benchmark's own futures against the
  // server's tallies (final once shut down).
  target->shutdown();
  const ServerCounters cf = target->counters();
  Segments open_segs, closed_segs, traced_segs, untraced_segs;
  for (const PhaseResult& p : open) open_segs.push_back(&p);
  for (const PhaseResult& p : closed) closed_segs.push_back(&p);
  for (size_t c = 0; c < open.size(); ++c)
    (c % 2 ? traced_segs : untraced_segs).push_back(&open[c]);
  Segments all;
  for (const PhaseResult& p : warm) all.push_back(&p);
  all.insert(all.end(), open_segs.begin(), open_segs.end());
  all.insert(all.end(), closed_segs.begin(), closed_segs.end());
  int64_t sent = kSetupRequests, values = kSetupRequests, refused = 0,
          errors = 0, lost = 0, mismatches = 0, compared = 0;
  for (const PhaseResult* p : all) {
    sent += static_cast<int64_t>(p->records.size());
    values += p->count(Outcome::kValue);
    refused += p->count(Outcome::kRefused);
    errors += p->count(Outcome::kError);
    lost += p->count(Outcome::kLost);
    mismatches += p->mismatches;
    compared += p->compared;
  }
  if (mismatches > 0) fail("served logits differ from sequential infer()");
  if (lost > 0) fail("futures never settled");
  if (spec.fleet) {
    if (cf.fleet_submitted != sent || cf.fleet_settled_value != values ||
        cf.fleet_settled_error != refused + errors)
      fail("fleet settlement balance");
  } else if (cf.completed != values ||
             cf.failed + cf.refused != refused + errors) {
    fail("server settlement balance");
  }
  if (compared == 0) fail("no served value was compared");

  // --- Metrics.
  int64_t open_sent = 0, attempted = 0, ok = 0;
  for (const PhaseResult* p : open_segs)
    open_sent += static_cast<int64_t>(p->records.size());
  for (const Segments* segs : {&open_segs, &closed_segs})
    for (const PhaseResult* p : *segs) {
      attempted += static_cast<int64_t>(p->records.size());
      ok += p->count(Outcome::kValue);
    }
  const std::vector<double> lat = value_latencies_ms(open_segs);

  std::vector<Metric> m;
  if (!args.trace) {
    m = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"lat_p50_ms", segment_latency_ms(open_segs, 0.5), "ms"},
        {"lat_p90_ms", segment_latency_ms(open_segs, 0.9), "ms"},
        {"slo_frac", segment_slo_frac(open_segs, spec.slo_ms), "ratio"},
        {"throughput_rps", segment_throughput_rps(closed_segs), "req/s"},
        {"ok_frac", ratio(ok, attempted), "ratio"},
        {"wire_bytes_per_req",
         ratio(static_cast<double>(c2.wire_bytes - c0.wire_bytes), attempted),
         "B"},
        {"cpu_ms_per_req", segment_cpu_ms_per_req(open_segs), "ms"},
        {"rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double batch_mean =
        ratio(static_cast<double>((c1.completed + c1.failed) -
                                  (c0.completed + c0.failed)),
              static_cast<double>(c1.batches - c0.batches));
    const ReplayResult rp = replay(
        spec, args.seed, pool, std::max<int64_t>(1, std::llround(batch_mean)),
        args.smoke ? 2 : kReplayReps, spans.get());
    std::vector<double> late_ms, submit_us;
    int64_t late_sends = 0;
    double collector_cpu_s = 0.0, open_wall_s = 0.0;
    for (const PhaseResult* p : open_segs) {
      collector_cpu_s += p->collector_cpu_s;
      open_wall_s += 1e-9 * static_cast<double>(p->end_ns - p->start_ns);
      for (const RequestRecord& r : p->records) {
        const double late =
            1e-6 * static_cast<double>(r.submit_start_ns - r.due_ns);
        late_ms.push_back(late);
        late_sends += late > 1.0;
        submit_us.push_back(
            1e-3 * static_cast<double>(r.submit_end_ns - r.submit_start_ns));
      }
    }
    // The servers' p50 covers every open-loop request since boot (and
    // the one set-up request); the client p50 it is compared with covers
    // the same requests, warm-up included.
    const double server_p50_ms = 1e3 * c1.server_p50_s;
    Segments open_since_boot = open_segs;
    for (const PhaseResult& p : warm) open_since_boot.push_back(&p);
    const double client_p50_ms =
        quantile(value_latencies_ms(open_since_boot), 0.5);
    const double wire_stage_us = rp.quantize_us + rp.serialize_us +
                                 rp.encode_us + rp.transmit_us +
                                 rp.decode_us + rp.deserialize_us;
    const PoolCounters dp{p1.tasks - p0.tasks, p1.chunks - p0.chunks,
                          p1.serial - p0.serial};
    m = {
        {"load.lat_p99_ms", quantile(lat, 0.99), "ms"},
        {"load.samples", static_cast<double>(lat.size()), "count"},
        {"load.late_p99_ms", quantile(late_ms, 0.99), "ms"},
        {"load.late_sends", static_cast<double>(late_sends), "count"},
        {"load.fail_frac", ratio(attempted - ok, attempted), "ratio"},
        {"load.collector_cpu_frac", ratio(collector_cpu_s, open_wall_s),
         "ratio"},
        {"serve.submit_p50_us", quantile(submit_us, 0.5), "us"},
        {"serve.submit_p99_us", quantile(submit_us, 0.99), "us"},
        {"serve.server_p50_ms", server_p50_ms, "ms"},
        {"serve.wait_p50_ms", server_p50_ms - 1e-3 * rp.infer_batch_us, "ms"},
        {"serve.batch_mean", batch_mean, "req/batch"},
        {"serve.stolen_frac",
         ratio(c1.stolen - c0.stolen, c1.completed - c0.completed), "ratio"},
        {"serve.refused_frac", ratio(refused, sent), "ratio"},
        {"fleet.hop_p50_ms", spec.fleet ? client_p50_ms - server_p50_ms : 0.0,
         "ms"},
        {"fleet.probes_missed", static_cast<double>(cf.probes_missed), "count"},
        {"fleet.failovers", static_cast<double>(cf.failovers), "count"},
        {"graph.backbone_b1_us", rp.backbone_b1_us, "us"},
        {"graph.backbone_us", rp.backbone_us, "us"},
        {"graph.heads_b1_us", rp.heads_b1_us, "us"},
        {"graph.heads_us", rp.heads_us, "us"},
        {"graph.compile_ms", rp.compile_ms, "ms"},
        {"sc.quantize_us", rp.quantize_us, "us"},
        {"tensor.serialize_us", rp.serialize_us, "us"},
        {"tensor.deserialize_us", rp.deserialize_us, "us"},
        {"sc.codec.encode_us", rp.encode_us, "us"},
        {"sc.codec.decode_us", rp.decode_us, "us"},
        {"sc.link.transmit_us", rp.transmit_us, "us"},
        {"sc.infer_batch_us", rp.infer_batch_us, "us"},
        {"sc.glue_us", rp.infer_batch_us - rp.stage_sum_us, "us"},
        {"sc.codec.ratio", rp.codec_ratio, "ratio"},
        {"sc.link.retransmits_per_req",
         ratio(c2.retransmits - c0.retransmits, attempted), "count/req"},
        {"sc.link.fec_repaired_per_req",
         ratio(c2.fec_repaired - c0.fec_repaired, attempted), "count/req"},
        {"sc.link.undelivered",
         static_cast<double>(c2.undelivered - c0.undelivered), "count"},
        {"sc.model.edge_ms", rp.model_edge_ms, "ms"},
        {"sc.model.transfer_ms", rp.model_transfer_ms, "ms"},
        {"sc.model.server_ms", rp.model_server_ms, "ms"},
        {"sc.model.edge_ratio",
         ratio(1e3 * rp.model_edge_ms, rp.backbone_b1_us), "ratio"},
        {"sc.model.transfer_ratio",
         ratio(1e3 * rp.model_transfer_ms, wire_stage_us), "ratio"},
        {"sc.model.server_ratio",
         ratio(1e3 * rp.model_server_ms, rp.heads_b1_us), "ratio"},
        {"runtime.tasks_per_req", ratio(dp.tasks, open_sent), "count/req"},
        {"runtime.chunks_per_task", ratio(dp.chunks, dp.tasks), "count"},
        {"runtime.serial_frac", ratio(dp.serial, dp.tasks + dp.serial),
         "ratio"},
        {"trace.overhead_p50_ms",
         segment_latency_ms(traced_segs, 0.5) -
             segment_latency_ms(untraced_segs, 0.5),
         "ms"},
        {"trace.spans", static_cast<double>(spans->recorded()), "count"},
        {"trace.dropped", static_cast<double>(spans->dropped()), "count"},
    };
    std::printf(
        "analytic-vs-measured, per image (model = the paper's section 4.2 "
        "LatencyBreakdown; measured = replayed wall time on this host)\n"
        "  edge     model %9.4f ms  measured %9.4f ms  ratio %.4g\n"
        "  transfer model %9.4f ms  measured %9.4f ms  ratio %.4g\n"
        "  server   model %9.4f ms  measured %9.4f ms  ratio %.4g\n",
        rp.model_edge_ms, 1e-3 * rp.backbone_b1_us,
        ratio(1e3 * rp.model_edge_ms, rp.backbone_b1_us), rp.model_transfer_ms,
        1e-3 * wire_stage_us, ratio(1e3 * rp.model_transfer_ms, wire_stage_us),
        rp.model_server_ms, 1e-3 * rp.heads_b1_us,
        ratio(1e3 * rp.model_server_ms, rp.heads_b1_us));
  }

  for (Metric& x : m) {
    if (!std::isfinite(x.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", x.name.c_str());
      correct = false;
      x.value = 0.0;
    }
    std::printf("  %-30s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("checked %lld served values bitwise; sent %lld = %lld values + "
              "%lld refused + %lld errors + %lld lost\n",
              static_cast<long long>(compared), static_cast<long long>(sent),
              static_cast<long long>(values), static_cast<long long>(refused),
              static_cast<long long>(errors), static_cast<long long>(lost));

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(attempted - ok) +
            ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m[i].name.c_str(), m[i].value,
                  m[i].unit.c_str());
    result += buf;
  }
  result += "}}";

  // --- Results (and spans) on disk, beside the fingerprint.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem =
      args.out_dir + "/" + spec.name + "-seed" + std::to_string(args.seed);
  {
    std::ofstream out(stem + "-trace" + (args.trace ? "1" : "0") + ".json");
    // Per-segment series, in send order, so a reader can see whether a
    // slow run was slow throughout or in a spell.
    std::string series = "{\"open_p50_ms\": [";
    for (size_t i = 0; i < open_segs.size(); ++i)
      series += (i ? ", " : "") +
                std::to_string(segment_latency_ms({open_segs[i]}, 0.5));
    series += "], \"open_p90_ms\": [";
    for (size_t i = 0; i < open_segs.size(); ++i)
      series += (i ? ", " : "") +
                std::to_string(segment_latency_ms({open_segs[i]}, 0.9));
    series += "], \"closed_rps\": [";
    for (size_t i = 0; i < closed_segs.size(); ++i)
      series += (i ? ", " : "") +
                std::to_string(segment_throughput_rps({closed_segs[i]}));
    series += "]}";
    out << "{\"fingerprint\": " << fp << ",\n\"result\": " << result
        << ",\n\"segments\": " << series << "}\n";
  }
  if (spans && !spans->write_json(stem + "-spans.json", fp))
    std::printf("warning: could not write %s-spans.json\n", stem.c_str());

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
