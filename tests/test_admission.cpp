// Admission control (Block / Reject / ShedOldest), priority classes, and
// per-client DRR fairness — queue-level determinism tests plus randomized
// property sweeps asserting exactly-once settlement (DESIGN.md §8).
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"

namespace mtlsplit {
namespace {

using namespace std::chrono_literals;

Tensor tiny_input() { return Tensor({1, 1, 2, 2}, 0.25f); }

sc::InferenceResult dummy_result() {
  sc::InferenceResult r;
  r.logits.push_back(Tensor({1, 2}, 1.0f));
  return r;
}

/// Classifies a settled future: 0 = value, 1 = RejectedError (rejected),
/// 2 = RejectedError (shed), 3 = other error. get() throwing
/// future_error (double settle / broken promise) fails the test.
int settle_kind(std::future<sc::InferenceResult>& f) {
  try {
    (void)f.get();
    return 0;
  } catch (const serve::RejectedError& e) {
    return e.shed() ? 2 : 1;
  } catch (const std::future_error& e) {
    ADD_FAILURE() << "future_error: settlement contract violated: "
                  << e.what();
    return 3;
  } catch (...) {
    return 3;
  }
}

// --------------------------------------------------- admission, queue level

TEST(Admission, RejectDeliversTypedErrorInsteadOfBlocking) {
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kReject, .capacity = 2});
  auto f1 = q.submit(tiny_input());
  auto f2 = q.submit(tiny_input());
  auto f3 = q.submit(tiny_input());  // over capacity: settled immediately
  EXPECT_EQ(settle_kind(f3), 1);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.accepted(), 2u);  // the reject consumed no id
  EXPECT_EQ(q.size(), 2u);
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f1), 0);
  auto f4 = q.submit(tiny_input());  // space again: admitted
  EXPECT_EQ(q.size(), 2u);
  q.close();
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f2), 0);
  EXPECT_EQ(settle_kind(f4), 0);
}

TEST(Admission, PerClassDepthLimitBindsIndependently) {
  serve::AdmissionConfig cfg{.policy = serve::AdmissionPolicy::kReject};
  cfg.class_capacity[static_cast<size_t>(serve::Priority::kNormal)] = 1;
  serve::RequestQueue q(cfg);
  auto f1 = q.submit(tiny_input());
  auto f2 = q.submit(tiny_input());  // normal class full
  auto f3 = q.submit(tiny_input(), {.priority = serve::Priority::kHigh});
  EXPECT_EQ(settle_kind(f2), 1);
  EXPECT_EQ(q.size(), 2u);  // high class has no limit
  q.close();
  serve::Request r;
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f3), 0);
}

TEST(Admission, ShedOldestEvictsOldestOfLowestBackloggedClass) {
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kShedOldest, .capacity = 2});
  auto f_low = q.submit(tiny_input(), {.priority = serve::Priority::kLow});
  auto f_norm = q.submit(tiny_input());
  // Queue full; the high-priority newcomer displaces the low request even
  // though the normal one is older in wall-clock terms? No — the victim
  // class is the *lowest backlogged class*, and within it the oldest id.
  auto f_high = q.submit(tiny_input(), {.priority = serve::Priority::kHigh});
  EXPECT_EQ(settle_kind(f_low), 2);  // shed, not door-rejected
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.rejected(), 0u);
  EXPECT_EQ(q.size(), 2u);
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.priority, serve::Priority::kHigh);  // priority pop order
  r.done(dummy_result(), nullptr);
  q.close();
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f_high), 0);
  EXPECT_EQ(settle_kind(f_norm), 0);
}

TEST(Admission, ShedOldestNeverInvertsPriority) {
  // A low-priority newcomer must not evict admitted high-priority work:
  // when the entire backlog outranks it, the newcomer itself is rejected.
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kShedOldest, .capacity = 2});
  auto f_h1 = q.submit(tiny_input(), {.priority = serve::Priority::kHigh});
  auto f_h2 = q.submit(tiny_input(), {.priority = serve::Priority::kHigh});
  auto f_low = q.submit(tiny_input(), {.priority = serve::Priority::kLow});
  EXPECT_EQ(settle_kind(f_low), 1);  // rejected at the door, not shed
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.size(), 2u);  // both high requests survived
  q.close();
  serve::Request r;
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f_h1), 0);
  EXPECT_EQ(settle_kind(f_h2), 0);
}

TEST(Admission, StreamRejectionSettlesEveryChunkFuture) {
  serve::RequestQueue q(serve::AdmissionConfig{
      .policy = serve::AdmissionPolicy::kReject, .capacity = 1});
  auto f1 = q.submit(tiny_input());
  auto chunks = q.submit_stream(Tensor({3, 1, 2, 2}, 0.5f));
  ASSERT_EQ(chunks.size(), 3u);
  for (auto& c : chunks) EXPECT_EQ(settle_kind(c), 1);
  q.close();
  serve::Request r;
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f1), 0);
}

// ------------------------------------------------- priority + DRR fairness

TEST(Fairness, HighPriorityJumpsTheBacklog) {
  serve::RequestQueue q;
  for (int i = 0; i < 4; ++i)
    (void)q.submit(tiny_input(), {.priority = serve::Priority::kLow});
  auto fut = q.submit(tiny_input(), {.priority = serve::Priority::kHigh});
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.priority, serve::Priority::kHigh);
  r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(fut), 0);
  q.close();
  while (q.pop(r)) r.done(dummy_result(), nullptr);
}

TEST(Fairness, FloodingClientCannotStarveOthers) {
  serve::RequestQueue q;
  std::vector<std::future<sc::InferenceResult>> futs;
  for (int i = 0; i < 50; ++i)
    futs.push_back(q.submit(tiny_input(), {.client_id = 1}));  // flooder
  for (int i = 0; i < 5; ++i)
    futs.push_back(q.submit(tiny_input(), {.client_id = 2}));
  // DRR with quantum 1 over 1-row requests alternates the two backlogged
  // lanes, so the small client's 5 requests all leave within 10 pops.
  int small_served = 0;
  serve::Request r;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.pop(r));
    small_served += r.client_id == 2 ? 1 : 0;
    r.done(dummy_result(), nullptr);
  }
  EXPECT_EQ(small_served, 5);
  q.close();
  while (q.pop(r)) r.done(dummy_result(), nullptr);
  for (auto& f : futs) EXPECT_EQ(settle_kind(f), 0);
}

TEST(Fairness, DeficitAccountsRowsNotRequests) {
  // Client 1 submits 4-row requests, client 2 single rows: fair sharing
  // means equal *rows* served, so client 2 pops ~4 requests for each of
  // client 1's.
  serve::RequestQueue q;
  for (int i = 0; i < 8; ++i)
    (void)q.submit(Tensor({4, 1, 2, 2}, 0.1f), {.client_id = 1});
  for (int i = 0; i < 32; ++i)
    (void)q.submit(tiny_input(), {.client_id = 2});
  int64_t rows1 = 0, rows2 = 0;
  serve::Request r;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.pop(r));
    (r.client_id == 1 ? rows1 : rows2) += r.rows();
    r.done(dummy_result(), nullptr);
  }
  // Both lanes stayed backlogged for all 20 pops: row counts match within
  // one maximal request cost.
  EXPECT_LE(std::abs(rows1 - rows2), 4);
  q.close();
  while (q.pop(r)) r.done(dummy_result(), nullptr);
}

TEST(Fairness, LargeRequestsServeWithoutQuantumSpin) {
  // Heads costing far more than the quantum are funded by one bulk grant
  // (equivalent to that many rotations), keeping pop O(lanes) under the
  // lock. The cheaper head reaches affordability first.
  serve::RequestQueue q;  // drr_quantum = 1
  auto f1 = q.submit(Tensor({64, 1, 2, 2}, 0.1f), {.client_id = 1});
  auto f2 = q.submit(Tensor({32, 1, 2, 2}, 0.1f), {.client_id = 2});
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.client_id, 2u);  // cost 32 funded before cost 64
  r.done(dummy_result(), nullptr);
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.client_id, 1u);
  r.done(dummy_result(), nullptr);
  EXPECT_EQ(settle_kind(f1), 0);
  EXPECT_EQ(settle_kind(f2), 0);
}

// ------------------------------------------- randomized property sweeps

struct SweepOutcome {
  int64_t values = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t other_errors = 0;
};

/// One submission's futures: a single entry for plain requests, one per
/// chunk for streams (all chunks of one request settle the same way).
struct Submission {
  std::vector<std::future<sc::InferenceResult>> futs;
};

/// Runs P producers x K submissions with random priorities/clients against
/// C consumers settling everything, and classifies every submission.
SweepOutcome run_queue_sweep(serve::AdmissionConfig cfg, uint64_t seed,
                             size_t producers = 4, size_t per_producer = 40,
                             size_t consumers = 2,
                             bool uniform_priority = false) {
  serve::RequestQueue q(cfg);
  std::vector<std::thread> consumer_threads;
  for (size_t c = 0; c < consumers; ++c)
    consumer_threads.emplace_back([&q] {
      serve::Request r;
      while (q.pop(r)) {
        if (r.streaming) {
          for (auto& p : r.chunk_promises) p.set_value(dummy_result());
        } else {
          r.done(dummy_result(), nullptr);
        }
      }
    });

  std::vector<std::vector<Submission>> subs(producers);
  std::vector<std::thread> producer_threads;
  for (size_t p = 0; p < producers; ++p)
    producer_threads.emplace_back([&, p] {
      std::mt19937_64 gen(seed * 1000 + p);
      std::uniform_int_distribution<int> pri(0, 2), cli(0, 3), jitter(0, 80);
      for (size_t k = 0; k < per_producer; ++k) {
        serve::SubmitOptions opts{
            uniform_priority ? serve::Priority::kNormal
                             : static_cast<serve::Priority>(pri(gen)),
            static_cast<uint64_t>(cli(gen))};
        Submission s;
        try {
          if (k % 11 == 10) {
            // Occasional 2-row stream: every chunk future is tracked.
            s.futs = q.submit_stream(Tensor({2, 1, 2, 2}, 0.5f), opts);
          } else {
            s.futs.push_back(q.submit(tiny_input(), opts));
          }
        } catch (const std::runtime_error&) {
          ADD_FAILURE() << "submit threw while the queue was open";
        }
        subs[p].push_back(std::move(s));
        std::this_thread::sleep_for(std::chrono::microseconds(jitter(gen)));
      }
    });
  for (auto& t : producer_threads) t.join();
  q.close();
  for (auto& t : consumer_threads) t.join();

  SweepOutcome out;
  for (auto& per : subs)
    for (Submission& s : per) {
      const int kind = settle_kind(s.futs[0]);
      for (size_t i = 1; i < s.futs.size(); ++i)
        EXPECT_EQ(settle_kind(s.futs[i]), kind)
            << "chunks of one stream request settled differently";
      switch (kind) {
        case 0: ++out.values; break;
        case 1: ++out.rejected; break;
        case 2: ++out.shed; break;
        default: ++out.other_errors; break;
      }
    }
  EXPECT_EQ(out.rejected, static_cast<int64_t>(q.rejected()))
      << "queue rejection tally must match client-observed rejections";
  EXPECT_EQ(out.shed, static_cast<int64_t>(q.shed()));
  return out;
}

TEST(AdmissionProperty, BlockSettlesEverySubmissionWithAValue) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const SweepOutcome out = run_queue_sweep(
        {.policy = serve::AdmissionPolicy::kBlock, .capacity = 8}, seed);
    EXPECT_EQ(out.rejected + out.shed + out.other_errors, 0);
    EXPECT_EQ(out.values, 4 * 40);
  }
}

TEST(AdmissionProperty, RejectSettlesEverySubmissionExactlyOnce) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    const SweepOutcome out = run_queue_sweep(
        {.policy = serve::AdmissionPolicy::kReject, .capacity = 4}, seed);
    EXPECT_EQ(out.other_errors, 0);
    EXPECT_EQ(out.shed, 0);
    EXPECT_EQ(out.values + out.rejected, 4 * 40);
  }
}

TEST(AdmissionProperty, ShedCountEqualsSubmissionsMinusCompletions) {
  // Uniform priority: the newcomer is always admitted (some older request
  // of the same class is shed), so shed == submissions - completions.
  for (uint64_t seed : {7u, 8u, 9u}) {
    const SweepOutcome out = run_queue_sweep(
        {.policy = serve::AdmissionPolicy::kShedOldest, .capacity = 4}, seed,
        4, 40, 2, /*uniform_priority=*/true);
    EXPECT_EQ(out.other_errors, 0);
    EXPECT_EQ(out.rejected, 0);
    // Every settled future is a completion or a shed; nothing is lost and
    // nothing is double-settled.
    EXPECT_EQ(out.values + out.shed, 4 * 40);
  }
}

TEST(AdmissionProperty, ShedOldestWithMixedPrioritiesAccountsEverySubmission) {
  // Mixed priorities: a newcomer whose entire backlog outranks it is
  // door-rejected instead of inverting priority, so the full accounting
  // is completions + sheds + rejections — still exactly once each.
  for (uint64_t seed : {10u, 11u, 12u}) {
    const SweepOutcome out = run_queue_sweep(
        {.policy = serve::AdmissionPolicy::kShedOldest, .capacity = 4}, seed);
    EXPECT_EQ(out.other_errors, 0);
    EXPECT_EQ(out.values + out.shed + out.rejected, 4 * 40);
  }
}

// ------------------------------------------------- server-level properties

struct ServerRig {
  std::unique_ptr<core::MtlSplitModel> model;
  explicit ServerRig(uint64_t seed = 1) {
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    Rng rng(seed);
    model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng);
    model->set_training(false);
  }
  Tensor input(uint64_t seed) const {
    Rng rng(seed);
    Tensor t({1, 3, 16, 16});
    rng.fill_uniform(t, 0.0f, 1.0f);
    return t;
  }
};

TEST(AdmissionProperty, ServerUnderRejectNeverBlocksAndAccountsEveryRequest) {
  ServerRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server(
      {rig.model.get()}, link, sc::jetson_nano(), sc::rtx3090_server(),
      {.batching = {.max_batch_size = 4, .max_wait_us = 500},
       .admission = {.policy = serve::AdmissionPolicy::kReject,
                     .capacity = 4}});
  constexpr size_t kClients = 4, kPerClient = 20;
  std::atomic<int64_t> values{0}, rejected{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (size_t k = 0; k < kPerClient; ++k) {
        auto f = server.submit(
            rig.input(7000 + c * 100 + k),
            {.priority = static_cast<serve::Priority>(k % 3),
             .client_id = c});
        switch (settle_kind(f)) {
          case 0: ++values; break;
          case 1: ++rejected; break;
          default: ADD_FAILURE() << "unexpected settlement"; break;
        }
      }
    });
  for (auto& t : clients) t.join();
  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(values + rejected,
            static_cast<int64_t>(kClients * kPerClient));
  EXPECT_EQ(s.completed, values);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.shed, 0);
}

TEST(AdmissionProperty, ServerShedEqualsSubmissionsMinusCompletions) {
  ServerRig rig;
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server(
      {rig.model.get()}, link, sc::jetson_nano(), sc::rtx3090_server(),
      {.batching = {.max_batch_size = 4, .max_wait_us = 200},
       .admission = {.policy = serve::AdmissionPolicy::kShedOldest,
                     .capacity = 3}});
  constexpr size_t kClients = 3, kPerClient = 15;
  std::vector<std::vector<std::future<sc::InferenceResult>>> futs(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (size_t k = 0; k < kPerClient; ++k)
        futs[c].push_back(
            server.submit(rig.input(9000 + c * 100 + k), {.client_id = c}));
    });
  for (auto& t : clients) t.join();
  int64_t values = 0, shed = 0;
  for (auto& per : futs)
    for (auto& f : per) switch (settle_kind(f)) {
        case 0: ++values; break;
        case 2: ++shed; break;
        default: ADD_FAILURE() << "unexpected settlement"; break;
      }
  server.shutdown();
  const serve::ServeStats s = server.stats();
  EXPECT_EQ(values + shed, static_cast<int64_t>(kClients * kPerClient));
  EXPECT_EQ(s.shed, shed);
  EXPECT_EQ(s.shed,
            static_cast<int64_t>(kClients * kPerClient) - s.completed);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.failed, 0);
}

}  // namespace
}  // namespace mtlsplit
