#include "serve/request_queue.hpp"

#include <algorithm>
#include <limits>

#include "serve/telemetry.hpp"

namespace mtlsplit::serve {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

std::exception_ptr make_expired_error(ExpiryPhase phase) {
  const char* what = nullptr;
  switch (phase) {
    case ExpiryPhase::kAdmission:
      what = "deadline already exceeded at admission";
      break;
    case ExpiryPhase::kQueue:
      what = "deadline exceeded while queued";
      break;
    case ExpiryPhase::kDispatch:
      what = "deadline exceeded before batch dispatch";
      break;
  }
  return std::make_exception_ptr(DeadlineExceededError(what, phase));
}

void settle_all(Request& r, const std::exception_ptr& err) {
  if (r.streaming) {
    for (auto& p : r.chunk_promises) p.set_exception(err);
  } else {
    r.done({}, err);
  }
}

}  // namespace

Completion promise_completion(std::promise<sc::InferenceResult> p) {
  return [p = std::move(p)](sc::InferenceResult&& result,
                            std::exception_ptr error) mutable {
    if (error)
      p.set_exception(std::move(error));
    else
      p.set_value(std::move(result));
  };
}

size_t expire_overdue(std::vector<Request>& batch,
                      std::chrono::steady_clock::time_point now) {
  size_t kept = 0, dropped = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].expired(now)) {
      Request dead = std::move(batch[i]);
      ++dropped;
      settle_all(dead, make_expired_error(ExpiryPhase::kDispatch));
    } else {
      if (kept != i) batch[kept] = std::move(batch[i]);
      ++kept;
    }
  }
  batch.resize(kept);
  return dropped;
}

RequestQueue::RequestQueue(AdmissionConfig cfg) : cfg_(std::move(cfg)) {
  check_arg(cfg_.drr_quantum >= 1,
            "RequestQueue: drr_quantum must be >= 1");
  check_arg(cfg_.quota.rate >= 0.0 && cfg_.quota.burst > 0.0,
            "RequestQueue: quota rate must be >= 0 and burst > 0");
  for (const auto& [client, spec] : cfg_.client_quota)
    check_arg(spec.rate >= 0.0 && spec.burst > 0.0,
              "RequestQueue: per-client quota rate must be >= 0, burst > 0");
}

void RequestQueue::set_capacity(size_t capacity) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cfg_.capacity = capacity;
  }
  // Growing may have opened space for Block-policy submitters.
  space_cv_.notify_all();
}

void RequestQueue::bind_telemetry(telemetry::Registry& reg,
                                  const std::string& prefix) {
  std::lock_guard<std::mutex> lk(mu_);
  tm_.accepted = &reg.counter(prefix + "/accepted");
  tm_.rejected = &reg.counter(prefix + "/rejected");
  tm_.shed = &reg.counter(prefix + "/shed");
  tm_.expired = &reg.counter(prefix + "/expired");
  tm_.throttled = &reg.counter(prefix + "/throttled");
  tm_.depth = &reg.gauge(prefix + "/depth");
  // Catch up on anything tallied before binding (ScServer binds before
  // serving starts, but a standalone queue may bind late).
  tm_.accepted->add(static_cast<int64_t>(next_id_));
  tm_.rejected->add(static_cast<int64_t>(rejected_));
  tm_.shed->add(static_cast<int64_t>(shed_));
  tm_.expired->add(static_cast<int64_t>(expired_));
  tm_.throttled->add(static_cast<int64_t>(throttled_));
  tm_.depth->set(static_cast<double>(total_));
}

void RequestQueue::note_admitted_locked() {
  if (tm_.accepted) tm_.accepted->inc();
  note_depth_locked();
}

void RequestQueue::note_depth_locked() {
  if (tm_.depth) tm_.depth->set(static_cast<double>(total_));
}

void RequestQueue::settle_error(Request& r, std::exception_ptr err) {
  settle_all(r, err);
}

void RequestQueue::settle_rejected(Request& r, bool shed) {
  settle_error(r, std::make_exception_ptr(RejectedError(
                      shed ? "RequestQueue: request shed under ShedOldest "
                             "admission"
                           : "RequestQueue: request rejected, queue at "
                             "capacity",
                      shed)));
}

void RequestQueue::settle_expired_list(std::vector<Request>& expired,
                                       ExpiryPhase phase) {
  for (Request& r : expired) settle_error(r, make_expired_error(phase));
  expired.clear();
}

bool RequestQueue::full_for(size_t cls) const {
  if (cfg_.capacity != 0 && total_ >= cfg_.capacity) return true;
  return cfg_.class_capacity[cls] != 0 &&
         classes_[cls].depth >= cfg_.class_capacity[cls];
}

const QuotaSpec& RequestQueue::quota_for(uint64_t client_id) const {
  const auto it = cfg_.client_quota.find(client_id);
  return it != cfg_.client_quota.end() ? it->second : cfg_.quota;
}

bool RequestQueue::quota_admits(const Request& r,
                                std::chrono::steady_clock::time_point now,
                                double* retry_after_s,
                                double* cost_consumed) {
  const QuotaSpec& spec = quota_for(r.client_id);
  if (spec.rate <= 0.0) return true;  // unlimited
  const double cost = static_cast<double>(r.rows());
  if (cost > spec.burst) {
    // The bucket can never hold enough for this request; a finite
    // retry-after would send an honest client into an endless retry
    // loop, so report the refusal as permanent.
    *retry_after_s = std::numeric_limits<double>::infinity();
    return false;
  }
  auto [bit, fresh] = buckets_.try_emplace(r.client_id);
  Bucket& b = bit->second;
  if (fresh) {
    b.tokens = spec.burst;
    b.last = now;
  } else {
    const double dt = std::chrono::duration<double>(now - b.last).count();
    b.tokens = std::min(spec.burst, b.tokens + spec.rate * dt);
    b.last = now;
  }
  // Small epsilon so an exactly-refilled bucket is not refused to
  // floating-point rounding.
  if (b.tokens + 1e-9 >= cost) {
    b.tokens -= cost;
    *cost_consumed = cost;
    return true;
  }
  *retry_after_s = (cost - b.tokens) / spec.rate;
  return false;
}

void RequestQueue::refund_quota(uint64_t client_id, double cost) {
  if (cost <= 0.0) return;
  const auto it = buckets_.find(client_id);
  if (it == buckets_.end()) return;
  it->second.tokens =
      std::min(quota_for(client_id).burst, it->second.tokens + cost);
}

void RequestQueue::erase_lane(ClassState& cs,
                              std::list<ClientLane>::iterator it) {
  cs.index.erase(it->client);
  if (cs.cursor == it) {
    cs.cursor = cs.active.erase(it);
    cs.visited = false;
  } else {
    cs.active.erase(it);
  }
}

void RequestQueue::shed_one(size_t cls) {
  // Victim: the oldest (smallest-id) queued request of the class — each
  // lane is FIFO, so only lane heads are candidates.
  ClassState& cs = classes_[cls];
  auto victim = cs.active.end();
  for (auto it = cs.active.begin(); it != cs.active.end(); ++it)
    if (victim == cs.active.end() || it->q.front().id < victim->q.front().id)
      victim = it;
  check_arg(victim != cs.active.end(), "RequestQueue: shed from empty class");
  Request r = std::move(victim->q.front());
  victim->q.pop_front();
  --cs.depth;
  --total_;
  if (victim->q.empty()) erase_lane(cs, victim);
  ++shed_;
  if (tm_.shed) tm_.shed->inc();
  note_depth_locked();
  settle_rejected(r, /*shed=*/true);
}

void RequestQueue::enqueue_or_reject(Request&& r) {
  const size_t cls = static_cast<size_t>(r.priority);
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (closed_) throw std::runtime_error("RequestQueue: submit after close");
    const auto now = std::chrono::steady_clock::now();
    // Gate 1: deadline. A request that arrives already dead consumes no
    // quota tokens and no queue space.
    if (r.expired(now)) {
      ++expired_;
      if (tm_.expired) tm_.expired->inc();
      lk.unlock();
      settle_error(r, make_expired_error(ExpiryPhase::kAdmission));
      return;
    }
    // Gate 2: per-tenant quota. Sits above capacity so a flooding tenant
    // is refused by its own bucket before it can pressure the shared
    // queue. Tokens consumed here are refunded on every later refusal
    // (capacity reject, deadline expiry during a Block wait, close) —
    // a tenant only pays for requests that were actually admitted.
    double retry_after_s = 0.0;
    double quota_spent = 0.0;
    if (!quota_admits(r, now, &retry_after_s, &quota_spent)) {
      ++throttled_;
      if (tm_.throttled) tm_.throttled->inc();
      lk.unlock();
      settle_error(r, std::make_exception_ptr(ThrottledError(
                          "RequestQueue: tenant quota exceeded",
                          retry_after_s)));
      return;
    }
    // Gate 3: capacity, per AdmissionPolicy.
    switch (cfg_.policy) {
      case AdmissionPolicy::kBlock:
        if (r.deadline == kNoDeadline) {
          space_cv_.wait(lk, [&] { return closed_ || !full_for(cls); });
        } else if (!space_cv_.wait_until(lk, r.deadline, [&] {
                     return closed_ || !full_for(cls);
                   })) {
          // Still full at the deadline: the wait is over, the request is
          // dead — settle it instead of blocking past its own deadline.
          ++expired_;
          if (tm_.expired) tm_.expired->inc();
          refund_quota(r.client_id, quota_spent);
          lk.unlock();
          settle_error(r, make_expired_error(ExpiryPhase::kAdmission));
          return;
        }
        if (closed_) {
          refund_quota(r.client_id, quota_spent);
          throw std::runtime_error("RequestQueue: submit after close");
        }
        break;
      case AdmissionPolicy::kReject:
        if (full_for(cls)) {
          ++rejected_;
          if (tm_.rejected) tm_.rejected->inc();
          refund_quota(r.client_id, quota_spent);
          lk.unlock();
          settle_rejected(r, /*shed=*/false);
          return;
        }
        break;
      case AdmissionPolicy::kShedOldest:
        // A binding class cap can only be relieved from that class; the
        // total cap is relieved from the lowest-priority backlogged class
        // *at or below the newcomer's priority* — shedding an admitted
        // higher-priority request for a lower-priority newcomer would
        // invert the strict-priority contract. If the entire backlog
        // outranks the newcomer, the newcomer itself is rejected.
        while (cfg_.class_capacity[cls] != 0 &&
               classes_[cls].depth >= cfg_.class_capacity[cls])
          shed_one(cls);
        while (cfg_.capacity != 0 && total_ >= cfg_.capacity) {
          size_t victim_cls = kNumPriorityClasses;
          for (size_t c = kNumPriorityClasses; c-- > cls;)
            if (classes_[c].depth > 0) {
              victim_cls = c;
              break;
            }
          if (victim_cls == kNumPriorityClasses) {
            ++rejected_;
            if (tm_.rejected) tm_.rejected->inc();
            refund_quota(r.client_id, quota_spent);
            lk.unlock();
            settle_rejected(r, /*shed=*/false);
            return;
          }
          shed_one(victim_cls);
        }
        break;
    }
    r.id = next_id_++;
    r.enqueued_at = std::chrono::steady_clock::now();
    ClassState& cs = classes_[cls];
    auto it = cs.index.find(r.client_id);
    if (it == cs.index.end()) {
      cs.active.push_back(ClientLane{r.client_id, 0, {}});
      it = cs.index.emplace(r.client_id, std::prev(cs.active.end())).first;
    }
    it->second->q.push_back(std::move(r));
    ++cs.depth;
    ++total_;
    note_admitted_locked();
  }
  ready_cv_.notify_one();
}

std::future<sc::InferenceResult> RequestQueue::submit(Tensor x,
                                                      SubmitOptions opts) {
  std::promise<sc::InferenceResult> p;
  std::future<sc::InferenceResult> fut = p.get_future();
  submit(std::move(x), opts, promise_completion(std::move(p)));
  return fut;
}

void RequestQueue::submit(Tensor x, SubmitOptions opts, Completion done) {
  check_arg(x.dim() == 4 && x.size(0) >= 1,
            "RequestQueue::submit: input must be [B, C, H, W] with B >= 1");
  Request r;
  r.x = std::move(x);
  r.priority = opts.priority;
  r.client_id = opts.client_id;
  r.deadline = opts.deadline;
  if (opts.ttl.count() > 0)
    r.deadline =
        std::min(r.deadline, std::chrono::steady_clock::now() + opts.ttl);
  r.done = std::move(done);
  enqueue_or_reject(std::move(r));
}

std::vector<std::future<sc::InferenceResult>> RequestQueue::submit_stream(
    Tensor x, SubmitOptions opts) {
  check_arg(x.dim() == 4 && x.size(0) >= 1,
            "RequestQueue::submit_stream: input must be [B, C, H, W]");
  Request r;
  r.x = std::move(x);
  r.priority = opts.priority;
  r.client_id = opts.client_id;
  r.deadline = opts.deadline;
  if (opts.ttl.count() > 0)
    r.deadline =
        std::min(r.deadline, std::chrono::steady_clock::now() + opts.ttl);
  r.streaming = true;
  r.chunk_promises.resize(static_cast<size_t>(r.rows()));
  std::vector<std::future<sc::InferenceResult>> futs;
  futs.reserve(r.chunk_promises.size());
  for (auto& p : r.chunk_promises) futs.push_back(p.get_future());
  enqueue_or_reject(std::move(r));
  return futs;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

bool RequestQueue::take_next(Request& out, std::vector<Request>& expired) {
  if (total_ == 0) return false;
  const auto now = std::chrono::steady_clock::now();
  const size_t expired_before = expired.size();
  for (ClassState& cs : classes_) {
    while (cs.depth > 0) {
      // DRR scan: rotate the lane ring granting one quantum per visit
      // until some lane can afford its head request (cost = row count).
      // Lanes carry unused deficit across pops, so a lane within its
      // credit keeps the cursor and serves consecutive requests. Expired
      // heads are purged (uncharged — they received no service) before
      // any affordability check; a purge that empties a lane restarts
      // the rotation with the fresh lane count.
      bool restructured = false;
      const size_t lanes = cs.active.size();
      for (size_t visit = 0; visit < lanes; ++visit) {
        if (cs.cursor == cs.active.end()) {
          cs.cursor = cs.active.begin();
          cs.visited = false;
        }
        ClientLane& lane = *cs.cursor;
        while (!lane.q.empty() && lane.q.front().expired(now)) {
          expired.push_back(std::move(lane.q.front()));
          lane.q.pop_front();
          --cs.depth;
          --total_;
          ++expired_;
          if (tm_.expired) tm_.expired->inc();
          note_depth_locked();
        }
        if (lane.q.empty()) {
          erase_lane(cs, cs.cursor);
          restructured = true;
          break;
        }
        const int64_t cost = lane.q.front().rows();
        if (!cs.visited) {
          lane.deficit += cfg_.drr_quantum;
          cs.visited = true;
        }
        if (lane.deficit >= cost) {
          out = std::move(lane.q.front());
          lane.q.pop_front();
          lane.deficit -= cost;
          --cs.depth;
          --total_;
          note_depth_locked();
          if (lane.q.empty()) {
            // Idle lanes do not bank credit (classic DRR).
            erase_lane(cs, cs.cursor);
          } else if (lane.deficit < lane.q.front().rows()) {
            ++cs.cursor;
            cs.visited = false;
          }
          space_cv_.notify_all();
          return true;
        }
        ++cs.cursor;
        cs.visited = false;
      }
      if (cs.depth == 0) break;
      if (restructured) continue;
      // A full rotation served nothing (every head costs more than its
      // lane's credit — e.g. large client-side batches vs a small
      // quantum). Grant every lane the minimum whole number of extra
      // rounds that makes some head affordable: identical service order
      // and proportions to spinning that many rotations, but O(lanes)
      // with the lock held instead of O(rotations x lanes). Every head
      // is live here: the rotation above purged expired ones.
      int64_t min_rounds = std::numeric_limits<int64_t>::max();
      for (const ClientLane& lane : cs.active) {
        const int64_t shortfall = lane.q.front().rows() - lane.deficit;
        const int64_t rounds =
            (shortfall + cfg_.drr_quantum - 1) / cfg_.drr_quantum;
        min_rounds = std::min(min_rounds, rounds);
      }
      for (ClientLane& lane : cs.active)
        lane.deficit += min_rounds * cfg_.drr_quantum;
    }
  }
  if (expired.size() != expired_before) space_cv_.notify_all();
  return false;
}

bool RequestQueue::pop(Request& out) {
  std::vector<Request> expired;
  for (;;) {
    bool got = false, drained = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      ready_cv_.wait(lk, [this] { return closed_ || total_ > 0; });
      got = take_next(out, expired);
      drained = closed_ && total_ == 0;
    }
    settle_expired_list(expired, ExpiryPhase::kQueue);
    if (got) return true;
    if (drained) return false;
    // Everything visible had expired; block again for live work.
  }
}

bool RequestQueue::pop_until(Request& out,
                             std::chrono::steady_clock::time_point deadline) {
  std::vector<Request> expired;
  bool got;
  {
    std::unique_lock<std::mutex> lk(mu_);
    ready_cv_.wait_until(lk, deadline,
                         [this] { return closed_ || total_ > 0; });
    got = take_next(out, expired);
  }
  settle_expired_list(expired, ExpiryPhase::kQueue);
  return got;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

uint64_t RequestQueue::accepted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_;
}

uint64_t RequestQueue::rejected() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rejected_;
}

uint64_t RequestQueue::shed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_;
}

uint64_t RequestQueue::expired() const {
  std::lock_guard<std::mutex> lk(mu_);
  return expired_;
}

uint64_t RequestQueue::throttled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return throttled_;
}

}  // namespace mtlsplit::serve
