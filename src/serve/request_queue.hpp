// Multi-client request intake for the serving layer (DESIGN.md §8).
//
// N client threads submit single-sample (or small-batch) inputs and get a
// future for the per-task logits back; the server side pops requests —
// singly or, via serve::DynamicBatcher, in coalesced batches.
//
// Dequeue order is priority-then-fairness: strict priority across the
// three classes (kHigh before kNormal before kLow), and within a class a
// deficit-round-robin (DRR) scan over per-client FIFO lanes, where a
// request costs its row count against the client's deficit. A client that
// floods the queue therefore cannot starve the others: backlogged clients
// are served rows in quantum-sized proportions, and a client's own
// requests still complete in submission order.
//
// Admission is a three-stage gate, applied in order:
//
//   1. Deadline — a request whose SubmitOptions deadline (or ttl) has
//      already passed is settled immediately with DeadlineExceededError
//      (phase kAdmission). Queued requests that expire while waiting are
//      purged on pop (phase kQueue) — dead work never reaches a worker.
//   2. Quota — per-tenant token buckets (QuotaSpec rate/burst, in rows)
//      refuse a submission that exceeds its client's sustained rate with
//      a typed ThrottledError carrying a retry-after estimate. Quotas sit
//      *above* DRR: DRR divides the capacity the queue admitted, quotas
//      bound what each tenant may ask for in the first place.
//   3. Capacity — AdmissionConfig policy as before: Block waits for space
//      (bounded by the request's deadline when it has one), Reject settles
//      the future immediately with RejectedError, and ShedOldest evicts
//      the oldest queued request of the lowest backlogged class at or
//      below the newcomer's priority (shedding never inverts priority).
//
// Whatever the path, every submitted request is settled exactly once:
// logits, a server error, RejectedError, ThrottledError, or
// DeadlineExceededError. A non-streaming request settles through its
// Completion, called on whichever thread decides the outcome: a worker,
// the submitting thread at an admission gate, the submitter whose arrival
// sheds it (queue lock held), or a pop that finds it expired.
//
// close() rejects new submissions while letting consumers drain what is
// queued, which is how ScServer shuts down without dropping accepted work.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "sc/deployment.hpp"

namespace mtlsplit::telemetry {
class Registry;
class Counter;
class Gauge;
}  // namespace mtlsplit::telemetry

namespace mtlsplit::serve {

/// Priority classes, highest first; dequeue is strict across classes.
enum class Priority : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr size_t kNumPriorityClasses = 3;

/// Typed admission failure delivered through the request's future: the
/// request was refused at the door (Reject) or evicted from the queue to
/// make room for a newer arrival (ShedOldest).
class RejectedError : public std::runtime_error {
 public:
  RejectedError(const std::string& what, bool shed)
      : std::runtime_error(what), shed_(shed) {}
  /// True when the request had been admitted and was later shed.
  bool shed() const { return shed_; }

 private:
  bool shed_;
};

/// Where in its lifecycle an expired request was caught.
enum class ExpiryPhase : uint8_t {
  kAdmission,  ///< deadline already past when submit() ran
  kQueue,      ///< expired while queued; purged on pop
  kDispatch    ///< expired in the batcher's coalescing window, pre-dispatch
};

/// Typed deadline failure delivered through the request's future. The
/// request never reached the model; phase() says how far it got.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError(const std::string& what, ExpiryPhase phase)
      : std::runtime_error(what), phase_(phase) {}
  ExpiryPhase phase() const { return phase_; }

 private:
  ExpiryPhase phase_;
};

/// Typed quota failure: the client's token bucket could not cover the
/// request's row cost. retry_after_s() estimates when it could.
class ThrottledError : public std::runtime_error {
 public:
  ThrottledError(const std::string& what, double retry_after_s)
      : std::runtime_error(what), retry_after_s_(retry_after_s) {}
  double retry_after_s() const { return retry_after_s_; }

 private:
  double retry_after_s_;
};

/// What to do with a submission that finds the queue at capacity.
enum class AdmissionPolicy { kBlock, kReject, kShedOldest };

/// Per-tenant token bucket: a client may hold at most @c burst rows of
/// credit and earns @c rate rows per second. Each submission costs its
/// row count. rate == 0 disables the quota entirely.
struct QuotaSpec {
  double rate = 0.0;  ///< rows refilled per second; 0 = unlimited
  double burst = 1.0; ///< bucket capacity in rows (also the initial fill);
                      ///< a request with more rows than burst is refused
                      ///< permanently (ThrottledError with infinite
                      ///< retry_after_s)
};

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// Bound on queued (accepted, not yet dispatched) requests; 0 = unbounded.
  size_t capacity = 0;
  /// Per-class depth limits, indexed by Priority; 0 = no class limit.
  std::array<size_t, kNumPriorityClasses> class_capacity = {0, 0, 0};
  /// Rows of credit a client lane earns per DRR visit. Larger quanta
  /// trade fairness granularity for fewer cursor rotations.
  int64_t drr_quantum = 1;
  /// Token-bucket quota applied to every client without an override.
  QuotaSpec quota;
  /// Per-tenant quota overrides, keyed by client_id.
  std::unordered_map<uint64_t, QuotaSpec> client_quota;
};

/// Per-submission routing metadata.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Fairness identity: requests sharing a client_id share one FIFO lane,
  /// one DRR deficit and one quota bucket. 0 is a valid (shared) identity.
  uint64_t client_id = 0;
  /// Absolute end-to-end deadline; max() = none. Checked at admission, on
  /// every pop, and again just before batch dispatch.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Relative deadline; when nonzero, deadline = now + ttl at submit()
  /// (the tighter of the two wins if both are set).
  std::chrono::microseconds ttl{0};
};

/// The one settlement path of a non-streaming request: a move-only,
/// one-shot callable run exactly once, with the result or (when @p error
/// is non-null) the error, on whichever thread settles the request. It may
/// run with a queue lock held (a ShedOldest eviction) or inline in
/// submit() (a refusal at admission), so it must be short, must not
/// throw, and must not take any lock that its owner holds across a call
/// into the server. The callable is stored inline: no allocation. A call
/// spends it; calling an empty or spent Completion throws
/// std::logic_error, as a second set_value on a promise would.
class Completion {
 public:
  static constexpr size_t kInlineBytes = 48;

  Completion() noexcept = default;
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Completion> &&
             std::is_invocable_v<std::remove_cvref_t<F>&,
                                 sc::InferenceResult&&, std::exception_ptr>)
  Completion(F&& f) {  // implicit: a lambda converts
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "Completion: callable too large to store inline");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "Completion: callable must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }
  Completion(Completion&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_) ops_->relocate(o.buf_, buf_);
  }
  Completion& operator=(Completion&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_) ops_->relocate(o.buf_, buf_);
    }
    return *this;
  }
  ~Completion() { reset(); }

  /// Runs the callable once and destroys it; *this is empty afterwards.
  void operator()(sc::InferenceResult&& result, std::exception_ptr error) {
    const Ops* ops = std::exchange(ops_, nullptr);
    if (!ops) [[unlikely]]
      throw std::logic_error("Completion: called empty or twice");
    ops->call(buf_, std::move(result), std::move(error));
  }

 private:
  struct Ops {
    void (*call)(void* fn, sc::InferenceResult&&, std::exception_ptr);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* fn) noexcept;
  };
  template <class Fn>
  static constexpr Ops kOps = {
      [](void* p, sc::InferenceResult&& r, std::exception_ptr e) {
        Fn& fn = *static_cast<Fn*>(p);
        struct Destroy {
          Fn& fn;
          ~Destroy() { fn.~Fn(); }
        } guard{fn};
        fn(std::move(r), std::move(e));
      },
      [](void* from, void* to) noexcept {
        Fn& src = *static_cast<Fn*>(from);
        ::new (to) Fn(std::move(src));
        src.~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};

  void reset() noexcept {
    if (const Ops* ops = std::exchange(ops_, nullptr)) ops->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The completion behind every future-returning submit(): settles @p p.
Completion promise_completion(std::promise<sc::InferenceResult> p);

/// One in-flight client request: the input plus how its logits (or its
/// error) are delivered.
struct Request {
  uint64_t id = 0;
  Tensor x;  ///< [B, C, H, W]; B >= 1 (B > 1 = client-side batch)
  Priority priority = Priority::kNormal;
  uint64_t client_id = 0;
  bool streaming = false;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Called exactly once when !streaming.
  Completion done;
  /// One promise per sample row when streaming: chunk i is settled as the
  /// pipeline emits row i (ScDeployment::infer_stream + on_item).
  std::vector<std::promise<sc::InferenceResult>> chunk_promises;
  std::chrono::steady_clock::time_point enqueued_at;

  int64_t rows() const { return x.size(0); }
  bool expired(std::chrono::steady_clock::time_point now) const {
    return deadline <= now;
  }
};

/// Settles every request in @p batch whose deadline has passed @p now with
/// DeadlineExceededError (phase kDispatch) and removes it, preserving the
/// order of the survivors. Returns how many expired. ScServer runs this on
/// every coalesced batch right before dispatch, so a request that aged out
/// in the batcher's wait window never reaches infer_batch.
size_t expire_overdue(std::vector<Request>& batch,
                      std::chrono::steady_clock::time_point now);

class RequestQueue {
 public:
  /// Legacy constructor: capacity with blocking backpressure.
  explicit RequestQueue(size_t capacity = 0) {
    cfg_.capacity = capacity;
  }
  explicit RequestQueue(AdmissionConfig cfg);

  /// Enqueues @p x and returns the future its result arrives on. Throws
  /// std::runtime_error once the queue is closed, std::invalid_argument
  /// for malformed input. The returned future may already be settled:
  /// DeadlineExceededError (deadline pre-expired), ThrottledError (quota),
  /// or RejectedError (Reject at capacity). Under ShedOldest the newcomer
  /// is admitted and some older queued request's future gets RejectedError.
  /// This is submit(x, opts, promise_completion(...)).
  std::future<sc::InferenceResult> submit(Tensor x, SubmitOptions opts = {});

  /// Enqueues @p x; @p done is called exactly once with its outcome, the
  /// same outcomes as above. A refusal at admission calls @p done inline,
  /// before this returns; a ShedOldest admission calls an older request's
  /// completion inline, with the queue lock held. When this throws, @p done
  /// is never called.
  void submit(Tensor x, SubmitOptions opts, Completion done);

  /// Streaming submission: the request is served through the pipelined
  /// ScDeployment::infer_stream and each sample row's result arrives on
  /// its own future, in row order, as the pipeline emits it. Admission
  /// rules are identical to submit(); a refusal settles every chunk.
  std::vector<std::future<sc::InferenceResult>> submit_stream(
      Tensor x, SubmitOptions opts = {});

  /// Closes intake: subsequent submit() throws, pops drain the remainder.
  void close();

  /// Pops the next request in priority/DRR order; blocks until one
  /// arrives or the queue is closed and empty (then returns false).
  /// Requests that expired while queued are settled with
  /// DeadlineExceededError (phase kQueue) and never returned.
  bool pop(Request& out);

  /// Pops one request if one is available before @p deadline; returns
  /// false on timeout or when closed and empty. A deadline in the past
  /// degenerates to a try-pop.
  bool pop_until(Request& out,
                 std::chrono::steady_clock::time_point deadline);

  size_t size() const;
  bool closed() const;
  /// Total requests ever admitted (also the id of the next admission).
  uint64_t accepted() const;
  /// Requests refused at admission (Reject policy).
  uint64_t rejected() const;
  /// Admitted requests later evicted (ShedOldest policy).
  uint64_t shed() const;
  /// Requests settled with DeadlineExceededError by this queue (admission
  /// or on-pop purge; pre-dispatch expiry is counted by the server).
  uint64_t expired() const;
  /// Requests refused by a tenant quota (ThrottledError).
  uint64_t throttled() const;

  const AdmissionConfig& admission() const { return cfg_; }

  /// Replaces the total capacity bound at runtime — the SLO controller's
  /// admission actuator. Growing it wakes blocked submitters; shrinking
  /// never evicts already-queued requests, it only gates new admissions.
  void set_capacity(size_t capacity);

  /// Registers this queue's admission tallies and depth gauge under
  /// @p prefix (e.g. "serve/shard0/queue") in @p reg: counters
  /// accepted/rejected/shed/expired/throttled plus gauge depth. Call
  /// before concurrent use; the queue then updates the tree on every
  /// admission decision. Registration is idempotent, so the collector
  /// reading these paths shares the same metrics.
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

 private:
  /// One client's FIFO lane within a priority class.
  struct ClientLane {
    uint64_t client = 0;
    int64_t deficit = 0;
    std::deque<Request> q;
  };
  /// DRR state for one priority class.
  struct ClassState {
    std::list<ClientLane> active;  // round-robin ring of backlogged clients
    std::list<ClientLane>::iterator cursor = active.end();
    bool visited = false;  // quantum already granted at the cursor lane
    std::unordered_map<uint64_t, std::list<ClientLane>::iterator> index;
    size_t depth = 0;  // queued requests in this class
  };
  /// Token-bucket state for one client_id.
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last;
  };

  void enqueue_or_reject(Request&& r);  // applies the admission gate
  bool full_for(size_t cls) const;      // locked
  void shed_one(size_t cls);            // locked; evicts ShedOldest victim
  const QuotaSpec& quota_for(uint64_t client_id) const;  // locked
  /// Locked. Returns true when the quota admits r (tokens consumed,
  /// *cost_consumed set); false with *retry_after_s filled when it
  /// throttles (infinity when r's rows exceed the bucket's burst and the
  /// refusal is permanent).
  bool quota_admits(const Request& r,
                    std::chrono::steady_clock::time_point now,
                    double* retry_after_s, double* cost_consumed);
  /// Locked. Returns tokens for a request that was refused after its
  /// quota was charged — a tenant only pays for admitted requests.
  void refund_quota(uint64_t client_id, double cost);
  void erase_lane(ClassState& cs, std::list<ClientLane>::iterator it);
  /// Locked. Pops the next live request into @p out; moves requests that
  /// expired while queued into @p expired (settle them after unlocking).
  bool take_next(Request& out, std::vector<Request>& expired);
  /// Locked. Mirrors a tally/depth change into the telemetry tree; no-ops
  /// until bind_telemetry ran.
  void note_admitted_locked();
  void note_depth_locked();

  static void settle_rejected(Request& r, bool shed);
  static void settle_error(Request& r, std::exception_ptr err);
  static void settle_expired_list(std::vector<Request>& expired,
                                  ExpiryPhase phase);

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;  // queue non-empty or closed
  std::condition_variable space_cv_;  // space freed or closed
  std::array<ClassState, kNumPriorityClasses> classes_;
  std::unordered_map<uint64_t, Bucket> buckets_;
  size_t total_ = 0;
  AdmissionConfig cfg_;
  uint64_t next_id_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t expired_ = 0;
  uint64_t throttled_ = 0;
  bool closed_ = false;
  /// Telemetry-tree mirrors of the tallies above (null until bound). The
  /// uint64_t members stay authoritative for the accessor methods; the
  /// tree carries the same increments for the exporter and the collector.
  struct TelemetryRefs {
    telemetry::Counter* accepted = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* expired = nullptr;
    telemetry::Counter* throttled = nullptr;
    telemetry::Gauge* depth = nullptr;
  };
  TelemetryRefs tm_;
};

}  // namespace mtlsplit::serve
