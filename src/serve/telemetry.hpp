// Always-on hierarchical telemetry tree (DESIGN.md §11).
//
// Every layer of the system — request queues, the batcher, the wire
// channel, the autoscaler, the runtime thread pool — registers metrics by
// '/'-separated path (e.g. "serve/shard0/queue/expired",
// "sc/link/fec_repaired", "runtime/pool/tasks") in a Registry and then
// updates them without ever touching the tree again: registration hands
// back a stable reference, and the hot-path update on that reference is
// O(1), allocation-free and wait-bounded (counters and gauges are single
// relaxed atomics; a histogram is guarded by its own one-word spinlock, so
// contention is sharded per metric instead of funnelled through one
// collector mutex). One exporter walks the tree into nested JSON.
//
// Three metric kinds:
//  * Counter   — monotone int64, saturating at INT64_MAX (months-long
//                servers clamp instead of wrapping negative);
//  * Gauge     — last-written double, with atomic add and max updates for
//                accumulating time sums and watermarks;
//  * Histogram — P²-backed streaming p50/p95/p99 + count/sum/max
//                (serve/p2_quantile.hpp): constant memory whatever the
//                stream length, drainable for windowed feedback control
//                (serve/slo_controller.hpp).
//
// A path names either a metric (leaf) or an interior node, never both;
// registering the same path twice with the same kind returns the same
// metric (so independent producers may share a counter), while a kind
// mismatch or a leaf/interior conflict throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "serve/p2_quantile.hpp"

namespace mtlsplit::telemetry {

/// a + b clamped to [INT64_MIN, INT64_MAX]; both operands non-negative in
/// practice, so the relevant clamp is the upper one.
inline int64_t saturating_add(int64_t a, int64_t b) noexcept {
  if (b >= 0 && a > std::numeric_limits<int64_t>::max() - b)
    return std::numeric_limits<int64_t>::max();
  if (b < 0 && a < std::numeric_limits<int64_t>::min() - b)
    return std::numeric_limits<int64_t>::min();
  return a + b;
}

/// One-word spinlock guarding a single histogram's marker state. The
/// critical sections it protects are a handful of arithmetic operations
/// (one P² fold per tracked quantile), so spinning beats parking; being a
/// plain atomic_flag it is noexcept and allocation-free, which is what
/// lets Histogram::observe carry the same hot-path bound as the atomics.
class SpinLock {
 public:
  void lock() noexcept {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_;
};

/// Monotone saturating counter. add() is a CAS loop — lock-free,
/// allocation-free, clamping at INT64_MAX instead of wrapping. add()
/// releases and value() acquires, so a reader that sees a count also sees
/// what the writer did before counting (a server settles a request before
/// it counts it).
class Counter {
 public:
  void add(int64_t n) noexcept {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, saturating_add(cur, n),
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
    }
  }
  void inc() noexcept { add(1); }
  int64_t value() const noexcept { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Last-written double with atomic accumulate/watermark updates.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of a histogram's state. A flat value type (the P²
/// estimators are trivially copyable), so snapshots can be handed across
/// threads and compared byte-for-byte.
struct HistSnapshot {
  serve::P2Quantile q50{0.50}, q95{0.95}, q99{0.99};
  double max = 0.0;
  double sum = 0.0;
  int64_t count = 0;

  /// Quantile estimates clamped monotone in p: with few samples the three
  /// independent P² marker sets can momentarily cross.
  double p50() const { return q50.value(); }
  double p95() const { return p50() > q95.value() ? p50() : q95.value(); }
  double p99() const { return p95() > q99.value() ? p95() : q99.value(); }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// P²-backed streaming histogram: p50/p95/p99 estimates plus count, sum
/// and max, in constant memory. observe() folds one sample under the
/// metric's own spinlock — O(1), no allocation. drain() atomically takes
/// the state and resets it, which is how the SLO controller reads
/// per-interval latency windows off the shared tree.
class Histogram {
 public:
  void observe(double x) noexcept {
    std::lock_guard<SpinLock> lk(mu_);
    state_.q50.add(x);
    state_.q95.add(x);
    state_.q99.add(x);
    if (x > state_.max) state_.max = x;
    state_.sum += x;
    state_.count = saturating_add(state_.count, 1);
  }
  HistSnapshot snapshot() const noexcept {
    std::lock_guard<SpinLock> lk(mu_);
    return state_;
  }
  HistSnapshot drain() noexcept {
    std::lock_guard<SpinLock> lk(mu_);
    const HistSnapshot out = state_;
    state_ = HistSnapshot{};
    return out;
  }

 private:
  mutable SpinLock mu_;
  HistSnapshot state_;
};

/// The metrics tree. Registration (cold path) is mutex-guarded and
/// idempotent per (path, kind); the references it returns stay valid for
/// the Registry's lifetime (metrics live in deques and are never moved).
/// Updates through those references never touch the registry again.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) the metric at @p path. Throws
  /// std::invalid_argument on a malformed path, a kind mismatch with an
  /// existing metric, or a leaf/interior-node conflict.
  Counter& counter(const std::string& path);
  Gauge& gauge(const std::string& path);
  Histogram& histogram(const std::string& path);

  /// Lookup without registration; nullptr when @p path is absent or a
  /// different kind.
  const Counter* find_counter(const std::string& path) const;
  const Gauge* find_gauge(const std::string& path) const;
  const Histogram* find_histogram(const std::string& path) const;

  /// Value reads that throw std::invalid_argument when the metric is
  /// absent — the exporter-adjacent convenience for tests and snapshots.
  int64_t counter_value(const std::string& path) const;
  double gauge_value(const std::string& path) const;

  /// Number of registered metrics (leaves).
  size_t size() const;

  /// Walks the whole tree into nested JSON, keys sorted. A node whose
  /// children are exactly the counters "0".."n-1" renders as an integer
  /// array (bucketed histograms stay compact); a histogram renders as
  /// {"count","mean","p50","p95","p99","max"}.
  std::string to_json() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    Counter* c = nullptr;
    Gauge* g = nullptr;
    Histogram* h = nullptr;
  };
  using Map = std::map<std::string, Entry>;

  Entry& entry_locked(const std::string& path, Kind kind);
  const Entry* find_locked(const std::string& path, Kind kind) const;
  void render(Map::const_iterator begin, Map::const_iterator end,
              size_t depth, std::string& out) const;

  mutable std::mutex mu_;
  Map entries_;
  // Deque storage: references handed out must survive later registrations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// The process-wide tree. Layers without a natural owner (the runtime
/// thread pool) report here; ScServer instances each own a private
/// Registry instead, so two servers in one process never collide.
Registry& global();

}  // namespace mtlsplit::telemetry
