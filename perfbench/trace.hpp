// Span recording for the traced run.
//
// Spans live in one fixed-capacity in-memory array that is written out
// once the run ends, the way a DAQ readout stitches fragments into events
// by id: producers reserve slots by index, fill them independently, and the
// record is only read after every producer has been joined. A reservation
// beyond the capacity is counted as dropped instead of growing the array,
// so recording never allocates on the load path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the one clock every stamp in the benchmark
/// uses).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< static string; null = slot never filled
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< slot index of the enclosing span, -1 = root
  int64_t request = -1;  ///< request id; -1 for replay spans
};

class SpanStore {
 public:
  explicit SpanStore(size_t capacity) : spans_(capacity) {}

  /// Reserves @p n consecutive slots; returns the first index, or -1 when
  /// the store is full (the spans are then counted as dropped).
  int64_t reserve(size_t n);
  /// Fills a reserved slot. Each slot must be written by one thread only.
  void set(int64_t slot, const char* name, int64_t start_ns, int64_t end_ns,
           int64_t parent, int64_t request);
  /// Reserve + set in one call; returns the slot (or -1 when full).
  int64_t add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, int64_t request = -1);

  /// Filled spans (call only after every producer thread has joined).
  size_t recorded() const;
  int64_t dropped() const { return dropped_.load(); }

  /// Writes every span plus a per-name summary (count, median duration,
  /// median and total self time) as JSON. Self time is a span's duration
  /// minus the union of its children's intervals. Returns false when the
  /// file cannot be written.
  bool write_json(const std::string& path,
                  const std::string& fingerprint_json) const;

 private:
  std::vector<Span> spans_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> dropped_{0};
};

}  // namespace perfbench
