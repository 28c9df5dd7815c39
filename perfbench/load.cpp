#include "load.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

namespace perfbench {

namespace {

/// Longest the collector blocks on the oldest in-flight future before it
/// sweeps the others again: the stamp resolution of a completion that
/// overtakes the head of the queue.
constexpr int64_t kPollUs = 100;
/// After the last send, requests still unsettled this long are lost.
constexpr int64_t kDrainNs = 20'000'000'000;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Sleeps and timed waits of this thread wake on time instead of up to
/// the default 50 us late.
void tight_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

struct InFlight {
  int64_t id = 0;
  size_t image = 0;
  int64_t span = -1;
  RequestRecord rec;
  std::future<sc::InferenceResult> fut;
};

}  // namespace

bool same_logits(const sc::InferenceResult& a, const sc::InferenceResult& b) {
  if (a.logits.size() != b.logits.size()) return false;
  for (size_t j = 0; j < a.logits.size(); ++j)
    if (!a.logits[j].equals(b.logits[j])) return false;
  return true;
}

int64_t PhaseResult::count(Outcome o) const {
  int64_t n = 0;
  for (const RequestRecord& r : records) n += r.outcome == o;
  return n;
}

PhaseResult run_phase(Target& target, const std::vector<Tensor>& pool,
                      const std::vector<sc::InferenceResult>& refs,
                      const PhaseConfig& cfg) {
  PhaseResult out;
  const double cpu0 = process_cpu_s();
  std::mutex mu;
  std::condition_variable inbox_cv, slots_cv;
  std::deque<InFlight> inbox;  // guarded by mu
  bool sender_done = false;    // guarded by mu
  size_t free_slots = cfg.window;  // guarded by mu (closed loop)

  // A short lead so the first due time is not already in the past.
  out.start_ns = now_ns() + 1'000'000;
  out.end_ns = out.start_ns + static_cast<int64_t>(cfg.seconds * 1e9);

  std::thread sender([&] {
    tight_timer_slack();
    std::mt19937_64 gen(cfg.seed);
    std::exponential_distribution<double> gap(cfg.closed ? 1.0 : cfg.rate_rps);
    std::uniform_int_distribution<uint64_t> tenant(0, cfg.tenants - 1);
    std::uniform_int_distribution<size_t> image(0, pool.size() - 1);
    double due_s = 0.0;
    for (int64_t k = 0;; ++k) {
      int64_t due = 0;
      if (!cfg.closed) {
        due_s += gap(gen);
        due = out.start_ns + static_cast<int64_t>(due_s * 1e9);
        if (due >= out.end_ns) break;
      }
      InFlight f;
      f.id = k;
      f.image = image(gen);
      const uint64_t client = tenant(gen);
      Tensor x = pool[f.image];  // the client's copy, made before it is due
      if (cfg.closed) {
        std::unique_lock<std::mutex> lk(mu);
        const auto until = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(out.end_ns));
        if (!slots_cv.wait_until(lk, until, [&] { return free_slots > 0; }))
          break;
        --free_slots;
        due = now_ns();
        if (due >= out.end_ns) break;
      } else {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
      f.rec.due_ns = due;
      if (cfg.spans) f.span = cfg.spans->reserve(2);
      f.rec.submit_start_ns = now_ns();
      try {
        f.fut = target.submit(std::move(x), client);
      } catch (...) {
        std::promise<sc::InferenceResult> p;
        p.set_exception(std::current_exception());
        f.fut = p.get_future();
      }
      f.rec.submit_end_ns = now_ns();
      if (cfg.spans && f.span >= 0)
        cfg.spans->set(f.span + 1, "submit", f.rec.submit_start_ns,
                       f.rec.submit_end_ns, f.span, k);
      {
        std::lock_guard<std::mutex> lk(mu);
        inbox.push_back(std::move(f));
      }
      inbox_cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      sender_done = true;
    }
    inbox_cv.notify_one();
  });

  std::thread collector([&] {
    tight_timer_slack();
    const double thread_cpu0 = thread_cpu_s();
    std::deque<InFlight> live;  // send order; front = oldest
    int64_t drain_deadline = -1;
    auto settle = [&](InFlight& f, int64_t ready) {
      f.rec.ready_ns = ready;
      try {
        const sc::InferenceResult res = f.fut.get();
        f.rec.outcome = Outcome::kValue;
        if (f.image < refs.size()) {
          ++out.compared;
          if (!same_logits(res, refs[f.image])) ++out.mismatches;
        }
      } catch (const serve::RejectedError&) {
        f.rec.outcome = Outcome::kRefused;
      } catch (const serve::ThrottledError&) {
        f.rec.outcome = Outcome::kRefused;
      } catch (const serve::DeadlineExceededError&) {
        f.rec.outcome = Outcome::kRefused;
      } catch (...) {
        f.rec.outcome = Outcome::kError;
      }
      if (cfg.spans && f.span >= 0)
        cfg.spans->set(f.span, "request", f.rec.due_ns, ready, -1, f.id);
      out.records.push_back(f.rec);
      if (cfg.closed) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ++free_slots;
        }
        slots_cv.notify_one();
      }
    };
    while (true) {
      bool done = false;
      {
        std::unique_lock<std::mutex> lk(mu);
        if (live.empty())
          inbox_cv.wait(lk, [&] { return !inbox.empty() || sender_done; });
        while (!inbox.empty()) {
          live.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        done = sender_done;
      }
      if (live.empty() && done) break;
      for (auto it = live.begin(); it != live.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          settle(*it, now_ns());
          it = live.erase(it);
        } else {
          ++it;
        }
      }
      if (done && drain_deadline < 0) drain_deadline = now_ns() + kDrainNs;
      if (done && !live.empty() && now_ns() > drain_deadline) {
        for (InFlight& f : live) out.records.push_back(f.rec);  // kLost
        break;
      }
      if (!live.empty())
        live.front().fut.wait_for(std::chrono::microseconds(kPollUs));
    }
    out.collector_cpu_s = thread_cpu_s() - thread_cpu0;
  });

  sender.join();
  collector.join();
  out.process_cpu_s = process_cpu_s() - cpu0;
  return out;
}

}  // namespace perfbench
