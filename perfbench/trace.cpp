#include "trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>

#include "stats.hpp"

namespace perfbench {

int64_t SpanStore::reserve(size_t n) {
  const int64_t first = next_.fetch_add(static_cast<int64_t>(n));
  if (first + static_cast<int64_t>(n) > static_cast<int64_t>(spans_.size())) {
    dropped_.fetch_add(static_cast<int64_t>(n));
    return -1;
  }
  return first;
}

void SpanStore::set(int64_t slot, const char* name, int64_t start_ns,
                    int64_t end_ns, int64_t parent, int64_t request) {
  if (slot < 0) return;
  spans_[static_cast<size_t>(slot)] = {name, start_ns, end_ns, parent,
                                       request};
}

int64_t SpanStore::add(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, int64_t request) {
  const int64_t slot = reserve(1);
  set(slot, name, start_ns, end_ns, parent, request);
  return slot;
}

size_t SpanStore::recorded() const {
  const size_t used = std::min(spans_.size(),
                               static_cast<size_t>(std::max<int64_t>(
                                   0, next_.load())));
  size_t n = 0;
  for (size_t i = 0; i < used; ++i)
    if (spans_[i].name) ++n;
  return n;
}

bool SpanStore::write_json(const std::string& path,
                           const std::string& fingerprint_json) const {
  const size_t used = std::min(
      spans_.size(), static_cast<size_t>(std::max<int64_t>(0, next_.load())));

  // Children intervals per parent, clipped to the parent, for self time.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(used);
  int64_t epoch = INT64_MAX;
  for (size_t i = 0; i < used; ++i) {
    const Span& s = spans_[i];
    if (!s.name) continue;
    epoch = std::min(epoch, s.start_ns);
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < used)
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  struct Summary {
    std::vector<double> dur_us, self_us;
  };
  std::map<std::string, Summary> by_name;
  std::vector<double> self_us(used, 0.0);
  for (size_t i = 0; i < used; ++i) {
    const Span& s = spans_[i];
    if (!s.name) continue;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [b, e] : k) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    const double dur = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    self_us[i] = dur - 1e-3 * static_cast<double>(covered);
    by_name[s.name].dur_us.push_back(dur);
    by_name[s.name].self_us.push_back(self_us[i]);
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n\"fingerprint\": %s,\n", fingerprint_json.c_str());
  std::fprintf(f, "\"dropped\": %lld,\n",
               static_cast<long long>(dropped_.load()));
  std::fprintf(f, "\"summary\": {");
  bool first = true;
  for (const auto& [name, sm] : by_name) {
    double total_self = 0.0;
    for (double v : sm.self_us) total_self += v;
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %zu, \"median_us\": %.3f, "
                 "\"median_self_us\": %.3f, \"total_self_ms\": %.3f}",
                 first ? "" : ",", name.c_str(), sm.dur_us.size(),
                 quantile(sm.dur_us, 0.5), quantile(sm.self_us, 0.5),
                 1e-3 * total_self);
    first = false;
  }
  std::fprintf(f, "\n},\n");
  std::fprintf(f,
               "\"columns\": [\"id\", \"name\", \"start_us\", \"end_us\", "
               "\"parent\", \"request\", \"self_us\"],\n\"spans\": [");
  first = true;
  for (size_t i = 0; i < used; ++i) {
    const Span& s = spans_[i];
    if (!s.name) continue;
    std::fprintf(f, "%s\n[%zu, \"%s\", %.3f, %.3f, %lld, %lld, %.3f]",
                 first ? "" : ",", i, s.name,
                 1e-3 * static_cast<double>(s.start_ns - epoch),
                 1e-3 * static_cast<double>(s.end_ns - epoch),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), self_us[i]);
    first = false;
  }
  std::fprintf(f, "\n]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
