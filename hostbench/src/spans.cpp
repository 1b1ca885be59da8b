#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hostbench {

int SpanLog::add(const char* name, std::int64_t start_ns,
                 std::int64_t end_ns, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::open(const char* name, std::int64_t start_ns, int parent,
                  std::uint64_t request) {
  return add(name, start_ns, start_ns, parent, request);
}

void SpanLog::close(int id, std::int64_t end_ns) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::uint64_t SpanLog::next_request() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Self time: the span minus the union of its children, each clipped
    // to the span (children on other threads may overhang it).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    const double self = duration - static_cast<double>(covered);
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self;
    t.durations_ns.push_back(duration);
    t.self_samples_ns.push_back(self);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"clock\": \"host steady_clock ns\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hostbench
