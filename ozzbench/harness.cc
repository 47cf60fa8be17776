#include "ozzbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ozzbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(const std::vector<double>& samples) { return Percentile(samples, 50); }

int TailLevel(std::size_t n) {
  for (int level = 99; level > 50; --level) {
    const double rank = std::ceil(level / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - rank >= 10) {
      return level;
    }
  }
  return 50;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void AddEndToEnd(const EndToEnd& e2e, Result* result) {
  const std::size_t n = e2e.op_ms.size();
  const int tail = TailLevel(n);
  result->metrics.push_back({"ops_per_s", static_cast<double>(e2e.ops) / e2e.measured_s, "1/s",
                             static_cast<std::size_t>(e2e.ops),
                             e2e.rate_of + " per wall second"});
  result->metrics.push_back({"op_ms.p50", Median(e2e.op_ms), "ms", n, e2e.op_name + ", median"});
  result->metrics.push_back({"op_ms.tail", Percentile(e2e.op_ms, tail), "ms", n,
                             e2e.op_name + ", p" + std::to_string(tail) +
                                 (tail == 50 ? " (too few samples for a tail)" : "")});
  result->metrics.push_back({"setup_s", Median(e2e.setup_s), "s", e2e.setup_s.size(),
                             "median of repeated set-ups"});
  result->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage maxrss"});
}

Tracer::Tracer() : t0_(Clock::now()) {}

std::size_t Tracer::Begin(const char* name) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, parent, SecondsSince(t0_), -1});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(std::size_t id) {
  spans_[id].end_s = SecondsSince(t0_);
  open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_s >= 0) {
      child_s[s.parent] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < 0) {
      continue;
    }
    Totals& t = out[s.name];
    const double d = s.end_s - s.start_s;
    ++t.calls;
    t.self_s += d - child_s[i];
    t.durations_s.push_back(d);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path, std::size_t limit) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "],\"spans_total\":%zu,\"spans_written\":%zu}\n", spans_.size(), n);
  return std::fclose(f) == 0;
}

u64 DeriveSeed(u64 seed, u64 index) {
  u64 z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace ozzbench
