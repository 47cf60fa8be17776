// Shared pieces of the ozzbench harness: sample statistics, the span tracer
// the traced runs record around calls into each layer, and the result a
// workload hands back to main.cc for printing.
//
// Layer names are the module names under src/: fuzz, analysis, oemu, rt,
// osk, obs. Spans are recorded only from the harness's own code, around the
// public calls it makes into those layers; nothing inside src/ is timed.
#ifndef OZZBENCH_HARNESS_H_
#define OZZBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/base/ids.h"

namespace ozzbench {

using ozz::i64;
using ozz::u64;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank percentile of `samples` at level `p` in [0, 100]; 0 when
// empty. Takes a copy because it sorts.
double Percentile(std::vector<double> samples, double p);
double Median(const std::vector<double>& samples);

// The highest whole percentile level in [50, 99] that leaves at least ten
// samples beyond it; 50 when there are too few samples for any tail.
int TailLevel(std::size_t n);

// One reported metric. `samples` is how many measurements the value
// summarizes (printed, not part of the result JSON); `detail` is a free-form
// note for the human-readable line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
  std::string detail;
};

// What a workload run returns: `failed` counts the operations among
// `attempted` whose output check failed (the run is correct when it is 0).
struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra human-readable lines
};

// Timed inputs of the end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;  // one sample per repeated set-up
  std::vector<double> op_ms;    // one sample per operation
  u64 ops = 0;                  // units of work completed in the measured window
  double measured_s = 0;        // wall time of the measured window
  std::string rate_of;          // what ops_per_s counts, for the printout
  std::string op_name;          // what one op_ms sample times, for the printout
};

// Appends ops_per_s, op_ms.p50, op_ms.tail, setup_s and peak_rss_mb.
void AddEndToEnd(const EndToEnd& e2e, Result* result);

double PeakRssMb();

// In-memory span recorder. Spans nest by call order on the one caller
// thread; a span's self time is its duration minus its direct children's.
class Tracer {
 public:
  Tracer();

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_;
  };

  std::size_t Begin(const char* name);
  void End(std::size_t id);

  struct Totals {
    u64 calls = 0;
    double self_s = 0;
    std::vector<double> durations_s;
  };
  // Aggregates every closed span by name.
  std::map<std::string, Totals> Summarize() const;

  // Writes the spans as Chrome trace-event JSON (first `limit` spans).
  bool WriteChromeTrace(const std::string& path, std::size_t limit) const;

 private:
  struct Span {
    const char* name;
    std::size_t parent;  // kNoParent for roots
    double start_s;
    double end_s;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Mixes a run seed with a stream index into an independent seed.
u64 DeriveSeed(u64 seed, u64 index);

}  // namespace ozzbench

#endif  // OZZBENCH_HARNESS_H_
