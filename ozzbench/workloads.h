// The four benchmark workloads. Each is a closed loop driven from one
// process and one caller thread, makes its inputs from the run seed, checks
// its own outputs, and counts failed operations against attempted ones.
//
// Untraced runs measure the end-to-end metrics for `seconds`. Traced runs do
// a fixed amount of work instead, so that the per-layer counts depend on the
// seed alone: they run the same seeded inputs once untraced and once traced,
// compare the two outputs, and take the tracing overhead from the two times.
#ifndef OZZBENCH_WORKLOADS_H_
#define OZZBENCH_WORKLOADS_H_

#include <string>

#include "ozzbench/harness.h"

namespace ozzbench {

struct RunConfig {
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  // traced runs: Chrome trace-event JSON of the spans
};

Result RunCampaign(const RunConfig& config);
Result RunHunt(const RunConfig& config);
Result RunReplay(const RunConfig& config);
Result RunSyscalls(const RunConfig& config);

}  // namespace ozzbench

#endif  // OZZBENCH_WORKLOADS_H_
