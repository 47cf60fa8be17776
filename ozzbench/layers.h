// Per-layer metrics of the traced run: warmed-up probes of single layers,
// made from their public calls only, and the assembly of every per-layer
// metric from the probes, the spans and the LayerCounts.
#ifndef OZZBENCH_LAYERS_H_
#define OZZBENCH_LAYERS_H_

#include "ozzbench/harness.h"
#include "ozzbench/pipeline.h"

namespace ozzbench {

struct Probes {
  double kernel_init_us = 0;    // osk::Kernel construct + install + destroy, as RunMti does
  double plain_syscall_us = 0;  // mix syscall on a kernel with no runtime attached
  double machine_run_us = 0;    // rt::Machine(2) with two empty threads, Run()
  double switch_us = 0;         // one Machine::Yield handoff between two threads
  double access_ns = 0;         // OSK_STORE/OSK_LOAD on an active oemu::Runtime
  double plain_access_ns = 0;   // the same accesses with no runtime active
};

Probes RunProbes(u64 seed);

// Appends every per-layer metric. `trace_overhead` is the traced pass's
// wall time over the untraced pass's.
void AddLayerMetrics(const Tracer& tracer, const LayerCounts& counts, const Probes& probes,
                     double trace_overhead, Result* result);

}  // namespace ozzbench

#endif  // OZZBENCH_LAYERS_H_
