#include "ozzbench/layers.h"

#include <algorithm>

#include "ozzbench/syscall_mix.h"
#include "src/oemu/cell.h"
#include "src/oemu/runtime.h"
#include "src/osk/kernel.h"
#include "src/rt/machine.h"

namespace ozzbench {

using namespace ozz;

namespace {

constexpr int kWarmup = 20;
constexpr int kSamples = 201;

// Median of kSamples timings of `body` (microseconds) after kWarmup calls.
template <typename Fn>
double MedianUs(Fn body) {
  for (int i = 0; i < kWarmup; ++i) {
    body();
  }
  std::vector<double> us;
  for (int i = 0; i < kSamples; ++i) {
    const Clock::time_point t0 = Clock::now();
    body();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return Median(us);
}

// Two simulated threads that each Yield `yields` times; returns the number
// of context switches Machine::Run performed.
int PingPong(int yields) {
  rt::Machine machine(2);
  for (int t = 0; t < 2; ++t) {
    machine.AddThread(t == 0 ? "ping" : "pong", t, [yields] {
      for (int i = 0; i < yields; ++i) {
        rt::Machine::Current()->Yield();
      }
    });
  }
  return machine.Run();
}

// Store+load pairs on one cell; instrumented when a runtime is active.
constexpr int kAccessPairs = 4096;

void AccessLoop() {
  oemu::Cell<u64> cell{0};
  u64 v = 0;
  for (int i = 0; i < kAccessPairs; ++i) {
    OSK_STORE(cell, v + 1);
    v = OSK_LOAD(cell);
    asm volatile("" : : "g"(&cell) : "memory");
  }
}

}  // namespace

Probes RunProbes(u64 seed) {
  Probes p;
  p.kernel_init_us = MedianUs([] {
    oemu::Runtime runtime;
    rt::Machine machine(2);
    runtime.Activate(&machine);
    {
      osk::Kernel kernel;
      kernel.Attach(&machine, &runtime);
      osk::InstallDefaultSubsystems(kernel);
    }
    runtime.Deactivate();
  });
  // Runtime and machine construction are in the sample above; take them out.
  p.kernel_init_us -= MedianUs([] {
    oemu::Runtime runtime;
    rt::Machine machine(2);
    runtime.Activate(&machine);
    runtime.Deactivate();
  });

  p.machine_run_us = MedianUs([] { PingPong(0); });
  constexpr int kYields = 50;
  const int switches = PingPong(kYields) - PingPong(0);
  p.switch_us = (MedianUs([] { PingPong(kYields); }) - p.machine_run_us) / switches;

  p.plain_access_ns = MedianUs(AccessLoop) * 1000.0 / (2 * kAccessPairs);
  p.access_ns = MedianUs([] {
                  oemu::Runtime runtime;
                  runtime.Activate(nullptr);
                  AccessLoop();
                  runtime.Deactivate();
                }) *
                1000.0 / (2 * kAccessPairs);

  // The Table-5 mix on kernels with no runtime attached; kernel construction
  // is outside the timed part.
  const std::vector<MixCall> stream = MakeMixStream(DeriveSeed(seed, 0x5eed), 500);
  std::vector<double> us;
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    osk::Kernel kernel;
    osk::InstallDefaultSubsystems(kernel);
    const Clock::time_point t0 = Clock::now();
    RunMix(stream, kernel);
    if (i >= kWarmup) {
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
                   static_cast<double>(stream.size()));
    }
  }
  p.plain_syscall_us = Median(us);
  return p;
}

void AddLayerMetrics(const Tracer& tracer, const LayerCounts& c, const Probes& probes,
                     double trace_overhead, Result* result) {
  const std::map<std::string, Tracer::Totals> spans = tracer.Summarize();
  const Tracer::Totals no_spans;
  auto add = [&](std::string name, double value, const char* unit, std::size_t n = 1) {
    result->metrics.push_back({std::move(name), value, unit, n, ""});
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // calls and self_s of a span name, optionally its latency percentiles;
  // `child_s` is time measured inside the span without a span of its own.
  auto add_span = [&](const std::string& name, bool p50, bool p99, double child_s = 0) {
    auto it = spans.find(name);
    const Tracer::Totals& t = it == spans.end() ? no_spans : it->second;
    add(name + ".calls", static_cast<double>(t.calls), "count");
    add(name + ".self_s", std::max(0.0, t.self_s - child_s), "s", t.calls);
    std::vector<double> us;
    for (double d : t.durations_s) {
      us.push_back(d * 1e6);
    }
    if (p50) {
      add(name + ".us.p50", Median(us), "us", us.size());
    }
    if (p99) {
      add(name + ".us.p99", Percentile(us, 99), "us", us.size());
    }
  };

  add_span("fuzz.generate", false, false);
  add_span("fuzz.report", false, false);
  add_span("fuzz.profile", true, false);
  // The axiomatic tier runs inside ComputeHints.
  add_span("fuzz.hints", true, true, c.axiomatic_s);
  add("fuzz.hints.generated", static_cast<double>(c.hints.hints_generated), "count");
  add("fuzz.hints.emitted", static_cast<double>(c.hints_emitted), "count");
  add("fuzz.hints.pruned_static", static_cast<double>(c.hints.hints_pruned_static), "count");
  add("fuzz.hints.pruned_axiomatic", static_cast<double>(c.hints.hints_pruned_axiomatic),
      "count");
  add("fuzz.hints.repeat_ratio", ratio(c.hint_repeats, c.hint_calls), "ratio", c.hint_calls);
  add_span("fuzz.execute", true, true);
  add("fuzz.execute.switch_fired_ratio", ratio(c.switch_fired, c.mti), "ratio", c.mti);
  add("fuzz.execute.hint_hit_ratio", ratio(c.hint_hit, c.mti), "ratio", c.mti);
  add("fuzz.execute.crash_ratio", ratio(c.crashed, c.mti), "ratio", c.mti);

  add("analysis.pairs.candidates", static_cast<double>(c.hints.pairs.candidates()), "count");
  add("analysis.pairs.proven", static_cast<double>(c.hints.pairs.proven()), "count");
  const u64 checks = c.hints.pairs_witnessed + c.hints.pairs_refuted + c.hints.pairs_bounded;
  add("analysis.axiomatic.checks", static_cast<double>(checks), "count");
  add("analysis.axiomatic.witnessed", static_cast<double>(c.hints.pairs_witnessed), "count");
  add("analysis.axiomatic.refuted", static_cast<double>(c.hints.pairs_refuted), "count");
  add("analysis.axiomatic.bounded", static_cast<double>(c.hints.pairs_bounded), "count");
  add("analysis.axiomatic.self_s", c.axiomatic_s, "s", c.hint_calls);
  add("analysis.axiomatic.ms_per_check", ratio(c.axiomatic_s * 1e3, checks), "ms", checks);

  add("osk.kernel_init_us", probes.kernel_init_us, "us", kSamples);
  add("osk.plain_syscall_us", probes.plain_syscall_us, "us", kSamples);
  add_span("osk.syscall", false, false);
  add("rt.machine_run_us", probes.machine_run_us, "us", kSamples);
  add("rt.switch_us", probes.switch_us, "us", kSamples);
  add("oemu.access_ns", probes.access_ns, "ns", kSamples);
  add("oemu.plain_access_ns", probes.plain_access_ns, "ns", kSamples);
  add("oemu.accesses", static_cast<double>(c.runtime.loads + c.runtime.stores), "count");
  add("oemu.delayed_stores", static_cast<double>(c.runtime.delayed_stores), "count");
  add("oemu.versioned_load_hits", static_cast<double>(c.runtime.versioned_load_hits), "count");
  add("oemu.commits", static_cast<double>(c.runtime.commits), "count");
  add("obs.trace_overhead", trace_overhead, "ratio");
}

}  // namespace ozzbench
