// ozzbench: the repository's benchmark harness.
//
//   ozzbench --workload campaign|hunt|replay|syscalls --seed N --seconds S
//            --trace 0|1 [--spans-out PATH]
//
// Pins the process to the CPU it starts on (rt::Machine runs one simulated
// thread at a time and hands the token between OS threads; unpinned, the
// cross-CPU wake-ups dominate what is measured), prints an environment
// stamp, one line per metric, and as the last line a JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer ones from a traced run.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ozzbench/workloads.h"
#include "src/base/log.h"

namespace {

using namespace ozzbench;

#ifdef OZZ_TRACE_ENABLED
constexpr bool kTraceCompiled = true;
#else
constexpr bool kTraceCompiled = false;
#endif
#ifdef OZZ_PROF_ENABLED
constexpr bool kProfCompiled = true;
#else
constexpr bool kProfCompiled = false;
#endif

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ozzbench: %s\nusage: ozzbench --workload campaign|hunt|replay|syscalls "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
               why);
  std::exit(2);
}

bool ParseU64(const char* s, u64* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *s != '\0' && *end == '\0';
}

// Pins the calling thread, and so every thread it creates later, to the CPU
// it is running on. Returns that CPU, or -1 on failure.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

// Every digit a double carries, so no value is rounded to a repeating figure.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value after a flag");
    }
    const char* value = argv[++i];
    u64 n = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && ParseU64(value, &n)) {
      config.seed = n;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0 && ParseU64(value, &n) && n > 0) {
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0 && ParseU64(value, &n) && n <= 1) {
      config.trace = n == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      config.spans_out = value;
    } else {
      Usage("bad flag or value");
    }
  }
  Result (*run)(const RunConfig&) = nullptr;
  if (workload == "campaign") {
    run = RunCampaign;
  } else if (workload == "hunt") {
    run = RunHunt;
  } else if (workload == "replay") {
    run = RunReplay;
  } else if (workload == "syscalls") {
    run = RunSyscalls;
  } else {
    Usage("unknown workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  const int cpu = PinToCurrentCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "ozzbench: could not pin to one CPU\n");
    return 1;
  }
  // Bug discoveries are logged at Info; the benchmark's stdout is its own.
  ozz::base::SetLogLevel(ozz::base::LogLevel::kError);
  std::printf(
      "{\"env\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"cpu\":%d,"
      "\"nproc\":%ld,\"build_type\":\"%s\",\"OZZ_TRACE\":%s,\"OZZ_PROF\":%s}}\n",
      workload.c_str(), static_cast<unsigned long long>(config.seed), Num(config.seconds).c_str(),
      config.trace ? 1 : 0, cpu, sysconf(_SC_NPROCESSORS_ONLN), OZZBENCH_BUILD_TYPE,
      kTraceCompiled ? "true" : "false", kProfCompiled ? "true" : "false");
  std::fflush(stdout);

  const Result result = run(config);

  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("metric %-36s %16s %-5s n=%zu%s%s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str(), m.samples, m.detail.empty() ? "" : "  ", m.detail.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0 && !result.metrics.empty();
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" + Num(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
