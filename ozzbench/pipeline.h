// The traced fuzzing loop: fuzz::Fuzzer::Run and Fuzzer::RunProg recomposed
// from public calls (ProgGenerator, Corpus, GuidedPairOrder, ProfileProg,
// ComputeHints, ComputeIrqHints, RunMti, MakeBugReport), with a span around
// each call and per-layer counts beside them.
//
// It follows Fuzzer's default-option path step by step and draws from the
// Rng in the same order, so at the same FuzzerOptions it must reach the same
// STI, MTI and bug counts as the untraced Fuzzer. The workloads compare the
// two and report any divergence as a failed operation. Options the
// benchmark never sets (guides, hint-order ablations, trace_dir, stop_flag)
// are not mirrored.
#ifndef OZZBENCH_PIPELINE_H_
#define OZZBENCH_PIPELINE_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "ozzbench/harness.h"
#include "src/fuzz/fuzzer.h"

namespace ozzbench {

// Per-layer counts the traced runs accumulate next to the spans.
struct LayerCounts {
  ozz::fuzz::HintStats hints;  // summed HintStats of every ComputeHints call
  u64 hints_emitted = 0;       // hints ComputeHints returned
  // ComputeHints calls whose inputs (both traces with timestamps ignored,
  // the model and the options) equal an earlier call's in this run.
  u64 hint_calls = 0;
  u64 hint_repeats = 0;
  std::unordered_set<u64> hint_keys;
  // Sum over ComputeHints calls of (span time - time of the same call with
  // axiomatic_prune=false); the second call runs outside every span.
  double axiomatic_s = 0;
  // Harness-only work done inside a traced pass (the axiomatic-off calls
  // and the repeat keys); subtracted from the pass's wall time.
  double side_s = 0;
  // RunMti outcomes and the summed oemu::Runtime::Stats of those runs.
  u64 mti = 0;
  u64 switch_fired = 0;
  u64 hint_hit = 0;
  u64 crashed = 0;
  ozz::oemu::Runtime::Stats runtime;

  void CountMti(const ozz::fuzz::MtiResult& mti_result);
};

void AddRuntimeStats(const ozz::oemu::Runtime::Stats& s, ozz::oemu::Runtime::Stats* sum);

// The MtiOptions a Fuzzer with `options` executes its MTIs under.
ozz::fuzz::MtiOptions MtiOptionsFor(const ozz::fuzz::FuzzerOptions& options);

class TracedFuzzer {
 public:
  TracedFuzzer(ozz::fuzz::FuzzerOptions options, Tracer* tracer, LayerCounts* counts);
  ~TracedFuzzer();

  TracedFuzzer(const TracedFuzzer&) = delete;
  TracedFuzzer& operator=(const TracedFuzzer&) = delete;

  ozz::fuzz::CampaignResult Run();
  ozz::fuzz::CampaignResult RunProg(const ozz::fuzz::Prog& prog);
  const ozz::osk::SyscallTable& table() const;

 private:
  bool Exhausted(const ozz::fuzz::CampaignResult& result) const;
  bool TestProg(const ozz::fuzz::Prog& prog, ozz::fuzz::CampaignResult* result);
  bool TestIrqPoints(const ozz::fuzz::Prog& prog, const ozz::fuzz::ProgProfile& profile,
                     ozz::fuzz::CampaignResult* result);
  bool RunSpec(const ozz::fuzz::MtiSpec& spec, std::size_t rank,
               ozz::fuzz::CampaignResult* result);
  std::vector<ozz::fuzz::SchedHint> Hints(const ozz::oemu::Trace& reorder,
                                          const ozz::oemu::Trace& other,
                                          ozz::fuzz::HintStats* stats);

  ozz::fuzz::FuzzerOptions options_;
  Tracer* tracer_;
  LayerCounts* counts_;
  ozz::base::Rng rng_;
  std::unique_ptr<ozz::osk::Kernel> template_kernel_;
  std::unique_ptr<ozz::fuzz::ProgGenerator> generator_;
  ozz::fuzz::Corpus corpus_;
};

}  // namespace ozzbench

#endif  // OZZBENCH_PIPELINE_H_
