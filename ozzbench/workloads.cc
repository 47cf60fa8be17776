#include "ozzbench/workloads.h"

#include <climits>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "ozzbench/layers.h"
#include "ozzbench/pipeline.h"
#include "ozzbench/syscall_mix.h"
#include "src/fuzz/fuzzer.h"
#include "src/oemu/memory_model.h"
#include "tests/scenarios.h"

namespace ozzbench {

using namespace ozz;

namespace {

// Repeated set-ups per run; setup_s is their median.
constexpr int kSetupReps = 25;
// Spans written to the traced run's Chrome trace file at most.
constexpr std::size_t kSpanLimit = 100000;

// Campaign: a fixed MTI budget, seed programs first, no stop on bugs.
constexpr std::size_t kCampaignBudget = 1000;
// Hunt and replay: the trigger-matrix recipe of bench/bench_models.cc, whose
// verdicts ci/models_baseline.txt pins.
constexpr u64 kRecipeSeed = 99;
constexpr std::size_t kRecipeBudget = 2500;
constexpr const char* kBaselinePath = OZZBENCH_SOURCE_ROOT "/ci/models_baseline.txt";
// Replay: specs replayed per traced pass.
constexpr std::size_t kReplayTracedPicks = 2000;
// Syscalls: rows per pass on one long-lived kernel, and distinct seeded
// streams per run. A row allocates about 20 bytes of the kernel allocator's
// never-reused 1 MiB arena on average, so a pass uses about half of it.
constexpr std::size_t kMixRows = 25000;
constexpr std::size_t kMixStreams = 4;

double Ms(double s) { return s * 1e3; }

// Every reported bug's spec must replay through RunMti to the same crash
// title. Returns the number that do not. The specs borrow syscall
// descriptors from the fuzzer that found them, which must still be alive.
u64 CheckBugsReplay(const fuzz::CampaignResult& r, const fuzz::FuzzerOptions& o, Result* result) {
  u64 failed = 0;
  for (const fuzz::FoundBug& bug : r.bugs) {
    const fuzz::MtiResult m = fuzz::RunMti(bug.spec, MtiOptionsFor(o));
    if (!m.crashed || m.crash.title != bug.report.title) {
      ++failed;
      result->notes.push_back("bug does not replay: " + bug.report.title);
    }
  }
  return failed;
}

std::vector<std::string> Titles(const fuzz::CampaignResult& r) {
  std::vector<std::string> titles;
  for (const fuzz::FoundBug& bug : r.bugs) {
    titles.push_back(bug.report.title);
  }
  return titles;
}

// The traced pass must reach the untraced pass's STI, MTI and bug counts.
// Returns true when they agree; otherwise records the divergence.
bool SameCounts(const std::string& what, const fuzz::CampaignResult& untraced,
                const fuzz::CampaignResult& traced, Result* result) {
  if (untraced.sti_runs == traced.sti_runs && untraced.mti_runs == traced.mti_runs &&
      Titles(untraced) == Titles(traced)) {
    return true;
  }
  result->notes.push_back("divergence in " + what + ": untraced sti/mti/bugs " +
                          std::to_string(untraced.sti_runs) + "/" +
                          std::to_string(untraced.mti_runs) + "/" +
                          std::to_string(untraced.bugs.size()) + ", traced " +
                          std::to_string(traced.sti_runs) + "/" +
                          std::to_string(traced.mti_runs) + "/" +
                          std::to_string(traced.bugs.size()));
  return false;
}

void FinishTraced(const RunConfig& config, const Tracer& tracer, const LayerCounts& counts,
                  double untraced_s, double traced_s, Result* result) {
  const Probes probes = RunProbes(config.seed);
  AddLayerMetrics(tracer, counts, probes, (traced_s - counts.side_s) / untraced_s, result);
  if (!config.spans_out.empty() && !tracer.WriteChromeTrace(config.spans_out, kSpanLimit)) {
    result->notes.push_back("could not write spans to " + config.spans_out);
  }
}

// ---------------------------------------------------------------- campaign

fuzz::FuzzerOptions CampaignOptions(u64 seed) {
  fuzz::FuzzerOptions o;
  o.seed = seed;
  o.max_mti_runs = kCampaignBudget;
  return o;
}

Result TracedCampaign(const RunConfig& config) {
  Result result;
  const fuzz::FuzzerOptions options = CampaignOptions(DeriveSeed(config.seed, 0));
  (void)fuzz::Fuzzer(options).Run();  // warm-up: the process's first campaign is cold
  // The untraced campaign runs before and after the traced one; its time is
  // the mean of the two.
  auto untraced_campaign = [&options](double* seconds) {
    const Clock::time_point t0 = Clock::now();
    fuzz::CampaignResult r = fuzz::Fuzzer(options).Run();
    *seconds += SecondsSince(t0) / 2;
    return r;
  };
  double untraced_s = 0;
  const fuzz::CampaignResult untraced = untraced_campaign(&untraced_s);

  Tracer tracer;
  LayerCounts counts;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<TracedFuzzer> traced_fuzzer;
  fuzz::CampaignResult traced;
  {
    Tracer::Scope root(&tracer, "campaign");
    traced_fuzzer = std::make_unique<TracedFuzzer>(options, &tracer, &counts);
    traced = traced_fuzzer->Run();
  }
  const double traced_s = SecondsSince(t0);
  (void)untraced_campaign(&untraced_s);

  result.attempted = traced.mti_runs;
  result.failed += SameCounts("campaign", untraced, traced, &result) ? 0 : 1;
  result.failed += CheckBugsReplay(traced, options, &result);
  result.notes.push_back("bugs_found = " + std::to_string(traced.bugs.size()) +
                         " unique crash titles (traced and untraced agree: " +
                         (Titles(untraced) == Titles(traced) ? "yes" : "no") + ")");
  FinishTraced(config, tracer, counts, untraced_s, traced_s, &result);
  return result;
}

}  // namespace

Result RunCampaign(const RunConfig& config) {
  if (config.trace) {
    return TracedCampaign(config);
  }
  Result result;
  EndToEnd e2e;
  e2e.rate_of = "MTI executions";
  e2e.op_name = "one campaign of " + std::to_string(kCampaignBudget) + " MTIs";
  // Set-up: a ready-to-run Fuzzer (template kernel, subsystems, generator)
  // and its seed programs.
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fuzz::Fuzzer fuzzer(CampaignOptions(config.seed));
    (void)fuzz::SeedPrograms(fuzzer.table());
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  std::size_t first_bugs = 0;
  std::set<std::string> all_titles;
  for (u64 i = 0; i == 0 || e2e.measured_s < config.seconds; ++i) {
    const fuzz::FuzzerOptions options = CampaignOptions(DeriveSeed(config.seed, i));
    const Clock::time_point t0 = Clock::now();
    fuzz::Fuzzer fuzzer(options);
    const fuzz::CampaignResult r = fuzzer.Run();
    const double dt = SecondsSince(t0);
    e2e.op_ms.push_back(Ms(dt));
    e2e.measured_s += dt;
    e2e.ops += r.mti_runs;
    result.attempted += r.mti_runs;
    result.failed += CheckBugsReplay(r, options, &result);
    if (i == 0) {
      first_bugs = r.bugs.size();
    }
    for (const fuzz::FoundBug& bug : r.bugs) {
      all_titles.insert(bug.report.title);
    }
  }
  result.notes.push_back("bugs_found = " + std::to_string(first_bugs) +
                         " unique crash titles in the first campaign (" +
                         std::to_string(all_titles.size()) + " over all " +
                         std::to_string(e2e.op_ms.size()) + " campaigns)");
  AddEndToEnd(e2e, &result);
  return result;
}

// -------------------------------------------------------------------- hunt

namespace {

struct HuntCell {
  const fuzz::Scenario* scenario = nullptr;
  const oemu::MemoryModel* model = nullptr;
  bool expected = false;  // the baseline verdict: the cell triggers
};

// The 24-scenario x 4-model matrix with its baseline verdicts, or an empty
// matrix (and a note) when the baseline is missing or incomplete.
std::vector<HuntCell> LoadMatrix(Result* result) {
  std::ifstream in(kBaselinePath);
  std::map<std::string, std::string> verdicts;  // "model|scenario" -> yes/no
  for (std::string line; std::getline(in, line);) {
    const std::size_t bar = line.rfind('|');
    if (!line.empty() && line[0] != '#' && bar != std::string::npos) {
      verdicts[line.substr(0, bar)] = line.substr(bar + 1);
    }
  }
  std::vector<HuntCell> cells;
  for (const fuzz::Scenario& s : fuzz::kBugScenarios) {
    for (const oemu::MemoryModel* m : oemu::MemoryModel::All()) {
      auto it = verdicts.find(std::string(m->name()) + "|" + s.name);
      if (it == verdicts.end() || (it->second != "yes" && it->second != "no")) {
        result->notes.push_back(std::string("no baseline verdict for ") + m->name() + "|" +
                                s.name + " in " + kBaselinePath);
        return {};
      }
      cells.push_back({&s, m, it->second == "yes"});
    }
  }
  return cells;
}

fuzz::FuzzerOptions CellOptions(const fuzz::Scenario& s, const oemu::MemoryModel* model) {
  fuzz::FuzzerOptions o;
  o.seed = kRecipeSeed;
  o.max_mti_runs = kRecipeBudget;
  o.stop_after_bugs = 1;
  o.model = model;
  if (s.pre_fixed != nullptr) {
    o.kernel_config.fixed.insert(s.pre_fixed);
  }
  o.kernel_config.percpu_migration_hack = s.migration_hack;
  return o;
}

// A cell's verdict must equal the baseline, and a triggered title must
// contain the scenario's crash needle.
bool CellOk(const HuntCell& cell, const fuzz::CampaignResult& r, Result* result) {
  const bool triggered = !r.bugs.empty();
  if (triggered == cell.expected &&
      (!triggered || r.bugs[0].report.title.find(cell.scenario->crash_needle) !=
                         std::string::npos)) {
    return true;
  }
  result->notes.push_back(std::string("cell ") + cell.model->name() + "|" + cell.scenario->name +
                          ": expected " + (cell.expected ? "yes" : "no") + ", got " +
                          (triggered ? "'" + r.bugs[0].report.title + "'" : "no"));
  return false;
}

std::vector<HuntCell> SeededMatrix(u64 seed, Result* result) {
  std::vector<HuntCell> cells = LoadMatrix(result);
  base::Rng rng(seed);
  rng.Shuffle(cells);
  return cells;
}

Result TracedHunt(const RunConfig& config) {
  Result result;
  const std::vector<HuntCell> cells = SeededMatrix(config.seed, &result);
  if (cells.empty()) {
    result.failed = result.attempted = 1;
    return result;
  }
  Tracer tracer;
  LayerCounts counts;
  double untraced_s = 0;
  double traced_s = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const HuntCell& cell = cells[c];
    const fuzz::FuzzerOptions options = CellOptions(*cell.scenario, cell.model);
    fuzz::CampaignResult untraced;
    fuzz::CampaignResult traced;
    // Alternate which of the two goes first.
    for (std::size_t side = 0; side < 2; ++side) {
      const Clock::time_point t0 = Clock::now();
      if ((side + c) % 2 == 0) {
        fuzz::Fuzzer fuzzer(options);
        untraced = fuzzer.RunProg(fuzz::SeedProgramFor(fuzzer.table(), cell.scenario->seed));
        untraced_s += SecondsSince(t0);
      } else {
        Tracer::Scope root(&tracer, "hunt.cell");
        TracedFuzzer traced_fuzzer(options, &tracer, &counts);
        traced = traced_fuzzer.RunProg(
            fuzz::SeedProgramFor(traced_fuzzer.table(), cell.scenario->seed));
        traced_s += SecondsSince(t0);
      }
    }
    ++result.attempted;
    const std::string name = std::string(cell.model->name()) + "|" + cell.scenario->name;
    if (!SameCounts(name, untraced, traced, &result) || !CellOk(cell, traced, &result)) {
      ++result.failed;
    }
  }
  FinishTraced(config, tracer, counts, untraced_s, traced_s, &result);
  return result;
}

}  // namespace

Result RunHunt(const RunConfig& config) {
  if (config.trace) {
    return TracedHunt(config);
  }
  Result result;
  EndToEnd e2e;
  e2e.rate_of = "matrix cells";
  // Cell times are not one population: most cells trigger within a few MTIs
  // and the rest exhaust the budget, so the median cell flips between the
  // two groups from run to run. The timed operation is the whole matrix.
  e2e.op_name = "one whole matrix (hunt_s)";
  // Set-up: the baseline verdicts and the seeded cell order.
  std::vector<HuntCell> cells;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    cells = SeededMatrix(config.seed, &result);
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  if (cells.empty()) {
    result.failed = result.attempted = 1;
    return result;
  }
  // Whole matrices only; another starts while it should end in the window.
  std::vector<double> cell_ms;
  std::size_t triggered = 0;
  while (e2e.op_ms.empty() || e2e.measured_s + e2e.op_ms.back() / 1e3 <= config.seconds) {
    const Clock::time_point tm = Clock::now();
    triggered = 0;
    for (const HuntCell& cell : cells) {
      const Clock::time_point t0 = Clock::now();
      fuzz::Fuzzer fuzzer(CellOptions(*cell.scenario, cell.model));
      const fuzz::CampaignResult r =
          fuzzer.RunProg(fuzz::SeedProgramFor(fuzzer.table(), cell.scenario->seed));
      cell_ms.push_back(Ms(SecondsSince(t0)));
      ++e2e.ops;
      ++result.attempted;
      result.failed += CellOk(cell, r, &result) ? 0 : 1;
      triggered += r.bugs.empty() ? 0 : 1;
    }
    e2e.op_ms.push_back(Ms(SecondsSince(tm)));
    e2e.measured_s += e2e.op_ms.back() / 1e3;
  }
  const int tail = TailLevel(cell_ms.size());
  result.notes.push_back("triggered " + std::to_string(triggered) + "/" +
                         std::to_string(cells.size()) + " cells; cell_ms p50 " +
                         std::to_string(Median(cell_ms)) + ", p" + std::to_string(tail) + " " +
                         std::to_string(Percentile(cell_ms, tail)) + " (n=" +
                         std::to_string(cell_ms.size()) + ")");
  AddEndToEnd(e2e, &result);
  return result;
}

// ------------------------------------------------------------------ replay

namespace {

struct ReplaySpec {
  fuzz::MtiSpec spec;
  fuzz::MtiOptions options;
  std::string title;
};

// Points a program's syscall descriptors at `table`, so the spec outlives
// the fuzzer whose template kernel it was generated against.
void Rebind(fuzz::Prog* prog, const osk::SyscallTable& table) {
  for (fuzz::Call& call : prog->calls) {
    call.desc = table.Find(call.desc->name);
  }
}

// Each scenario's bug-triggering spec under lkmm, derived with the hunt
// recipe. A scenario that does not trigger is a failed set-up operation.
std::vector<ReplaySpec> DeriveSpecs(const osk::SyscallTable& table, Result* result) {
  std::vector<ReplaySpec> specs;
  for (const fuzz::Scenario& s : fuzz::kBugScenarios) {
    const fuzz::FuzzerOptions options = CellOptions(s, &oemu::MemoryModel::Lkmm());
    fuzz::Fuzzer fuzzer(options);
    const fuzz::CampaignResult r = fuzzer.RunProg(fuzz::SeedProgramFor(fuzzer.table(), s.seed));
    if (r.bugs.empty() || r.bugs[0].report.title.find(s.crash_needle) == std::string::npos) {
      result->notes.push_back(std::string("replay set-up: no lkmm spec for ") + s.name);
      ++result->failed;
      continue;
    }
    ReplaySpec spec{r.bugs[0].spec, MtiOptionsFor(options), r.bugs[0].report.title};
    Rebind(&spec.spec.prog, table);
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Every replay must crash with its spec's title.
bool ReplayOk(const ReplaySpec& spec, const fuzz::MtiResult& m, Result* result) {
  if (m.crashed && m.crash.title == spec.title) {
    return true;
  }
  result->notes.push_back("replay of '" + spec.title + "' got " +
                          (m.crashed ? "'" + m.crash.title + "'" : "no crash"));
  return false;
}

Result TracedReplay(const RunConfig& config, const std::vector<ReplaySpec>& specs,
                    Result result) {
  // Each pick runs once untraced and once traced, so both passes see the
  // same machine conditions.
  base::Rng rng(DeriveSeed(config.seed, 1));
  Tracer tracer;
  LayerCounts counts;
  double untraced_s = 0;
  double traced_s = 0;
  for (std::size_t k = 0; k < kReplayTracedPicks; ++k) {
    const std::size_t i = static_cast<std::size_t>(rng.Below(specs.size()));
    fuzz::MtiResult untraced;
    fuzz::MtiResult traced;
    // Alternate which of the two goes first.
    for (std::size_t side = 0; side < 2; ++side) {
      const Clock::time_point t0 = Clock::now();
      if ((side + k) % 2 == 0) {
        untraced = fuzz::RunMti(specs[i].spec, specs[i].options);
        untraced_s += SecondsSince(t0);
      } else {
        Tracer::Scope span(&tracer, "fuzz.execute");
        traced = fuzz::RunMti(specs[i].spec, specs[i].options);
        traced_s += SecondsSince(t0);
      }
    }
    counts.CountMti(traced);
    ++result.attempted;
    const bool same =
        untraced.crashed == traced.crashed && untraced.crash.title == traced.crash.title;
    if (!same) {
      result.notes.push_back("divergence in replay of '" + specs[i].title + "'");
    }
    if (!same || !ReplayOk(specs[i], traced, &result)) {
      ++result.failed;
    }
  }
  FinishTraced(config, tracer, counts, untraced_s, traced_s, &result);
  return result;
}

}  // namespace

Result RunReplay(const RunConfig& config) {
  Result result;
  EndToEnd e2e;
  e2e.rate_of = "MTI executions";
  e2e.op_name = "one RunMti";
  osk::Kernel template_kernel;
  osk::InstallDefaultSubsystems(template_kernel);
  std::vector<ReplaySpec> specs;
  // Set-up: deriving the specs (a hunt per scenario); once in a traced run.
  for (int i = 0; i < (config.trace ? 1 : kSetupReps); ++i) {
    Result derivation;
    const Clock::time_point t0 = Clock::now();
    specs = DeriveSpecs(template_kernel.table(), &derivation);
    e2e.setup_s.push_back(SecondsSince(t0));
    if (i == 0) {
      result.failed += derivation.failed;
      result.attempted += std::size(fuzz::kBugScenarios);
      result.notes.insert(result.notes.end(), derivation.notes.begin(), derivation.notes.end());
    }
  }
  if (specs.empty()) {
    return result;
  }
  if (config.trace) {
    return TracedReplay(config, specs, std::move(result));
  }
  base::Rng rng(DeriveSeed(config.seed, 1));
  while (e2e.measured_s < config.seconds) {
    const ReplaySpec& spec = specs[static_cast<std::size_t>(rng.Below(specs.size()))];
    const Clock::time_point t0 = Clock::now();
    const fuzz::MtiResult m = fuzz::RunMti(spec.spec, spec.options);
    const double dt = SecondsSince(t0);
    e2e.op_ms.push_back(Ms(dt));
    e2e.measured_s += dt;
    ++e2e.ops;
    ++result.attempted;
    result.failed += ReplayOk(spec, m, &result) ? 0 : 1;
  }
  result.notes.push_back("replayed " + std::to_string(specs.size()) + " scenario specs");
  AddEndToEnd(e2e, &result);
  return result;
}

// ---------------------------------------------------------------- syscalls

namespace {

struct MixPass {
  std::vector<MixCall> stream;
  std::vector<long> expected;  // the same stream on an uninstrumented kernel
};

std::vector<MixPass> MakeMixPasses(u64 seed) {
  std::vector<MixPass> passes(kMixStreams);
  for (std::size_t k = 0; k < kMixStreams; ++k) {
    passes[k].stream = MakeMixStream(DeriveSeed(seed, k), kMixRows);
    osk::Kernel kernel;
    osk::InstallDefaultSubsystems(kernel);
    passes[k].expected = RunMix(passes[k].stream, kernel);
  }
  return passes;
}

// Runs one pass on a fresh kernel with an active runtime and counts the
// return values that differ from the uninstrumented reference.
u64 RunInstrumented(const MixPass& pass, Tracer* tracer, std::vector<double>* op_ms,
                    oemu::Runtime::Stats* stats) {
  oemu::Runtime runtime;
  runtime.Activate(nullptr);
  std::vector<long> rets;
  {
    osk::Kernel kernel;
    kernel.Attach(nullptr, &runtime);
    osk::InstallDefaultSubsystems(kernel);
    rets = RunMix(pass.stream, kernel, tracer, op_ms);
  }
  runtime.Deactivate();
  if (stats != nullptr) {
    AddRuntimeStats(runtime.stats(), stats);
  }
  u64 mismatches = 0;
  for (std::size_t i = 0; i < rets.size(); ++i) {
    mismatches += rets[i] != pass.expected[i] ? 1 : 0;
  }
  return mismatches;
}

// The reference itself must have run cleanly: no oops, no exhausted arena.
u64 ReferenceFailures(const std::vector<MixPass>& passes, Result* result) {
  u64 failed = 0;
  for (const MixPass& pass : passes) {
    for (long ret : pass.expected) {
      failed += ret == LONG_MIN || ret == osk::kENoMem ? 1 : 0;
    }
  }
  if (failed > 0) {
    result->notes.push_back(std::to_string(failed) + " reference syscalls failed");
  }
  return failed;
}

}  // namespace

Result RunSyscalls(const RunConfig& config) {
  Result result;
  EndToEnd e2e;
  e2e.rate_of = "instrumented syscalls";
  e2e.op_name = "one syscall, mean over blocks of " + std::to_string(kMixBlock);
  // Set-up: the seeded streams and their uninstrumented reference results.
  std::vector<MixPass> passes;
  for (int i = 0; i < (config.trace ? 1 : kSetupReps); ++i) {
    const Clock::time_point t0 = Clock::now();
    passes = MakeMixPasses(config.seed);
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  result.failed += ReferenceFailures(passes, &result);

  if (config.trace) {
    // A warm-up pass, then each stream untraced and traced in turn.
    result.failed += RunInstrumented(passes[0], nullptr, nullptr, nullptr);
    Tracer tracer;
    LayerCounts counts;
    double untraced_s = 0;
    double traced_s = 0;
    for (const MixPass& pass : passes) {
      Clock::time_point t0 = Clock::now();
      result.failed += RunInstrumented(pass, nullptr, nullptr, nullptr);
      untraced_s += SecondsSince(t0);
      t0 = Clock::now();
      {
        Tracer::Scope root(&tracer, "syscalls.pass");
        result.failed += RunInstrumented(pass, &tracer, nullptr, &counts.runtime);
      }
      traced_s += SecondsSince(t0);
      result.attempted += 2 * pass.stream.size();
    }
    FinishTraced(config, tracer, counts, untraced_s, traced_s, &result);
    return result;
  }

  for (std::size_t p = 0; p == 0 || e2e.measured_s < config.seconds; ++p) {
    const MixPass& pass = passes[p % passes.size()];
    const Clock::time_point t0 = Clock::now();
    result.failed += RunInstrumented(pass, nullptr, &e2e.op_ms, nullptr);
    e2e.measured_s += SecondsSince(t0);
    e2e.ops += pass.stream.size();
    result.attempted += pass.stream.size();
  }
  AddEndToEnd(e2e, &result);
  return result;
}

}  // namespace ozzbench
