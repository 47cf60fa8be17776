#include "ozzbench/pipeline.h"

#include <cstdint>
#include <utility>

#include "src/fuzz/report.h"

namespace ozzbench {

using namespace ozz;

namespace {

// splitmix64 finalizer: one well-mixed step per hashed field.
u64 Mix(u64 h, u64 v) {
  u64 z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Every Event field except the two clock readings (timestamp, window).
u64 HashTrace(u64 h, const oemu::Trace& trace) {
  h = Mix(h, trace.size());
  for (const oemu::Event& e : trace) {
    h = Mix(h, static_cast<u64>(e.kind) | static_cast<u64>(e.access) << 8 |
                   static_cast<u64>(e.barrier) << 16 | static_cast<u64>(e.dep_kind) << 24 |
                   static_cast<u64>(e.annotated) << 32 | static_cast<u64>(e.delayed) << 33 |
                   static_cast<u64>(e.versioned) << 34 | static_cast<u64>(e.dep_marked) << 35 |
                   static_cast<u64>(e.lock_acquire) << 36);
    h = Mix(h, static_cast<u64>(e.instr) << 32 | e.occurrence);
    h = Mix(h, e.addr);
    h = Mix(h, e.size);
    h = Mix(h, e.value);
    h = Mix(h, static_cast<u64>(e.dep_instr) << 32 | e.dep_occurrence);
    h = Mix(h, e.lock_cls);
  }
  return h;
}

u64 HintKey(const oemu::Trace& reorder, const oemu::Trace& other,
            const fuzz::HintOptions& o) {
  u64 h = Mix(0, reinterpret_cast<std::uintptr_t>(&oemu::MemoryModel::Resolve(o.model)));
  h = Mix(h, static_cast<u64>(o.store_tests) | static_cast<u64>(o.load_tests) << 1 |
                 static_cast<u64>(o.suffix_store_hints) << 2 |
                 static_cast<u64>(o.static_prune) << 3 | static_cast<u64>(o.axiomatic_prune) << 4);
  h = Mix(h, o.axiomatic_budget);
  h = Mix(h, o.max_hints);
  h = HashTrace(h, reorder);
  return HashTrace(h, other);
}

}  // namespace

fuzz::MtiOptions MtiOptionsFor(const fuzz::FuzzerOptions& o) {
  fuzz::MtiOptions m;
  m.kernel_config = o.kernel_config;
  m.reordering = o.reordering;
  m.model = o.model;
  return m;
}

void AddRuntimeStats(const oemu::Runtime::Stats& s, oemu::Runtime::Stats* sum) {
  sum->loads += s.loads;
  sum->stores += s.stores;
  sum->delayed_stores += s.delayed_stores;
  sum->versioned_load_hits += s.versioned_load_hits;
  sum->commits += s.commits;
  sum->barriers += s.barriers;
  sum->spec_delayed_stores += s.spec_delayed_stores;
  sum->spec_stale_loads += s.spec_stale_loads;
  sum->spec_fresh_loads += s.spec_fresh_loads;
  sum->dep_floored_loads += s.dep_floored_loads;
}

void LayerCounts::CountMti(const fuzz::MtiResult& r) {
  ++mti;
  switch_fired += r.switch_fired ? 1 : 0;
  hint_hit += r.hint_hits > 0 ? 1 : 0;
  crashed += r.crashed ? 1 : 0;
  AddRuntimeStats(r.stats, &runtime);
}

TracedFuzzer::TracedFuzzer(fuzz::FuzzerOptions options, Tracer* tracer, LayerCounts* counts)
    : options_(std::move(options)), tracer_(tracer), counts_(counts), rng_(options_.seed) {
  options_.model = &oemu::MemoryModel::Resolve(options_.model);
  options_.hints.model = options_.model;
  template_kernel_ = std::make_unique<osk::Kernel>(options_.kernel_config);
  osk::InstallDefaultSubsystems(*template_kernel_);
  generator_ = std::make_unique<fuzz::ProgGenerator>(template_kernel_->table(), &rng_);
}

TracedFuzzer::~TracedFuzzer() = default;

const osk::SyscallTable& TracedFuzzer::table() const { return template_kernel_->table(); }

bool TracedFuzzer::Exhausted(const fuzz::CampaignResult& result) const {
  const std::size_t sti_budget =
      options_.max_sti_runs != 0 ? options_.max_sti_runs : options_.max_mti_runs;
  return result.mti_runs >= options_.max_mti_runs || result.sti_runs >= sti_budget ||
         result.bugs.size() >= options_.stop_after_bugs;
}

std::vector<fuzz::SchedHint> TracedFuzzer::Hints(const oemu::Trace& reorder,
                                                 const oemu::Trace& other,
                                                 fuzz::HintStats* stats) {
  std::vector<fuzz::SchedHint> hints;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope span(tracer_, "fuzz.hints");
    hints = fuzz::ComputeHints(reorder, other, options_.hints, stats);
  }
  const Clock::time_point t1 = Clock::now();
  fuzz::HintOptions off = options_.hints;
  off.axiomatic_prune = false;
  (void)fuzz::ComputeHints(reorder, other, off);
  const Clock::time_point t2 = Clock::now();
  counts_->axiomatic_s += std::chrono::duration<double>((t1 - t0) - (t2 - t1)).count();
  counts_->hints_emitted += hints.size();
  ++counts_->hint_calls;
  if (!counts_->hint_keys.insert(HintKey(reorder, other, options_.hints)).second) {
    ++counts_->hint_repeats;
  }
  counts_->side_s += SecondsSince(t1);
  return hints;
}

bool TracedFuzzer::RunSpec(const fuzz::MtiSpec& spec, std::size_t rank,
                           fuzz::CampaignResult* result) {
  if (Exhausted(*result)) {
    return true;
  }
  fuzz::MtiResult mti;
  {
    Tracer::Scope span(tracer_, "fuzz.execute");
    mti = fuzz::RunMti(spec, MtiOptionsFor(options_));
  }
  counts_->CountMti(mti);
  ++result->mti_runs;
  if (!mti.crashed) {
    return false;
  }
  for (const fuzz::FoundBug& existing : result->bugs) {
    if (existing.report.title == mti.crash.title) {
      return false;
    }
  }
  fuzz::FoundBug bug;
  {
    Tracer::Scope span(tracer_, "fuzz.report");
    bug.report = fuzz::MakeBugReport(spec, mti);
  }
  bug.spec = spec;
  bug.found_at_test = result->mti_runs;
  bug.hint_rank = rank;
  bug.by_largest_hint = rank == 0;
  result->bugs.push_back(std::move(bug));
  return false;
}

bool TracedFuzzer::TestProg(const fuzz::Prog& prog, fuzz::CampaignResult* result) {
  if (prog.calls.empty()) {
    return false;
  }
  fuzz::ProgProfile profile;
  {
    Tracer::Scope span(tracer_, "fuzz.profile");
    profile = fuzz::ProfileProg(prog, options_.kernel_config, options_.model);
  }
  ++result->sti_runs;
  if (profile.crashed) {
    return false;
  }
  corpus_.Add(prog, profile.coverage, 0);

  std::size_t pairs_tested = 0;
  for (const auto& [a, b] : fuzz::GuidedPairOrder(profile, {}, {})) {
    if (pairs_tested >= options_.max_pairs_per_prog) {
      continue;
    }
    std::vector<fuzz::SchedHint> hints =
        Hints(profile.calls[a].trace, profile.calls[b].trace, &result->hint_stats);
    if (hints.empty()) {
      continue;
    }
    ++pairs_tested;
    for (std::size_t rank = 0; rank < hints.size(); ++rank) {
      fuzz::MtiSpec spec;
      spec.prog = prog;
      spec.call_a = a;
      spec.call_b = b;
      spec.hint = hints[rank];
      if (RunSpec(spec, rank, result)) {
        return true;
      }
    }
  }
  if (TestIrqPoints(prog, profile, result)) {
    return true;
  }
  return Exhausted(*result);
}

bool TracedFuzzer::TestIrqPoints(const fuzz::Prog& prog, const fuzz::ProgProfile& profile,
                                 fuzz::CampaignResult* result) {
  if (!options_.reordering) {
    return false;
  }
  for (std::size_t c = 0; c < profile.calls.size(); ++c) {
    if (!profile.calls[c].irq_armed) {
      continue;
    }
    std::vector<fuzz::SchedHint> hints;
    {
      Tracer::Scope span(tracer_, "fuzz.hints");
      hints = fuzz::ComputeIrqHints(profile.calls[c].trace, options_.max_irq_points_per_call);
    }
    for (std::size_t rank = 0; rank < hints.size(); ++rank) {
      fuzz::MtiSpec spec;
      spec.prog = prog;
      spec.call_a = c;
      spec.call_b = c;
      spec.hint = hints[rank];
      if (RunSpec(spec, rank, result)) {
        return true;
      }
    }
  }
  return Exhausted(*result);
}

fuzz::CampaignResult TracedFuzzer::Run() {
  fuzz::CampaignResult result;
  result.model = options_.model->name();
  if (options_.use_seed_programs) {
    for (const fuzz::Prog& seed : fuzz::SeedPrograms(template_kernel_->table())) {
      if (TestProg(seed, &result)) {
        counts_->hints.Add(result.hint_stats);
        return result;
      }
    }
  }
  while (!Exhausted(result)) {
    fuzz::Prog prog;
    {
      Tracer::Scope span(tracer_, "fuzz.generate");
      prog = corpus_.empty() || rng_.OneIn(3)
                 ? generator_->Generate(options_.max_calls)
                 : generator_->Mutate(corpus_.Pick(rng_), options_.max_calls);
    }
    if (TestProg(prog, &result)) {
      break;
    }
  }
  counts_->hints.Add(result.hint_stats);
  return result;
}

fuzz::CampaignResult TracedFuzzer::RunProg(const fuzz::Prog& prog) {
  fuzz::CampaignResult result;
  result.model = options_.model->name();
  fuzz::Prog current = prog;
  while (!Exhausted(result) && result.bugs.empty()) {
    if (TestProg(current, &result)) {
      break;
    }
    Tracer::Scope span(tracer_, "fuzz.generate");
    current = generator_->Mutate(rng_.OneIn(4) ? prog : current, options_.max_calls);
  }
  counts_->hints.Add(result.hint_stats);
  return result;
}

}  // namespace ozzbench
