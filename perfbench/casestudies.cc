// Phase "casestudies": the paper's three measured sections — spinlock
// (Fig. 4, SpinBinding::kMultiverse, UP committed), grep (§6.2.3, multibyte
// mode 1 committed, seeded text) and musl (Fig. 5, single-thread committed) —
// once on fresh threaded-engine programs and once on fresh legacy-engine
// programs. Closed loop: each section runs after the previous one returns.
//
// References: the legacy run must match the threaded run exactly in modelled
// cycles, retired instructions and results, and grep's match count must equal
// a host-side count over the same generated text.
#include "perfbench/bench.h"
#include "src/support/rng.h"
#include "src/workloads/grep.h"
#include "src/workloads/harness.h"
#include "src/workloads/kernel.h"
#include "src/workloads/libc.h"

namespace pb {
namespace {

using mv::DispatchEngine;

struct Section {
  double cycles = 0;      // modelled cycles of the whole measured section
  uint64_t instret = 0;   // instructions retired in the section
  double result = 0;      // the paper's per-op figure, or grep's match count
};

// Runs `body` as a measured section on core 0 (all cores' ticks counted).
template <typename F>
Section Measure(Program& program, const char* span, Rep* rep, F&& body) {
  const uint64_t ticks = TotalTicks(program.vm());
  const uint64_t instret = TotalInstret(program.vm());
  Section section;
  {
    GuestRun run(span, {&program.vm()}, rep, /*section=*/true);
    section.result = body();
  }
  section.cycles = mv::TicksToCycles(TotalTicks(program.vm()) - ticks);
  section.instret = TotalInstret(program.vm()) - instret;
  return section;
}

Recipe SpinlockRecipe() {
  return {"spinlock", {{"spinlock_kernel", mv::SpinlockKernelSource(mv::SpinBinding::kMultiverse)}},
          mv::BuildOptions{}};
}

// Host-side reference count of grep's pattern "a.a" (middle byte not a
// newline) over the text FillHexText generates for `seed`.
uint64_t HostGrepMatches(uint64_t seed, int passes) {
  static const char kHex[] = "0123456789abcdef";
  mv::Rng rng(seed);
  std::vector<uint8_t> text(mv::kGrepBufferSize);
  for (uint64_t i = 0; i < text.size(); ++i) {
    text[i] = (i + 1) % 64 == 0 ? '\n' : static_cast<uint8_t>(kHex[rng.NextBelow(16)]);
  }
  uint64_t count = 0;
  for (size_t i = 0; i + 2 < text.size(); ++i) {
    count += text[i] == 'a' && text[i + 1] != '\n' && text[i + 2] == 'a';
  }
  return count * static_cast<uint64_t>(passes);
}

// Builds (set-up), sets the engine, writes `config` and commits it (set-up).
std::unique_ptr<Program> Prepare(Result<std::unique_ptr<Program>> built, DispatchEngine engine,
                                 const char* switch_name, int64_t value, Rep* rep) {
  if (!built.ok()) {
    return nullptr;
  }
  std::unique_ptr<Program> program = std::move(*built);
  program->vm().SetDispatchEngine(engine);
  const double t0 = NowSeconds();
  const bool ok = TimedWrite(*program, switch_name, value, 4, rep).ok() &&
                  TimedCommit(*program, rep, /*measured=*/false).ok();
  rep->setup_s += NowSeconds() - t0;
  return ok ? std::move(program) : nullptr;
}

// One engine's pass over the sections; returns them in order.
std::vector<Section> RunSections(const Context& ctx, Scale scale, DispatchEngine engine,
                                 Rep* rep) {
  const bool full = scale == Scale::kFull;
  const bool legacy = engine == DispatchEngine::kLegacy;
  std::vector<Section> sections;

  std::unique_ptr<Program> spin =
      Prepare(TimedBuild(SpinlockRecipe(), rep), engine, "config_smp", 0, rep);
  if (spin == nullptr) {
    return sections;
  }
  // Ten short measurements rather than one long one: each is a host-time
  // sample, and their median is robust to the host's scheduling noise.
  Section spin_total;
  for (int chunk = 0; chunk < 10; ++chunk) {
    const Section part = Measure(*spin, "measure_spinlock", rep, [&] {
      Result<double> pair = mv::MeasureSpinlockPair(spin.get(), 10'000);
      rep->Check(pair, "spinlock section");
      return pair.ok() ? *pair : 0.0;
    });
    spin_total.cycles += part.cycles;
    spin_total.instret += part.instret;
    spin_total.result = part.result;  // the per-pair figure of the last, warmest chunk
  }
  sections.push_back(spin_total);
  AddVmCounters(spin->vm(), rep);
  spin.reset();
  if (!full) {
    return sections;
  }

  const int passes = 1;
  Result<std::unique_ptr<Program>> grep_built = [&] {
    Span span("program_build");
    Result<std::unique_ptr<Program>> built = mv::BuildGrep(ctx.seed);
    rep->setup_s += span.Stop();
    rep->Check(built.status(), "build grep");
    return built;
  }();
  if (grep_built.ok()) {
    rep->NoteBuilt({"grep", {{"mini_grep", mv::GrepSource()}}, mv::BuildOptions{}}, **grep_built);
  }
  std::unique_ptr<Program> grep =
      Prepare(std::move(grep_built), engine, "mb_cur_max", 1, rep);
  if (grep == nullptr) {
    return sections;
  }
  sections.push_back(Measure(*grep, "run_grep", rep, [&] {
    Result<mv::GrepRunResult> run = mv::RunGrep(grep.get(), mv::kGrepBufferSize, passes);
    rep->Check(run, "grep section");
    return run.ok() ? static_cast<double>(run->matches) : 0.0;
  }));
  if (!legacy) {
    rep->Check(static_cast<uint64_t>(sections.back().result) == HostGrepMatches(ctx.seed, passes),
               "grep match count equals the host-side count");
  }
  AddVmCounters(grep->vm(), rep);
  grep.reset();

  std::unique_ptr<Program> musl =
      Prepare(TimedBuild({"musl", {{"mini_musl", mv::LibcSource()}}, mv::BuildOptions{}}, rep),
              engine, "threads_minus_1", 0, rep);
  if (musl == nullptr) {
    return sections;
  }
  Section musl_total;
  for (int chunk = 0; chunk < 5; ++chunk) {
    const Section part = Measure(*musl, "measure_libc", rep, [&] {
      Result<mv::LibcBenchResult> run = mv::MeasureLibc(musl.get(), 10'000);
      rep->Check(run, "musl section");
      return run.ok() ? run->random_cycles + run->malloc0_cycles + run->malloc1_cycles +
                            run->fputc_cycles
                      : 0.0;
    });
    musl_total.cycles += part.cycles;
    musl_total.instret += part.instret;
    musl_total.result = part.result;
  }
  sections.push_back(musl_total);
  AddVmCounters(musl->vm(), rep);
  return sections;
}

}  // namespace

void RunCaseStudies(const Context& ctx, Scale scale, Rep* rep) {
  const std::vector<Section> threaded = RunSections(ctx, scale, DispatchEngine::kThreaded, rep);
  const std::vector<Section> legacy = RunSections(ctx, scale, DispatchEngine::kLegacy, rep);
  const char* kNames[] = {"spinlock", "grep", "musl"};
  rep->Check(threaded.size() == legacy.size() && !threaded.empty(), "case-study sections ran");
  double guest_cycles = 0;
  for (size_t i = 0; i < threaded.size() && i < legacy.size(); ++i) {
    const std::string name = kNames[i];
    rep->Check(threaded[i].cycles == legacy[i].cycles, name + ": legacy cycles equal threaded");
    rep->Check(threaded[i].instret == legacy[i].instret, name + ": legacy instret equals threaded");
    rep->Check(threaded[i].result == legacy[i].result, name + ": legacy result equals threaded");
    guest_cycles += threaded[i].cycles;
  }
  rep->Count("guest_cycles", guest_cycles);
  if (!threaded.empty()) {
    rep->Count("guest.spinlock_pair_cycles", threaded[0].result);
  }
  if (threaded.size() == 3) {
    rep->Count("guest.grep_cycles", threaded[1].cycles);
    rep->Count("guest.musl_cycles", threaded[2].result);
  }
}

}  // namespace pb
