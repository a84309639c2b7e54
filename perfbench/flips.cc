// Phase "flips": configuration flips on a generated kernel corpus heavy in
// variants. Closed loop: each commit is issued after the previous one
// returns. A seeded walk over a recurring set of configurations gives a few
// first-visit (cold) commits and mostly plan-cache hits, in alternating
// blocks of plain Commit() and wait-free multiverse_commit_live.
//
// References: a twin built from the same source with the plan cache off, on
// the legacy engine, follows the same walk with plain commits. After every
// commit the two text segments must be byte-identical, and the probe must
// return, on both programs, the value the host computes from the
// configuration.
#include <algorithm>

#include "perfbench/bench.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace pb {
namespace {

struct CorpusShape {
  int switches;    // boolean multiverse switches s0..
  int functions;   // multiversed functions f0..
  int refs;        // switches each function reads (2^refs variants)
  int callers;     // subsystem functions, three multiversed calls each
  int walk;        // commits per repetition
  int configs;     // recurring configurations the walk visits
  int block;       // commits per plain / wait-free block
};

constexpr CorpusShape kFullShape{6, 12, 4, 128, 160, 10, 20};
constexpr CorpusShape kControlShape{4, 4, 3, 32, 80, 6, 10};

int SwitchOf(int fn, int ref, const CorpusShape& shape) { return (fn + ref) % shape.switches; }

// f_k applies one step per referenced switch that is on. The steps differ per
// function and per switch, so every variant has its own body.
std::string CorpusSource(const CorpusShape& shape) {
  std::string source;
  for (int s = 0; s < shape.switches; ++s) {
    source += mv::StrFormat("__attribute__((multiverse)) int s%d;\n", s);
  }
  for (int f = 0; f < shape.functions; ++f) {
    source += mv::StrFormat("__attribute__((multiverse))\nlong f%d(long x) {\n", f);
    for (int r = 0; r < shape.refs; ++r) {
      const int s = SwitchOf(f, r, shape);
      switch (r % 4) {
        case 0:
          source += mv::StrFormat("  if (s%d) { x = x * 3 + %d; }\n", s, f + 1);
          break;
        case 1:
          source += mv::StrFormat("  if (s%d) { x = x ^ %d; }\n", s, 17 * f + 5);
          break;
        case 2:
          source += mv::StrFormat("  if (s%d) { x = x + %d; }\n", s, 11 + r);
          break;
        default:
          source += mv::StrFormat("  if (s%d) { x = x - %d; }\n", s, 2 * f + 1);
          break;
      }
    }
    source += "  return x;\n}\n";
  }
  // Callers carry some arithmetic of their own so the call sites spread
  // over many text pages.
  for (int c = 0; c < shape.callers; ++c) {
    const int a = c % shape.functions;
    const int b = (c * 5 + 1) % shape.functions;
    const int d = (c * 7 + 3) % shape.functions;
    source += mv::StrFormat(
        "long caller%d(long x) {\n"
        "  long y;\n"
        "  y = x * %d + 7;\n"
        "  y = y ^ (y >> 3);\n"
        "  x = f%d(x) + %d;\n"
        "  x = f%d(x) ^ y;\n"
        "  y = y * 5 + x;\n"
        "  x = f%d(x) - (y & 255);\n"
        "  return x;\n}\n",
        c, 2 * c + 1, a, c, b, d);
  }
  source += "long probe(long x) {\n  long acc;\n  acc = 0;\n";
  for (int c = 0; c < shape.callers; ++c) {
    source += mv::StrFormat("  acc = acc * 31 + caller%d(x + %d);\n", c, c);
  }
  source += "  return acc;\n}\n";
  return source;
}

// Host model of the generated source, for the probe's expected value.
uint64_t HostF(int f, uint64_t x, const std::vector<int>& config, const CorpusShape& shape) {
  for (int r = 0; r < shape.refs; ++r) {
    if (!config[static_cast<size_t>(SwitchOf(f, r, shape))]) {
      continue;
    }
    switch (r % 4) {
      case 0:
        x = x * 3 + static_cast<uint64_t>(f + 1);
        break;
      case 1:
        x = x ^ static_cast<uint64_t>(17 * f + 5);
        break;
      case 2:
        x = x + static_cast<uint64_t>(11 + r);
        break;
      default:
        x = x - static_cast<uint64_t>(2 * f + 1);
        break;
    }
  }
  return x;
}

uint64_t HostProbe(uint64_t x, const std::vector<int>& config, const CorpusShape& shape) {
  uint64_t acc = 0;
  for (int c = 0; c < shape.callers; ++c) {
    const int a = c % shape.functions;
    const int b = (c * 5 + 1) % shape.functions;
    const int d = (c * 7 + 3) % shape.functions;
    uint64_t v = x + static_cast<uint64_t>(c);
    uint64_t y = v * static_cast<uint64_t>(2 * c + 1) + 7;
    y = y ^ static_cast<uint64_t>(static_cast<int64_t>(y) >> 3);
    v = HostF(a, v, config, shape) + static_cast<uint64_t>(c);
    v = HostF(b, v, config, shape) ^ y;
    y = y * 5 + v;
    v = HostF(d, v, config, shape) - (y & 255);
    acc = acc * 31 + v;
  }
  return acc;
}

std::vector<int> ConfigBits(int index, int switches) {
  std::vector<int> config(static_cast<size_t>(switches));
  for (int s = 0; s < switches; ++s) {
    config[static_cast<size_t>(s)] = (index >> s) & 1;
  }
  return config;
}

// Writes the switches whose value changes on both programs.
bool WriteConfig(Program& program, const std::vector<int>& from, const std::vector<int>& to,
                 Rep* rep) {
  for (size_t s = 0; s < to.size(); ++s) {
    if (from[s] != to[s] &&
        !TimedWrite(program, mv::StrFormat("s%zu", s), to[s], 4, rep).ok()) {
      return false;
    }
  }
  return true;
}

bool CheckProbe(Program& program, uint64_t x, uint64_t expected, Rep* rep) {
  Result<uint64_t> got = [&] {
    GuestRun run("call", {&program.vm()}, rep);
    return program.Call("probe", {x});
  }();
  return rep->Check(got, "probe call") &&
         rep->Check(*got == expected, "probe result equals the host model");
}

}  // namespace

void RunFlips(const Context& ctx, Scale scale, Rep* rep) {
  const CorpusShape& shape = scale == Scale::kFull ? kFullShape : kControlShape;
  Recipe recipe{scale == Scale::kFull ? "flips_corpus" : "flips_corpus_control",
                {{"corpus", CorpusSource(shape)}},
                mv::BuildOptions{}};
  recipe.options.vm_memory = 8ull << 20;
  recipe.options.specializer.max_variants_per_function = 1 << shape.refs;
  Recipe twin_recipe = recipe;
  twin_recipe.options.attach.plan_cache = false;

  Result<std::unique_ptr<Program>> built = TimedBuild(recipe, rep);
  Result<std::unique_ptr<Program>> twin_built = TimedBuild(twin_recipe, rep);
  if (!built.ok() || !twin_built.ok()) {
    return;
  }
  Program& program = **built;
  Program& twin = **twin_built;
  program.vm().SetDispatchEngine(mv::DispatchEngine::kThreaded);
  twin.vm().SetDispatchEngine(mv::DispatchEngine::kLegacy);

  // The recurring configurations: a fixed Gray-code sequence, XORed with a
  // seeded base and with the switches seeded-permuted. The seed so changes
  // which configurations recur but not how far apart they are, and every
  // switch guards the same number of functions, so the cost of the walk does
  // not depend on the seed. From configuration j the walk moves to j+1 or
  // j+5 (mod the set): at most two transitions per configuration, all of
  // which the plan cache holds.
  mv::Rng rng(ctx.seed ^ 0xf11b5ull);
  const int space = 1 << shape.switches;
  const int base = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(space)));
  std::vector<int> order(static_cast<size_t>(shape.switches));
  for (int s = 0; s < shape.switches; ++s) {
    order[static_cast<size_t>(s)] = s;
  }
  for (int s = shape.switches - 1; s > 0; --s) {
    std::swap(order[static_cast<size_t>(s)],
              order[rng.NextBelow(static_cast<uint64_t>(s) + 1)]);
  }
  std::vector<int> indexes;
  for (int j = 0; j < shape.configs; ++j) {
    const int gray = (j ^ (j >> 1)) ^ base;
    int index = 0;
    for (int s = 0; s < shape.switches; ++s) {
      index |= ((gray >> s) & 1) << order[static_cast<size_t>(s)];
    }
    indexes.push_back(index);
  }

  std::vector<int> current(static_cast<size_t>(shape.switches), 0);
  int at = 0;
  for (int step = 0; step <= shape.walk; ++step) {
    if (step > 0) {
      at = (at + (rng.NextBelow(2) == 0 ? 1 : 5)) % shape.configs;
    }
    const std::vector<int> next = ConfigBits(indexes[static_cast<size_t>(at)], shape.switches);
    // Step 0 is the initial commit out of the generic image: part of set-up.
    const bool setup = step == 0;
    const bool live = !setup && ((step - 1) / shape.block) % 2 == 1;
    const double t0 = NowSeconds();
    if (!WriteConfig(program, current, next, rep) || !WriteConfig(twin, current, next, rep)) {
      return;
    }
    const Status committed = live ? TimedLiveCommit(program, rep, /*measured=*/true)
                                    : TimedCommit(program, rep, /*measured=*/!setup);
    if (!committed.ok() || !ReferenceCommit(twin, rep).ok()) {
      return;
    }
    if (setup) {
      rep->setup_s += NowSeconds() - t0;
    }
    current = next;
    rep->Check(TextBytes(program) == TextBytes(twin),
               "text byte-identical to the uncached legacy twin");
    const uint64_t x = rng.Next() & 0xffff;
    const uint64_t expected = HostProbe(x, current, shape);
    if (!CheckProbe(program, x, expected, rep) || !CheckProbe(twin, x, expected, rep)) {
      return;
    }
  }
  AddVmCounters(program.vm(), rep);
  AddVmCounters(twin.vm(), rep);
}

}  // namespace pb
