// Whole-stack benchmark program. Usage:
//
//   perfbench --workload <casestudies|flips|storm|rollout> --seed N
//             --seconds S --trace <0|1> [--spans PATH]
//
// Runs repetitions of the workload until S seconds have passed (at least
// three). Every repetition builds what it uses from source, so every
// repetition must reproduce the same modelled values and counts exactly; any
// drift is a failure. With --trace 0 the last stdout line is a JSON object
// with the end-to-end metrics; with --trace 1 repetitions alternate between
// untraced and traced, and the line carries the per-layer metrics, the
// tracing overhead and the sample count beside every percentile. The exit
// code is 0 only if every operation and every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/plan_cache.h"

namespace pb {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "casestudies" || args->workload == "flips" ||
          args->workload == "storm" || args->workload == "rollout");
}

double Get(const std::map<std::string, double>& map, const std::string& key) {
  auto it = map.find(key);
  return it == map.end() ? 0.0 : it->second;
}

// One finished repetition plus what the tracer saw during it.
struct RepRecord {
  Rep rep;
  bool traced = false;
  double wall_s = 0;                   // the repetition, step-by-step builds excluded
  std::map<std::string, double> self_s;      // span self time by name
  std::map<std::string, double> span_count;  // spans by name
  Rep layers;                          // the step-by-step builds (traced only)
};

void AddGlobalCounters(const mv::CommitFastPathStats& before, Rep* rep) {
  const mv::CommitFastPathStats& now = mv::GlobalCommitCounters::Instance().totals;
  rep->Count("commit.plan_cache_hits", static_cast<double>(now.plan_cache_hits - before.plan_cache_hits));
  rep->Count("commit.plan_cache_misses",
             static_cast<double>(now.plan_cache_misses - before.plan_cache_misses));
  rep->Count("commit.plan_cache_evictions",
             static_cast<double>(now.plan_cache_evictions - before.plan_cache_evictions));
  rep->Count("commit.fns_reevaluated", static_cast<double>(now.fns_reevaluated - before.fns_reevaluated));
  rep->Count("commit.fns_skipped", static_cast<double>(now.fns_skipped - before.fns_skipped));
  rep->Count("commit.pages_touched", static_cast<double>(now.pages_touched - before.pages_touched));
  rep->Count("commit.mprotect_calls", static_cast<double>(now.mprotect_calls - before.mprotect_calls));
  rep->Count("commit.flush_ranges", static_cast<double>(now.flush_ranges - before.flush_ranges));
}

RepRecord RunRep(const Args& args, bool traced) {
  RepRecord record;
  record.traced = traced;
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(traced);
  const size_t mark = tracer.mark();
  const Context ctx{args.seed};
  const auto scale = [&](const char* phase) {
    return args.workload == phase ? Scale::kFull : Scale::kControl;
  };
  const mv::CommitFastPathStats before = mv::GlobalCommitCounters::Instance().totals;
  const double t0 = NowSeconds();
  // The machine's speed drifts; the calibration kernel, timed before every
  // phase, measures the drift so the end-to-end host figures can be scaled
  // to a reference speed.
  const auto calibrate = [&] {
    for (int i = 0; i < 3; ++i) {
      record.rep.Sample("calibration_s", CalibrationSeconds());
    }
  };
  calibrate();
  RunCaseStudies(ctx, scale("casestudies"), &record.rep);
  calibrate();
  RunFlips(ctx, scale("flips"), &record.rep);
  calibrate();
  RunStorm(ctx, scale("storm"), &record.rep);
  calibrate();
  RunRollout(ctx, scale("rollout"), &record.rep);
  record.wall_s = NowSeconds() - t0;
  AddGlobalCounters(before, &record.rep);
  if (traced) {
    for (const Recipe& recipe : record.rep.recipes) {
      BuildStepwise(recipe, &record.layers);
    }
    tracer.SelfTimes(mark, &record.self_s, &record.span_count);
  }
  tracer.set_enabled(false);
  return record;
}

// --- metric tables -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> Pooled(const std::vector<const RepRecord*>& reps, const std::string& key) {
  std::vector<double> all;
  for (const RepRecord* r : reps) {
    auto it = r->rep.samples.find(key);
    if (it != r->rep.samples.end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return all;
}

double PooledMedian(const std::vector<const RepRecord*>& reps, const std::string& key) {
  return Median(Pooled(reps, key));
}

template <typename F>
double RepMedian(const std::vector<const RepRecord*>& reps, F&& value_of) {
  std::vector<double> values;
  for (const RepRecord* r : reps) {
    values.push_back(value_of(*r));
  }
  return Median(values);
}

// Guest instructions per host second on one engine: one repetition's
// case-study instructions over one repetition's section time, where each
// kind of section is charged its median host time across the run.
double Mips(const std::vector<const RepRecord*>& reps, const std::string& engine) {
  const std::string prefix = "section_s." + engine + ".";
  double seconds = 0;
  for (const auto& [key, unused] : reps.front()->rep.samples) {
    if (key.rfind(prefix, 0) == 0) {
      const std::vector<double> all = Pooled(reps, key);
      seconds += Median(all) * static_cast<double>(all.size()) / static_cast<double>(reps.size());
    }
  }
  const double instret = Get(reps.front()->rep.exact, "section_instret." + engine);
  return seconds > 0 ? instret / seconds / 1e6 : 0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Host seconds the calibration kernel takes at the reference speed.
constexpr double kReferenceCalibrationS = 2.5e-3;

std::vector<Metric> EndToEnd(const std::vector<const RepRecord*>& reps) {
  const Rep& first = reps.front()->rep;
  // Host times are scaled by `speed` and host rates divided by it: the
  // figures the run would have read at the reference speed.
  const double speed = kReferenceCalibrationS / PooledMedian(reps, "calibration_s");
  return {
      {"setup_s", speed * RepMedian(reps, [](const RepRecord& r) { return r.rep.setup_s; }), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"text_bytes", Get(first.exact, "text_bytes"), "bytes"},
      {"sim_mips", Mips(reps, "threaded") / speed, "MIPS"},
      {"sim_mips_legacy", Mips(reps, "legacy") / speed, "MIPS"},
      {"guest_cycles", Get(first.exact, "guest_cycles"), "cycles"},
      {"commit_us_cold", speed * PooledMedian(reps, "commit_us_cold"), "us"},
      {"commit_us_warm", speed * PooledMedian(reps, "commit_us_warm"), "us"},
      {"commit_us_live", speed * PooledMedian(reps, "commit_us_live"), "us"},
      {"requests_per_s", PooledMedian(reps, "requests_per_s") / speed, "1/s"},
      {"request_cycles_p50", Get(first.exact, "request_cycles_p50"), "cycles"},
      {"request_cycles_p99", Get(first.exact, "request_cycles_p99"), "cycles"},
      {"rollout_ms", speed * PooledMedian(reps, "rollout_ms"), "ms"},
      {"rollout_cycles", Get(first.exact, "rollout_cycles"), "cycles"},
  };
}

// Span names whose self time the traced run reports (self_ms.<name>).
const char* const kSpanNames[] = {
    "program_build", "fleet_build",   "frontend",     "specializer",  "opt",
    "codegen",       "vm_alloc",      "link",         "attach",       "commit",
    "commit_live",   "write_global",  "reference_commit", "call",     "measure_spinlock",
    "run_grep",      "measure_libc",  "drain_batch",  "storm_submit", "storm_poll",
    "storm_flush",   "settle_batch",  "fleet_serve",  "rollout",      "fleet_restart",
    "program_build_reference",
};

std::vector<Metric> PerLayer(const std::vector<const RepRecord*>& traced,
                             const std::vector<const RepRecord*>& untraced) {
  const Rep& first = traced.front()->rep;
  const Rep& layers = traced.front()->layers;
  const auto self_ms = [&](const char* span) {
    return RepMedian(traced, [&](const RepRecord& r) { return Get(r.self_s, span) * 1e3; });
  };
  const auto host_total = [&](const char* key, double scale) {
    return RepMedian(traced, [&](const RepRecord& r) { return Get(r.rep.host, key) * scale; });
  };
  const auto exact = [&](const char* key) { return Get(first.exact, key); };
  const std::vector<double> plain = Pooled(traced, "commit.plain_us");
  const std::vector<double> live = Pooled(traced, "livepatch.commit_us");
  const double hits = exact("commit.plan_cache_hits");
  const double misses = exact("commit.plan_cache_misses");
  const double plans = exact("storm.plans_committed");
  const double submitted = exact("storm.flips_submitted");
  const double traced_wall = RepMedian(traced, [](const RepRecord& r) { return r.wall_s; });
  const double untraced_wall = RepMedian(untraced, [](const RepRecord& r) { return r.wall_s; });
  std::vector<Metric> metrics = {
      {"frontend.ms", self_ms("frontend"), "ms"},
      {"frontend.ir_insns", Get(layers.exact, "frontend.ir_insns"), "count"},
      {"specializer.ms", self_ms("specializer"), "ms"},
      {"specializer.variants_generated", Get(layers.exact, "specializer.variants_generated"),
       "count"},
      {"specializer.variants_kept", Get(layers.exact, "specializer.variants_kept"), "count"},
      {"opt.ms", self_ms("opt"), "ms"},
      {"opt.ir_insns", Get(layers.exact, "opt.ir_insns"), "count"},
      {"codegen.ms", self_ms("codegen"), "ms"},
      {"codegen.text_bytes", Get(layers.exact, "codegen.text_bytes"), "bytes"},
      {"codegen.descriptor_bytes", Get(layers.exact, "codegen.descriptor_bytes"), "bytes"},
      {"link.ms", self_ms("link"), "ms"},
      {"vm.alloc_ms", self_ms("vm_alloc"), "ms"},
      {"attach.ms", self_ms("attach"), "ms"},
      {"attach.callsites", Get(layers.exact, "attach.callsites"), "count"},
      {"vm.run_s", host_total("run_s", 1), "s"},
      {"vm.instret", exact("vm.instret"), "count"},
      {"vm.cycles", exact("vm.cycles"), "cycles"},
      {"vm.threaded_promotions", exact("vm.threaded_promotions"), "count"},
      {"vm.threaded_deopts", exact("vm.threaded_deopts"), "count"},
      {"vm.threaded_patchpoint_commits", exact("vm.threaded_patchpoint_commits"), "count"},
      {"vm.superblocks_built", exact("vm.superblocks_built"), "count"},
      {"vm.superblock_evictions", exact("vm.superblock_evictions"), "count"},
      {"vm.icache_flushes", exact("vm.icache_flushes"), "count"},
      {"vm.cond_mispredicts", exact("vm.cond_mispredicts"), "count"},
      {"commit.plain_us_p50", Percentile(plain, 0.50), "us"},
      {"commit.plain_us_p99", Percentile(plain, 0.99), "us"},
      {"commit.plain_us_samples", static_cast<double>(plain.size()), "count"},
      {"commit.write_us", host_total("commit.write_s", 1e6), "us"},
      {"commit.plan_cache_hits", hits, "count"},
      {"commit.plan_cache_misses", misses, "count"},
      {"commit.plan_cache_evictions", exact("commit.plan_cache_evictions"), "count"},
      {"commit.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"},
      {"commit.fns_reevaluated", exact("commit.fns_reevaluated"), "count"},
      {"commit.fns_skipped", exact("commit.fns_skipped"), "count"},
      {"commit.ops_applied", exact("commit.ops_applied"), "count"},
      {"commit.pages_touched", exact("commit.pages_touched"), "count"},
      {"commit.mprotect_calls", exact("commit.mprotect_calls"), "count"},
      {"commit.flush_ranges", exact("commit.flush_ranges"), "count"},
      {"commit.rollbacks", exact("commit.rollbacks"), "count"},
      {"commit.retries", exact("commit.retries"), "count"},
      {"livepatch.commit_us_p50", Percentile(live, 0.50), "us"},
      {"livepatch.commit_us_p99", Percentile(live, 0.99), "us"},
      {"livepatch.commit_us_samples", static_cast<double>(live.size()), "count"},
      {"livepatch.commit_cycles", Median(Pooled(traced, "livepatch.commit_cycles")), "cycles"},
      {"livepatch.word_stores", exact("livepatch.word_stores"), "count"},
      {"livepatch.disturbance_cycles", exact("livepatch.disturbance_cycles"), "cycles"},
      {"livepatch.parked_cycles", exact("livepatch.parked_cycles"), "cycles"},
      {"livepatch.waitfree_fallbacks", exact("livepatch.waitfree_fallbacks"), "count"},
      {"storm.submit_us", host_total("storm.submit_s", 1e6), "us"},
      {"storm.poll_us", host_total("storm.poll_s", 1e6), "us"},
      {"storm.flips_submitted", submitted, "count"},
      {"storm.flips_coalesced", exact("storm.flips_coalesced"), "count"},
      {"storm.flips_elided_null", exact("storm.flips_elided_null"), "count"},
      {"storm.plans_committed", plans, "count"},
      {"storm.coalescing_ratio", plans > 0 ? submitted / plans : submitted, "ratio"},
      {"storm.backpressure_waits", exact("storm.backpressure_waits"), "count"},
      {"storm.max_queue_depth", exact("storm.max_queue_depth"), "count"},
      {"storm.batch_p99_cycles", exact("storm.batch_p99_cycles"), "cycles"},
      {"storm.busy_cycles", exact("storm.busy_cycles"), "cycles"},
      {"guest.spinlock_pair_cycles", exact("guest.spinlock_pair_cycles"), "cycles"},
      {"guest.grep_cycles", exact("guest.grep_cycles"), "cycles"},
      {"guest.musl_cycles", exact("guest.musl_cycles"), "cycles"},
      {"guest.request_wait_cycles_p99", exact("guest.request_wait_cycles_p99"), "cycles"},
      {"guest.request_samples", exact("requests"), "count"},
      {"journal.records", exact("journal.records"), "count"},
      {"journal.recoveries_old", exact("journal.recoveries_old"), "count"},
      {"journal.recoveries_new", exact("journal.recoveries_new"), "count"},
      {"fleet.rollout_ms", PooledMedian(traced, "rollout_ms"), "ms"},
      {"fleet.rollout_samples", static_cast<double>(Pooled(traced, "rollout_ms").size()), "count"},
      {"fleet.serve_ms", host_total("fleet.serve_s", 1e3), "ms"},
      {"fleet.restart_ms", PooledMedian(traced, "fleet.restart_ms"), "ms"},
      {"fleet.crash_recoveries", exact("fleet.crash_recoveries"), "count"},
      {"fleet.commit_timeouts", exact("fleet.commit_timeouts"), "count"},
      {"fleet.quarantined", exact("fleet.quarantined"), "count"},
      {"fleet.reverts", exact("fleet.reverts"), "count"},
      {"host.calibration_us", PooledMedian(traced, "calibration_s") * 1e6, "us"},
      {"trace.overhead_pct", untraced_wall > 0 ? (traced_wall / untraced_wall - 1) * 100 : 0, "%"},
      {"trace.spans_per_rep",
       RepMedian(traced,
                 [](const RepRecord& r) {
                   double n = 0;
                   for (const auto& [name, count] : r.span_count) {
                     n += count;
                   }
                   return n;
                 }),
       "count"},
  };
  for (const char* span : kSpanNames) {
    metrics.push_back({std::string("self_ms.") + span, self_ms(span), "ms"});
  }
  return metrics;
}

// Modelled values and counts must repeat exactly across repetitions.
void CheckDeterminism(const std::vector<RepRecord>& records, uint64_t* attempted,
                      uint64_t* failed, std::vector<std::string>* errors) {
  for (size_t i = 1; i < records.size(); ++i) {
    ++*attempted;
    const auto& want = records[0].rep.exact;
    const auto& got = records[i].rep.exact;
    bool same = want.size() == got.size();
    for (const auto& [key, value] : want) {
      if (Get(got, key) != value) {
        same = false;
        errors->push_back("repetition " + std::to_string(i) + " drifted on " + key + ": " +
                          std::to_string(value) + " vs " + std::to_string(Get(got, key)));
        break;
      }
    }
    if (!same) {
      ++*failed;
    }
  }
}

std::string Json(const std::vector<Metric>& metrics, bool correct, uint64_t attempted,
                 uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <casestudies|flips|storm|rollout> --seed N "
                 "--seconds S --trace <0|1> [--spans PATH]\n");
    return 2;
  }
  // Blocks of 1 MiB and more (every VM's memory) are mapped on allocation and
  // unmapped on free, so peak resident memory does not depend on how the
  // allocator's adaptive threshold moved during the run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::vector<RepRecord> records;
  const double start = NowSeconds();
  while (records.size() < static_cast<size_t>(kMaxReps) &&
         (records.size() < static_cast<size_t>(kMinReps) ||
          NowSeconds() - start < args.seconds)) {
    // The traced run alternates untraced and traced repetitions so the
    // difference between the two is the tracing overhead.
    const bool traced = args.trace && records.size() % 2 == 1;
    records.push_back(RunRep(args, traced));
    // Stop early on a broken build: every later repetition would fail alike.
    if (records.back().rep.failed > 0) {
      break;
    }
  }
  if (args.trace && records.size() < 2) {
    records.push_back(RunRep(args, true));
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const RepRecord& r : records) {
    attempted += r.rep.attempted + r.layers.attempted;
    failed += r.rep.failed + r.layers.failed;
    errors.insert(errors.end(), r.rep.errors.begin(), r.rep.errors.end());
    errors.insert(errors.end(), r.layers.errors.begin(), r.layers.errors.end());
  }
  // Untraced and traced repetitions both run the same phases, but only the
  // traced ones add step-by-step builds, which have their own map.
  CheckDeterminism(records, &attempted, &failed, &errors);

  std::vector<const RepRecord*> traced;
  std::vector<const RepRecord*> untraced;
  for (const RepRecord& r : records) {
    (r.traced ? traced : untraced).push_back(&r);
  }
  const std::vector<Metric> metrics = args.trace ? PerLayer(traced, untraced) : EndToEnd(untraced);

  std::printf("perfbench workload=%s seed=%llu repetitions=%zu (%zu traced)\n",
              args.workload.c_str(), (unsigned long long)args.seed, records.size(),
              traced.size());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-36s %18.6g (%llu failed of %llu attempted)\n", "fail_rate",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              (unsigned long long)failed, (unsigned long long)attempted);
  if (!args.trace) {
    const double calibration = PooledMedian(untraced, "calibration_s");
    std::printf("  host speed %.4f of the reference: the calibration kernel took %.1f us "
                "(reference %.1f us); host figures above are scaled to the reference\n",
                kReferenceCalibrationS / calibration, calibration * 1e6,
                kReferenceCalibrationS * 1e6);
    std::printf("  samples (n, q1, median, q3) of the pooled host figures; request_cycles over "
                "%g requests per repetition:\n",
                Get(untraced.front()->rep.exact, "requests"));
    for (const char* key : {"commit_us_cold", "commit_us_warm", "commit_us_live",
                            "requests_per_s", "rollout_ms", "calibration_s"}) {
      const std::vector<double> pooled = Pooled(untraced, key);
      std::printf("    %-20s n=%-6zu %12.6g %12.6g %12.6g\n", key, pooled.size(),
                  Percentile(pooled, 0.25), Median(pooled), Percentile(pooled, 0.75));
    }
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
  }
  if (args.trace && !args.spans_path.empty() &&
      !Tracer::Get().WriteJsonLines(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
  }
  const bool correct = failed == 0;
  std::printf("%s\n", Json(metrics, correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
