// Shared types of the whole-stack benchmark (see README.md in this
// directory). One process runs one workload: a loop of repetitions, each of
// which builds everything it uses from source, runs its phases, checks every
// output against an independent reference and records what it measured into
// a Rep. main.cc turns the Reps into the end-to-end and per-layer metrics.
#ifndef MULTIVERSE_PERFBENCH_BENCH_H_
#define MULTIVERSE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/program.h"
#include "src/support/status.h"
#include "src/vm/vm.h"

namespace pb {

using mv::Program;
using mv::Result;
using mv::Status;

double NowSeconds();

// Host seconds of one run of a fixed calibration kernel (README.md,
// "Steadiness").
double CalibrationSeconds();

// --- spans -----------------------------------------------------------------

// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions. A Span always measures its host duration (the
// end-to-end metrics need it); it is kept as a record — name, start, end,
// parent — only while the tracer is enabled.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    double start = 0;  // host seconds
    double end = 0;
    int parent = -1;   // index into records(), -1 for a root span
  };

  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Open(const char* name, double start);
  void Close(int index, double end);

  const std::vector<Record>& records() const { return records_; }
  size_t mark() const { return records_.size(); }

  // Self time (host seconds) and count per span name over records [from, end).
  void SelfTimes(size_t from, std::map<std::string, double>* self_s,
                 std::map<std::string, double>* counts) const;

  // Writes every record as JSON lines; returns false if the file cannot be
  // written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open record indexes
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent) and returns its host duration in seconds.
  double Stop();

 private:
  double start_;
  double elapsed_ = -1;
  int index_ = -1;
};

// --- one repetition ----------------------------------------------------------

// A build recipe: what Program::Build was given. The traced run rebuilds each
// distinct recipe step by step (stepwise.cc) and checks the text against
// Program::Build's.
struct Recipe {
  std::string name;
  std::vector<mv::ProgramSource> sources;
  mv::BuildOptions options;
};

struct Rep {
  double setup_s = 0;     // host: builds, attaches and initial commits
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // Modelled values and counts: a pure function of the seed and the code,
  // so every repetition of one run must produce exactly the same map.
  std::map<std::string, double> exact;
  // Host measurements: samples pooled across repetitions (medians).
  std::map<std::string, std::vector<double>> samples;
  // Host totals within this repetition (seconds unless the name says).
  std::map<std::string, double> host;

  std::vector<Recipe> recipes;  // distinct programs this repetition built

  void Count(const std::string& name, double value) { exact[name] += value; }
  void Sample(const std::string& name, double value) { samples[name].push_back(value); }
  void AddHost(const std::string& name, double value) { host[name] += value; }
  // Records a program built from `recipe`; the first build of each recipe
  // name adds its text segment to text_bytes.
  void NoteBuilt(Recipe recipe, const Program& program);

  // Counts one attempted operation or check; a false `ok` is a failure.
  bool Check(bool ok, const std::string& what);
  template <typename T>
  bool Check(const Result<T>& result, const std::string& what) {
    return Check(result.ok(), result.ok() ? what : what + ": " + result.status().ToString());
  }
  bool Check(const Status& status, const std::string& what) {
    return Check(status.ok(), status.ok() ? what : what + ": " + status.ToString());
  }
};

// How much of a phase a workload runs: its own phase at full size, the other
// three as small controls (README.md, "Controls").
enum class Scale { kFull, kControl };

struct Context {
  uint64_t seed = 0;
};

// The four phases; each workload runs all four, one of them at kFull.
void RunCaseStudies(const Context& ctx, Scale scale, Rep* rep);
void RunFlips(const Context& ctx, Scale scale, Rep* rep);
void RunStorm(const Context& ctx, Scale scale, Rep* rep);
void RunRollout(const Context& ctx, Scale scale, Rep* rep);

// Step-by-step build of one recipe through the public pipeline calls, with
// per-phase spans and counts; checks the text is byte-identical to
// Program::Build's.
void BuildStepwise(const Recipe& recipe, Rep* rep);

// --- helpers shared by the phases ---------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p);

uint64_t TotalInstret(const mv::Vm& vm);
uint64_t TotalTicks(const mv::Vm& vm);
std::vector<uint8_t> TextBytes(Program& program);

// Adds the VM's counters (instret, cycles, tier and cache events) to the
// repetition's exact counts. Called once per VM, before it is destroyed.
void AddVmCounters(const mv::Vm& vm, Rep* rep);

// Program::Build under a "program_build" span, charging the time to set-up.
Result<std::unique_ptr<Program>> TimedBuild(const Recipe& recipe, Rep* rep);

// Plain Commit() under a "commit" span. A measured commit's sample goes to
// commit_us_cold or commit_us_warm depending on whether the plan cache hit;
// set-up commits only feed the per-layer commit figures.
Status TimedCommit(Program& program, Rep* rep, bool measured = true);

// Plain Commit() of a reference program: checked, but not sampled.
Status ReferenceCommit(Program& program, Rep* rep);

// Waitfree multiverse_commit_live under a "commit_live" span; a measured
// commit that hits the plan cache is a commit_us_live sample.
Status TimedLiveCommit(Program& program, Rep* rep, bool measured,
                       const std::vector<int>& mutator_cores = {},
                       double* commit_cycles = nullptr);

// WriteGlobal under a "write_global" span.
Status TimedWrite(Program& program, const std::string& name, int64_t value, int width, Rep* rep);

// Runs guest code under a span: host time goes to vm.run_s. A case-study
// section also records its host time as a sample and its retired
// instructions against its dispatch engine (sim_mips / sim_mips_legacy).
class GuestRun {
 public:
  GuestRun(const char* span, std::vector<mv::Vm*> vms, Rep* rep, bool section = false);
  ~GuestRun();
  GuestRun(const GuestRun&) = delete;
  GuestRun& operator=(const GuestRun&) = delete;

 private:
  Span span_;
  const char* span_name_;
  std::vector<mv::Vm*> vms_;
  uint64_t instret_ = 0;
  Rep* rep_;
  bool section_;
};

}  // namespace pb

#endif  // MULTIVERSE_PERFBENCH_BENCH_H_
