// Spans and the helpers every phase uses to time calls into the library.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/bench.h"
#include "src/core/plan_cache.h"
#include "src/livepatch/livepatch.h"

namespace pb {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CalibrationSeconds() {
  // A small switch-dispatched interpreter over a 256 KiB table: branchy,
  // load-heavy host work like the simulator's, but fixed in this file, so no
  // change to the code under test can move it.
  static std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1 << 16);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  static const std::vector<uint8_t> program = [] {
    std::vector<uint8_t> p(4096);
    uint32_t x = 12345;
    for (uint8_t& op : p) {
      x = x * 1103515245u + 12345u;
      op = static_cast<uint8_t>((x >> 16) % 6);
    }
    return p;
  }();
  const uint32_t mask = static_cast<uint32_t>(table.size() - 1);
  uint32_t acc = 1;
  uint32_t reg = 7;
  const double start = NowSeconds();
  for (int round = 0; round < 64; ++round) {
    for (uint8_t op : program) {
      switch (op) {
        case 0:
          acc += table[acc & mask];
          break;
        case 1:
          table[reg & mask] ^= acc;
          break;
        case 2:
          reg = reg * 31 + acc;
          break;
        case 3:
          acc = (acc & 1) != 0 ? (acc >> 1) ^ reg : acc * 3 + 1;
          break;
        case 4:
          acc ^= table[(reg >> 3) & mask];
          break;
        default:
          reg += acc >> 7;
          break;
      }
    }
  }
  const double elapsed = NowSeconds() - start;
  static volatile uint32_t sink;
  sink = acc ^ reg;
  return elapsed;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Open(const char* name, double start) {
  Record record;
  record.name = name;
  record.start = start;
  record.parent = open_.empty() ? -1 : open_.back();
  records_.push_back(record);
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void Tracer::Close(int index, double end) {
  records_[static_cast<size_t>(index)].end = end;
  // Spans are strictly nested (RAII), so the closing span is on top.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void Tracer::SelfTimes(size_t from, std::map<std::string, double>* self_s,
                       std::map<std::string, double>* counts) const {
  std::vector<double> child_s(records_.size() - from, 0.0);
  for (size_t i = from; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.parent >= static_cast<int>(from)) {
      child_s[static_cast<size_t>(r.parent) - from] += r.end - r.start;
    }
  }
  for (size_t i = from; i < records_.size(); ++i) {
    const Record& r = records_[i];
    (*self_s)[r.name] += (r.end - r.start) - child_s[i - from];
    (*counts)[r.name] += 1;
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double t0 = records_.empty() ? 0 : records_.front().start;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                    "\"parent\": %d}\n",
                 i, r.name, (r.start - t0) * 1e6, (r.end - t0) * 1e6, r.parent);
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name) : start_(NowSeconds()) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    index_ = tracer.Open(name, start_);
  }
}

double Span::Stop() {
  if (elapsed_ < 0) {
    const double end = NowSeconds();
    elapsed_ = end - start_;
    if (index_ >= 0) {
      Tracer::Get().Close(index_, end);
    }
  }
  return elapsed_;
}

void Rep::NoteBuilt(Recipe recipe, const Program& program) {
  for (const Recipe& known : recipes) {
    if (known.name == recipe.name) {
      return;
    }
  }
  Count("text_bytes", static_cast<double>(program.image().text_size));
  recipes.push_back(std::move(recipe));
}

bool Rep::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
  return ok;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

uint64_t TotalInstret(const mv::Vm& vm) {
  uint64_t total = 0;
  for (int i = 0; i < vm.num_cores(); ++i) {
    total += vm.core(i).instret;
  }
  return total;
}

uint64_t TotalTicks(const mv::Vm& vm) {
  uint64_t total = 0;
  for (int i = 0; i < vm.num_cores(); ++i) {
    total += vm.core(i).ticks;
  }
  return total;
}

std::vector<uint8_t> TextBytes(Program& program) {
  std::vector<uint8_t> text(program.image().text_size);
  if (!program.vm().memory().ReadRaw(program.image().text_base, text.data(), text.size()).ok()) {
    text.clear();
  }
  return text;
}

void AddVmCounters(const mv::Vm& vm, Rep* rep) {
  uint64_t mispredicts = 0;
  for (int i = 0; i < vm.num_cores(); ++i) {
    mispredicts += vm.core(i).cond_mispredicts;
  }
  rep->Count("vm.instret", static_cast<double>(TotalInstret(vm)));
  rep->Count("vm.cycles", mv::TicksToCycles(TotalTicks(vm)));
  rep->Count("vm.threaded_promotions", static_cast<double>(vm.threaded_promotions()));
  rep->Count("vm.threaded_deopts", static_cast<double>(vm.threaded_deopts()));
  rep->Count("vm.threaded_patchpoint_commits",
             static_cast<double>(vm.threaded_patchpoint_commits()));
  rep->Count("vm.superblocks_built", static_cast<double>(vm.superblocks_built()));
  rep->Count("vm.superblock_evictions", static_cast<double>(vm.superblock_evictions()));
  rep->Count("vm.icache_flushes", static_cast<double>(vm.icache_flushes()));
  rep->Count("vm.cond_mispredicts", static_cast<double>(mispredicts));
}

Result<std::unique_ptr<Program>> TimedBuild(const Recipe& recipe, Rep* rep) {
  Span span("program_build");
  Result<std::unique_ptr<Program>> program = Program::Build(recipe.sources, recipe.options);
  rep->setup_s += span.Stop();
  rep->Check(program.status(), "build " + recipe.name);
  if (program.ok()) {
    rep->NoteBuilt(recipe, **program);
  }
  return program;
}

Status TimedCommit(Program& program, Rep* rep, bool measured) {
  const uint64_t hits = program.runtime().fast_stats().plan_cache_hits;
  Span span("commit");
  Result<mv::PatchStats> stats = program.runtime().Commit();
  const double s = span.Stop();
  if (!rep->Check(stats, "plain commit")) {
    return stats.status();
  }
  if (measured) {
    const bool warm = program.runtime().fast_stats().plan_cache_hits > hits;
    rep->Sample(warm ? "commit_us_warm" : "commit_us_cold", s * 1e6);
  }
  rep->Sample("commit.plain_us", s * 1e6);
  const mv::TxnStats& txn = program.runtime().last_txn();
  rep->Count("commit.ops_applied", txn.ops_applied);
  rep->Count("commit.rollbacks", txn.rollbacks);
  rep->Count("commit.retries", txn.retries);
  return Status::Ok();
}

Status ReferenceCommit(Program& program, Rep* rep) {
  Span span("reference_commit");
  Result<mv::PatchStats> stats = program.runtime().Commit();
  rep->Check(stats, "reference commit");
  return stats.status();
}

Status TimedLiveCommit(Program& program, Rep* rep, bool measured,
                       const std::vector<int>& mutator_cores, double* commit_cycles) {
  mv::LiveCommitOptions options;
  options.protocol = mv::CommitProtocol::kWaitFree;
  options.mutator_cores = mutator_cores;
  const uint64_t hits = program.runtime().fast_stats().plan_cache_hits;
  Span span("commit_live");
  Result<mv::LiveCommitStats> stats =
      mv::multiverse_commit_live(&program.vm(), &program.runtime(), options);
  const double us = span.Stop() * 1e6;
  if (!rep->Check(stats, "waitfree live commit")) {
    return stats.status();
  }
  if (measured && program.runtime().fast_stats().plan_cache_hits > hits) {
    rep->Sample("commit_us_live", us);
  }
  rep->Sample("livepatch.commit_us", us);
  rep->Sample("livepatch.commit_cycles", stats->CommitCycles());
  rep->Count("livepatch.word_stores", static_cast<double>(stats->word_stores));
  rep->Count("livepatch.disturbance_cycles", stats->DisturbanceCycles());
  rep->Count("livepatch.parked_cycles", mv::TicksToCycles(stats->parked_ticks));
  rep->Count("livepatch.waitfree_fallbacks", stats->waitfree_fallback ? 1 : 0);
  rep->Count("commit.rollbacks", stats->txn.rollbacks);
  rep->Count("commit.retries", stats->txn.retries);
  if (commit_cycles != nullptr) {
    *commit_cycles = stats->CommitCycles();
  }
  return Status::Ok();
}

Status TimedWrite(Program& program, const std::string& name, int64_t value, int width, Rep* rep) {
  Span span("write_global");
  Status status = program.WriteGlobal(name, value, width);
  rep->AddHost("commit.write_s", span.Stop());
  rep->Check(status, "write " + name);
  return status;
}

GuestRun::GuestRun(const char* span, std::vector<mv::Vm*> vms, Rep* rep, bool section)
    : span_(span), span_name_(span), vms_(std::move(vms)), rep_(rep), section_(section) {
  for (const mv::Vm* vm : vms_) {
    instret_ += TotalInstret(*vm);
  }
}

GuestRun::~GuestRun() {
  const double s = span_.Stop();
  rep_->AddHost("run_s", s);
  if (!section_) {
    return;
  }
  uint64_t instret = 0;
  for (const mv::Vm* vm : vms_) {
    instret += TotalInstret(*vm);
  }
  const bool legacy =
      !vms_.empty() && vms_.front()->dispatch_engine() == mv::DispatchEngine::kLegacy;
  const std::string engine = legacy ? "legacy" : "threaded";
  rep_->Count("section_instret." + engine, static_cast<double>(instret - instret_));
  rep_->Sample("section_s." + engine + "." + span_name_, s);
}

}  // namespace pb
