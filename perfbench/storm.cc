// Phase "storm": open loop on the modelled timeline. The two-core server
// (BuildServer) serves a seeded request stream at a fixed rate on core 0
// while a serve_batch runs on core 1, and a seeded flip storm at a fixed rate
// goes through a CommitScheduler whose drains are wait-free live commits.
// Each request is timed from its due time to its completion, so a drain that
// blocks the loop shows as waiting on every request behind it.
//
// References: the served counter must equal the requests completed plus the
// core-1 batch (0 torn, 0 dropped), and a twin built from the same source
// with the plan cache off, on the legacy engine, commits every drained
// configuration with a plain commit: its text must be byte-identical to the
// server's after every drain.
#include <algorithm>

#include "perfbench/bench.h"
#include "src/core/commit_scheduler.h"
#include "src/livepatch/livepatch.h"
#include "src/obj/linker.h"
#include "src/support/rng.h"
#include "src/workloads/server.h"

namespace pb {
namespace {

constexpr double kInterArrivalCycles = 1200;  // request rate: one per 1200 cycles
constexpr int kFlipsPerRequest = 2;           // flip rate: two per request slot
constexpr double kWindowCycles = 60'000;      // scheduler debounce window
constexpr uint64_t kBatchRequests = 400;      // core-1 background batch
constexpr uint64_t kWarmupSteps = 500;        // park core 1 mid-batch

// Core 1 only moves while a live commit co-runs it, so it can be left
// between the load and the store of the shared served counter, and a request
// core 0 completes meanwhile would be overwritten. After every such move the
// background worker finishes the request it is in (it stops right after its
// increment), so the counter stays exact.
bool SettleBackground(Program& server, Rep* rep) {
  Result<int64_t> served = server.ReadGlobal(mv::kServerServedCounter);
  if (!rep->Check(served, "read served")) {
    return false;
  }
  GuestRun run("settle_batch", {&server.vm()}, rep);
  for (int step = 0; step < 100'000; ++step) {
    if (server.vm().Step(1).has_value()) {
      return true;  // the batch ended (or stopped): no request is in flight
    }
    Result<int64_t> now = server.ReadGlobal(mv::kServerServedCounter);
    if (!now.ok() || *now != *served) {
      return rep->Check(now, "read served");
    }
  }
  return rep->Check(false, "background request finished within 100000 steps");
}

}  // namespace

void RunStorm(const Context& ctx, Scale scale, Rep* rep) {
  const uint64_t requests = scale == Scale::kFull ? 80'000 : 40'000;

  // Set-up: the server (BuildServer commits the all-off configuration) and
  // its reference twin, committed likewise.
  Result<std::unique_ptr<Program>> built = [&] {
    Span span("program_build");
    Result<std::unique_ptr<Program>> server = mv::BuildServer(/*cores=*/2);
    rep->setup_s += span.Stop();
    rep->Check(server.status(), "build server");
    return server;
  }();
  Recipe twin_recipe{"server", {{"server", mv::ServerSource()}}, mv::BuildOptions{}};
  twin_recipe.options.vm_cores = 2;
  if (!built.ok()) {
    return;
  }
  Program& server = **built;
  rep->NoteBuilt(twin_recipe, server);
  twin_recipe.options.vm_memory = 8ull << 20;
  twin_recipe.options.attach.plan_cache = false;
  Result<std::unique_ptr<Program>> twin_built = TimedBuild(twin_recipe, rep);
  if (!twin_built.ok()) {
    return;
  }
  Program& twin = **twin_built;
  twin.vm().SetDispatchEngine(mv::DispatchEngine::kLegacy);
  server.vm().SetDispatchEngine(mv::DispatchEngine::kThreaded);
  {
    const double t0 = NowSeconds();
    const bool ok = ReferenceCommit(twin, rep).ok();
    rep->setup_s += NowSeconds() - t0;
    if (!ok || !rep->Check(TextBytes(server) == TextBytes(twin), "server text equals twin")) {
      return;
    }
  }

  // Core 1: a background batch parked mid-flight.
  Result<int64_t> served_before = server.ReadGlobal(mv::kServerServedCounter);
  Result<uint64_t> batch_addr = server.SymbolAddress(mv::kServerBatchFn);
  if (!rep->Check(served_before, "read served") || !rep->Check(batch_addr, "find serve_batch")) {
    return;
  }
  mv::SetupCall(server.image(), &server.vm(), *batch_addr, {3, kBatchRequests}, /*core=*/1);
  for (uint64_t i = 0; i < kWarmupSteps; ++i) {
    if (server.vm().Step(1).has_value()) {
      break;
    }
  }
  if (!SettleBackground(server, rep)) {
    return;
  }

  // Drains: a wait-free live commit on the server, then the same
  // configuration committed on the twin.
  const std::vector<std::string>& switches = mv::ServerSwitches();
  mv::StormOptions options;
  options.window_cycles = kWindowCycles;
  options.commit = [&]() -> Result<mv::BatchCommitResult> {
    double cycles = 0;
    MV_RETURN_IF_ERROR(TimedLiveCommit(server, rep, /*measured=*/false, {1}, &cycles));
    if (!SettleBackground(server, rep)) {
      return Status::Internal("background request did not finish");
    }
    for (const std::string& name : switches) {
      MV_ASSIGN_OR_RETURN(const int64_t value, server.ReadGlobal(name, 4));
      MV_RETURN_IF_ERROR(twin.WriteGlobal(name, value, 4));
    }
    MV_RETURN_IF_ERROR(ReferenceCommit(twin, rep));
    rep->Check(TextBytes(server) == TextBytes(twin), "drained text equals the twin's");
    mv::BatchCommitResult result;
    result.commit_cycles = cycles;
    return result;
  };
  mv::CommitScheduler scheduler(&server, options);

  mv::Rng rng(ctx.seed ^ 0x5704ull);
  std::vector<double> latency;
  std::vector<double> wait;
  latency.reserve(requests);
  wait.reserve(requests);
  uint64_t dropped = 0;
  const uint64_t total_flips = requests * kFlipsPerRequest;
  const double flip_gap = kInterArrivalCycles / kFlipsPerRequest;
  uint64_t next_flip = 0;
  double now = 0;
  double submit_s = 0;
  double poll_s = 0;
  // Host throughput is sampled per chunk of requests, commits included.
  constexpr uint64_t kChunk = 250;
  double chunk_start = NowSeconds();
  for (uint64_t r = 0; r < requests; ++r) {
    if (r > 0 && r % kChunk == 0) {
      const double now_s = NowSeconds();
      rep->Sample("requests_per_s", static_cast<double>(kChunk) / (now_s - chunk_start));
      chunk_start = now_s;
    }
    const double due = static_cast<double>(r) * kInterArrivalCycles;
    while (next_flip < total_flips && static_cast<double>(next_flip) * flip_gap <= due) {
      const uint64_t draw = rng.Next();
      const std::string& name = switches[draw % switches.size()];
      // Three in four flips restate "off", so windows often debounce to the
      // configuration already committed and the drain is elided.
      const int64_t value = ((draw >> 32) & 3) == 0 ? 1 : 0;
      Span span("storm_submit");
      rep->Check(scheduler.Submit(name, value, static_cast<double>(next_flip) * flip_gap),
                 "submit flip");
      submit_s += span.Stop();
      ++next_flip;
    }
    {
      Span span("storm_poll");
      rep->Check(scheduler.Poll(now), "poll scheduler");
      poll_s += span.Stop();
    }
    now = std::max(now, scheduler.busy_until());
    const double start = std::max(due, now);
    const uint64_t tenant = rng.NextBelow(8);
    const uint64_t payload = rng.Next();
    const uint64_t ticks = server.vm().core(0).ticks;
    Result<uint64_t> served = [&] {
      GuestRun run("call", {&server.vm()}, rep);
      return server.Call(mv::kServerHandler, {tenant, payload}, 10'000'000);
    }();
    if (!rep->Check(served, "serve request")) {
      ++dropped;
      continue;
    }
    now = start + mv::TicksToCycles(server.vm().core(0).ticks - ticks);
    latency.push_back(now - due);
    wait.push_back(start - due);
  }
  {
    Span span("storm_flush");
    rep->Check(scheduler.Flush(now), "flush scheduler");
    poll_s += span.Stop();
  }
  rep->Check(scheduler.idle(), "scheduler drained");

  // Core 1 runs its batch to completion: a torn request would fault or hang.
  const mv::VmExit exit = [&] {
    GuestRun run("drain_batch", {&server.vm()}, rep);
    return server.vm().Run(1, 10'000 * (kBatchRequests + 1) + 100'000);
  }();
  rep->Check(exit.kind == mv::VmExit::Kind::kHalt, "core-1 batch ran to completion");
  Result<int64_t> served_after = server.ReadGlobal(mv::kServerServedCounter);
  if (rep->Check(served_after, "read served")) {
    const uint64_t completed = latency.size() + kBatchRequests;
    rep->Check(static_cast<uint64_t>(*served_after - *served_before) == completed,
               "served counter equals requests completed (0 torn)");
  }
  rep->Check(dropped == 0, "0 dropped requests");

  rep->Count("request_cycles_p50", Percentile(latency, 0.50));
  rep->Count("request_cycles_p99", Percentile(latency, 0.99));
  rep->Count("requests", static_cast<double>(latency.size()));
  rep->Count("guest.request_wait_cycles_p99", Percentile(wait, 0.99));
  rep->AddHost("storm.submit_s", submit_s);
  rep->AddHost("storm.poll_s", poll_s);
  const mv::StormStats& stats = scheduler.stats();
  rep->Count("storm.flips_submitted", static_cast<double>(stats.flips_submitted));
  rep->Count("storm.flips_coalesced", static_cast<double>(stats.flips_coalesced));
  rep->Count("storm.flips_elided_null", static_cast<double>(stats.flips_elided_null));
  rep->Count("storm.plans_committed", static_cast<double>(stats.plans_committed));
  rep->Count("storm.backpressure_waits", static_cast<double>(stats.backpressure_waits));
  rep->Count("storm.max_queue_depth", static_cast<double>(stats.max_queue_depth));
  rep->Count("storm.batch_p99_cycles", stats.BatchP99Cycles());
  rep->Count("storm.busy_cycles", stats.busy_cycles);
  AddVmCounters(server.vm(), rep);
  AddVmCounters(twin.vm(), rep);
}

}  // namespace pb
