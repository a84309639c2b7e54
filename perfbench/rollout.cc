// Phase "rollout": a Fleet (1 MiB VMs, two cores each, shared plan cache,
// durable journals) serving a seeded tenant stream runs repeated forward and
// back CommitCoordinator rollouts (canary plus waves). Closed loop: each
// rollout starts after the previous one returns. A ChaosSchedule seeded from
// the workload seed kills instances at journal boundaries, some mid-record,
// and the coordinator recovers them through Fleet::RestartInstance. After
// each rollout the benchmark also kills one instance itself in the middle of
// a flip and restarts it.
//
// References: two programs built from the fleet's source and committed to
// the old and the new configuration give the fingerprint and text checksum
// of each side. After every rollout and restart, every instance must match
// the side it should be on (fully-old or fully-new), and the fleet must have
// dropped and torn no request.
#include "perfbench/bench.h"
#include "src/core/journal.h"
#include "src/fleet/chaos.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/fleet.h"
#include "src/livepatch/livepatch.h"
#include "src/support/faultpoint.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace pb {
namespace {

const mv::Fleet::Assignment kSides[2] = {{{"fast_path", 0}, {"log_level", 0}},
                                         {{"fast_path", 1}, {"log_level", 1}}};

constexpr double kCanaryPct = 12.5;
constexpr int kWaves = 4;

struct SideProof {
  uint64_t fingerprint = 0;
  uint64_t checksum = 0;
};

std::vector<mv::Vm*> FleetVms(mv::Fleet& fleet) {
  std::vector<mv::Vm*> vms;
  for (int i = 0; i < fleet.size(); ++i) {
    vms.push_back(&fleet.program(i).vm());
  }
  return vms;
}

bool ProveSides(mv::Fleet& fleet, const std::vector<int>& side, const SideProof proofs[2],
                Rep* rep) {
  bool ok = true;
  for (int i = 0; i < fleet.size(); ++i) {
    Result<uint64_t> fingerprint = fleet.ConfigFingerprint(i);
    const SideProof& want = proofs[side[static_cast<size_t>(i)]];
    ok &= rep->Check(fingerprint.ok() && *fingerprint == want.fingerprint &&
                         fleet.TextChecksum(i) == want.checksum,
                     mv::StrFormat("instance %d fully-%s", i,
                                   side[static_cast<size_t>(i)] == 0 ? "old" : "new"));
  }
  return ok;
}

}  // namespace

void RunRollout(const Context& ctx, Scale scale, Rep* rep) {
  const bool full = scale == Scale::kFull;
  const int instances = full ? 64 : 8;
  const int rollouts = full ? 6 : 8;
  const int deaths_per_wave = full ? 2 : 1;
  std::vector<int> everyone(static_cast<size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    everyone[static_cast<size_t>(i)] = i;
  }

  mv::FleetOptions options;
  options.instances = instances;
  options.cores_per_instance = 2;
  options.vm_memory = 1ull << 20;
  options.stream_seed = ctx.seed ^ 0xf1ee7ull;
  const std::vector<mv::ProgramSource> sources = {
      {"fleet_kernel", mv::FleetRequestKernelSource()}};

  Result<std::unique_ptr<mv::Fleet>> built = [&] {
    Span span("fleet_build");
    Result<std::unique_ptr<mv::Fleet>> fleet = mv::Fleet::Build(sources, options);
    rep->setup_s += span.Stop();
    rep->Check(fleet.status(), "build fleet");
    return fleet;
  }();
  if (!built.ok()) {
    return;
  }
  mv::Fleet& fleet = **built;

  // The side references, built like one instance and committed to each side.
  Recipe recipe{"fleet", sources, options.build};
  recipe.options.vm_cores = options.cores_per_instance;
  recipe.options.vm_memory = options.vm_memory;
  recipe.options.attach.plan_cache = false;
  SideProof proofs[2];
  for (int s = 0; s < 2; ++s) {
    Result<std::unique_ptr<Program>> reference = TimedBuild(recipe, rep);
    if (!reference.ok()) {
      return;
    }
    const double t0 = NowSeconds();
    for (const auto& [name, value] : kSides[s]) {
      if (!rep->Check((*reference)->WriteGlobal(name, value, 4), "write reference switch")) {
        return;
      }
    }
    if (!ReferenceCommit(**reference, rep).ok()) {
      return;
    }
    Result<uint64_t> fingerprint = (*reference)->runtime().ConfigFingerprintNow();
    if (!rep->Check(fingerprint, "reference fingerprint")) {
      return;
    }
    proofs[s] = {*fingerprint, (*reference)->runtime().TextChecksum()};
    rep->setup_s += NowSeconds() - t0;
  }
  std::vector<int> side(static_cast<size_t>(instances), 0);
  if (!ProveSides(fleet, side, proofs, rep)) {
    return;
  }

  mv::Rng rng(ctx.seed ^ 0x0110u);
  std::vector<double> flip_cycles;
  double serve_s = 0;
  for (int k = 0; k < rollouts; ++k) {
    const int target = (k + 1) % 2;
    const mv::HealthSummary before = fleet.metrics().Fleet();
    {
      const double t0 = NowSeconds();
      GuestRun run("fleet_serve", FleetVms(fleet), rep);
      rep->Check(fleet.Serve(fleet.GenerateRequests(static_cast<uint64_t>(4 * instances)),
                             mv::kFleetHandler),
                 "fleet serve");
      serve_s += NowSeconds() - t0;
    }

    // Chaos: a fixed number of deaths per wave, at seeded instances, each at
    // a journal boundary the schedule's seed picks, half of them torn. The
    // number is fixed so that the work a rollout does is the same for every
    // seed.
    mv::ChaosSchedule chaos(ctx.seed * 31 + static_cast<uint64_t>(k), /*crash_pct=*/0,
                            /*degrade_pct=*/0);
    const std::vector<std::vector<int>> waves =
        mv::CommitCoordinator::PartitionWaves(everyone, kCanaryPct, kWaves);
    for (size_t w = 0; w < waves.size(); ++w) {
      std::vector<int> members = waves[w];
      const int wave = static_cast<int>(w);
      for (int d = 0; d < deaths_per_wave && !members.empty(); ++d) {
        const size_t pick = rng.NextBelow(members.size());
        chaos.Script(wave, members[pick], /*attempt=*/1,
                     rng.NextBelow(2) == 0 ? mv::ChaosEventKind::kCrash
                                           : mv::ChaosEventKind::kCrashTorn);
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      // In the last wave one more instance lands its flip but loses its
      // health report, then dies on the retry: recovery must redo the sealed
      // flip and land fully-new.
      if (w + 1 == waves.size() && !members.empty()) {
        const int instance = members[rng.NextBelow(members.size())];
        chaos.Script(wave, instance, /*attempt=*/1, mv::ChaosEventKind::kDropHealth);
        chaos.Script(wave, instance, /*attempt=*/2, mv::ChaosEventKind::kCrash);
      }
    }
    mv::RolloutPolicy policy;
    policy.canary_pct = kCanaryPct;
    policy.waves = kWaves;
    policy.max_rollbacks = 0;
    policy.observe_requests = 96;
    policy.inflight_requests = 32;
    policy.quarantine_after = 3;
    policy.chaos = &chaos;
    mv::CommitCoordinator coordinator(&fleet, policy);
    Result<mv::RolloutReport> report = [&] {
      Span span("rollout");
      Result<mv::RolloutReport> result =
          coordinator.Rollout(kSides[target], mv::kFleetHandler, mv::kFleetLoadFn);
      rep->Sample("rollout_ms", span.Stop() * 1e3);
      return result;
    }();
    if (!rep->Check(report, "rollout")) {
      return;
    }
    rep->Check(report->advanced_to_full, "rollout advanced to the whole fleet");
    rep->Check(report->identity_mismatches == 0, "coordinator identity proofs");
    const mv::HealthSummary after = fleet.metrics().Fleet();
    rep->Check(after.totals.dropped_requests == before.totals.dropped_requests,
               "0 dropped requests");
    rep->Check(after.totals.torn_requests == before.totals.torn_requests, "0 torn requests");
    flip_cycles.push_back(report->fleet_flip_cycles);
    rep->Count("fleet.crash_recoveries", static_cast<double>(report->crash_recoveries));
    rep->Count("fleet.commit_timeouts", static_cast<double>(report->commit_timeouts));
    rep->Count("fleet.quarantined", static_cast<double>(report->quarantined_instances));
    rep->Count("fleet.reverts", report->reverted ? 1 : 0);
    for (const mv::RolloutEvent& event : coordinator.log().events()) {
      if (event.kind == mv::RolloutEvent::Kind::kRecovery) {
        const bool old_side = event.detail.find("fully-old") != std::string::npos;
        rep->Count(old_side ? "journal.recoveries_old" : "journal.recoveries_new", 1);
      }
    }
    std::vector<bool> quarantined(static_cast<size_t>(instances), false);
    for (int i : report->quarantined) {
      quarantined[static_cast<size_t>(i)] = true;
    }
    for (int i = 0; i < instances; ++i) {
      if (!quarantined[static_cast<size_t>(i)] && !report->reverted) {
        side[static_cast<size_t>(i)] = target;
      }
    }
    if (!ProveSides(fleet, side, proofs, rep)) {
      return;
    }

    // One more death: a flip on a seeded instance dies at its first or
    // second journal append (the switch-set intent or the transaction
    // begin), so recovery must land fully-old.
    const int victim = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(instances)));
    const bool torn = rng.NextBelow(2) == 1;
    Status died = Status::Ok();
    {
      mv::ScopedFault crash(torn ? mv::FaultSite::kCrashTorn : mv::FaultSite::kCrash,
                            rng.NextBelow(2));
      const int flipped = 1 - side[static_cast<size_t>(victim)];
      died = fleet.WriteSwitch(victim, "log_level", kSides[flipped][1].second);
      if (died.ok()) {
        mv::LiveCommitOptions live;
        live.protocol = mv::CommitProtocol::kWaitFree;
        live.txn.wal = fleet.journal(victim);
        died = mv::multiverse_commit_live(&fleet.program(victim).vm(), &fleet.runtime(victim),
                                          live)
                   .status();
      }
    }
    if (!rep->Check(mv::IsSimulatedCrash(died), "injected crash killed the instance")) {
      return;
    }
    Result<mv::RecoveryOutcome> recovered = [&] {
      Span span("fleet_restart");
      Result<mv::RecoveryOutcome> outcome = fleet.RestartInstance(victim);
      rep->Sample("fleet.restart_ms", span.Stop() * 1e3);
      return outcome;
    }();
    if (!rep->Check(recovered, "restart instance")) {
      return;
    }
    rep->Count("fleet.crash_recoveries", 1);
    rep->Count("journal.recoveries_old", 1);
    if (!ProveSides(fleet, side, proofs, rep)) {
      return;
    }
  }
  rep->Count("rollout_cycles", Median(flip_cycles));
  rep->AddHost("fleet.serve_s", serve_s);
  double records = 0;
  for (int i = 0; i < instances; ++i) {
    records += static_cast<double>(fleet.journal(i)->record_count());
    AddVmCounters(fleet.program(i).vm(), rep);
  }
  rep->Count("journal.records", records);
}

}  // namespace pb
