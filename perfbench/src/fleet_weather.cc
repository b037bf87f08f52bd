// Copyright 2026 The Tyche Reproduction Authors.
// fleet_weather: the verifier's real mix plus bad weather. A 3-node VT-x
// fleet hosts 64 sealed services per node (192, more than the front end's
// default 128-entry cache). One verifier with front-end defaults makes
// Zipf(1.1) Verify() calls; every 8th round is a burst of 8 through
// Submit + DrainQueue (the batched path); at a seeded cadence a new verifier
// arrives (ForgetSessions + ForgetVerifiedMonitors), forcing full two-tier
// chain walks; of the other rounds, 1 in 16 is a host write: the OS of a
// live node shares a page into an unsealed tenant domain and revokes it
// through Dispatch (the host keeps working beside the verifier). Node 0
// crashes once, at round kCrashRound, and the front end's own breaker ->
// failover ladder must recover it.
//
// The traced run probes the replica of node 0 every kProbeEveryRounds
// rounds, outside the measured time: its capability view and refcount
// queries, and a kAttestDomain of one of its services through Dispatch,
// the report checked by VerifySerializedReport. It also builds a twin fleet
// that replays the same seeded rounds up to the crash, untimed, and then
// times the failover ladder's steps itself: MonitorNode::Recover, then
// MigrateDomain per service.

#include <memory>

#include "perfbench/src/workloads.h"
#include "src/fleet/frontend.h"
#include "src/fleet/zipf.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/migration.h"
#include "src/support/prng.h"
#include "src/tyche/loader.h"
#include "src/tyche/verifier.h"

namespace perfbench {
namespace {

using tyche::ApiOp;
using tyche::ApiRegs;
using tyche::ApiResult;
using tyche::CapId;
using tyche::kPageSize;

constexpr uint32_t kNodes = 3;
constexpr uint32_t kServicesPerNode = 64;
constexpr uint32_t kBurst = 8;
// Rounds over which the simulated statistics are taken; the crash sits
// inside them so the failover is part of every run's deterministic window.
// The crash lands a third of the way through them.
constexpr uint64_t kDetRounds = 240000;
constexpr uint64_t kCrashRound = kDetRounds / 3;
// A new verifier arrives every kArrivalEvery +- kArrivalJitter rounds. The
// repository holds no trace of verifier arrivals, so this cadence is chosen,
// not derived; fleet.full_chain_ratio reports the share of cold chain walks
// it yields.
constexpr uint64_t kArrivalEvery = 256;
constexpr uint64_t kArrivalJitter = 64;
// One round in kHostWriteEvery (outside bursts) is a host write: the share of
// writes attest_scale's stream has, so the two workloads mix reads and
// writes alike.
constexpr uint64_t kHostWriteEvery = 16;
constexpr uint64_t kProbeEveryRounds = 512;
// About 0.6 s of rounds: every CPU move refills the private caches from the
// shared L3, so moving more often slows the run and ties it to the load of
// the host's other tenants.
constexpr uint64_t kRotateEveryRounds = 16384;
// The tenant page each node's OS shares out, well above the service windows.
constexpr uint64_t kTenantPageOffset = 8ull << 20;

tyche::FleetOptions MakeFleetOptions() {
  tyche::FleetOptions options;
  options.num_nodes = kNodes;
  options.services_per_node = kServicesPerNode;
  return options;
}

// The node OS's view for its own Dispatch writes: an unsealed tenant domain
// and the OS capability over the page it shares. Re-resolved through the
// capability queries when a recovery replaced the node's monitor.
struct NodeOs {
  tyche::Monitor* monitor = nullptr;
  CapId tenant = 0;
  CapId page_cap = 0;
  uint64_t page = 0;
};

bool ResolveNodeOs(tyche::MonitorNode* node, NodeOs* os, Report* report) {
  tyche::Monitor* monitor = node->monitor();
  os->page = monitor->monitor_range().end() + kTenantPageOffset;
  if (os->monitor == nullptr) {
    const auto tenant = monitor->CreateDomain(0, "tenant");
    if (!tenant.ok()) {
      report->Check(false, "tenant create failed: " + tenant.status().ToString());
      return false;
    }
    os->tenant = tenant->handle;
  } else {
    // After a recovery the replayed engine holds the same handle capability.
    const auto handle = monitor->engine().Get(os->tenant);
    if (!handle.ok() || !(*handle)->active()) {
      report->Check(false, "tenant handle lost across recovery");
      return false;
    }
  }
  const auto page_cap = tyche::FindMemoryCap(*monitor, node->os_domain(), {os->page, kPageSize});
  if (!page_cap.ok()) {
    report->Check(false, "no OS capability over the tenant page");
    return false;
  }
  os->page_cap = *page_cap;
  os->monitor = monitor;
  return true;
}

struct FleetWorld {
  std::unique_ptr<tyche::Fleet> fleet;
  std::unique_ptr<tyche::VerificationFrontEnd> frontend;
  std::vector<tyche::Digest> golden;  // pinned at install, never re-read
  std::vector<NodeOs> os;
};

std::unique_ptr<FleetWorld> BuildWorld(Report* report) {
  auto world = std::make_unique<FleetWorld>();
  world->fleet = tyche::Fleet::Create(MakeFleetOptions());
  if (world->fleet == nullptr) {
    report->Check(false, "fleet boot failed");
    return nullptr;
  }
  world->frontend = std::make_unique<tyche::VerificationFrontEnd>(world->fleet.get());
  for (uint32_t s = 0; s < world->fleet->num_services(); ++s) {
    world->golden.push_back(world->fleet->service(s).measurement);
  }
  world->os.resize(kNodes);
  for (uint32_t n = 0; n < kNodes; ++n) {
    if (!ResolveNodeOs(world->fleet->node(n), &world->os[n], report)) {
      return nullptr;
    }
  }
  return world;
}

// Counters of every monitor instance that served in the window: a recovery
// replaces node 0's monitor, so the pre-crash instance is banked at the
// crash and the recovered one counted from zero backend work.
struct FleetCounters {
  HwCounters banked;
  PhaseTotals banked_phases;
  std::vector<HwCounters> start;
  std::vector<tyche::Monitor*> monitors;

  void Start(tyche::Fleet& fleet) {
    for (uint32_t n = 0; n < kNodes; ++n) {
      monitors.push_back(fleet.node(n)->monitor());
      start.push_back(HwCounters::Of(*fleet.node(n)->monitor()));
    }
  }
  // Banks node n's monitor before the benchmark crashes it.
  void Bank(uint32_t n) {
    banked += HwCounters::Of(*monitors[n]) - start[n];
    banked_phases.Add(monitors[n]->profiler());
    start[n] = HwCounters::Of(*monitors[n]);
  }
  // Picks up a monitor a recovery installed on node n's machine. Its
  // backend starts from zero; the machine's cycle account and (when the
  // recovered journal resumes the crashed chain) the journal continue.
  void Adopt(uint32_t n, tyche::Monitor* monitor, bool trace) {
    monitors[n] = monitor;
    const HwCounters now = HwCounters::Of(*monitor);
    HwCounters& base = start[n];
    base.pages_mapped = base.pages_protected = base.pmp_recompiles = 0;
    base.tlb_shootdowns = base.core_binds = base.fast_binds = 0;
    if (now.journal_records < base.journal_records) {
      base.journal_records = 0;
    }
    monitor->profiler().set_enabled(trace);
  }
  HwCounters Total() const {
    HwCounters total = banked;
    for (uint32_t n = 0; n < kNodes; ++n) {
      total += HwCounters::Of(*monitors[n]) - start[n];
    }
    return total;
  }
};

// One verifier's closed loop over a fleet. Round() runs one seeded round and
// records what it measured; the same class drives the twin fleet up to the
// crash so the twin reaches the same state untimed.
class Weather {
 public:
  Weather(std::unique_ptr<FleetWorld> world, uint64_t seed, bool trace, Report* report)
      : world_(std::move(world)),
        fleet_(*world_->fleet),
        frontend_(*world_->frontend),
        prng_(seed),
        zipf_(fleet_.num_services(), 1.1),
        ops_(trace, report),
        trace_(trace),
        report_(report) {
    for (uint32_t n = 0; n < kNodes; ++n) {
      fleet_.node(n)->monitor()->profiler().set_enabled(trace);
    }
    counters_.Start(fleet_);
  }

  void Round(uint64_t round);
  // Capability-query and attestation probes on the replica, which ends up
  // holding the failed-over services (traced run only, outside the
  // measured time).
  void Probe(uint64_t round);
  // Banks the deterministic-window statistics.
  void CloseDeterministicWindow();
  void FinalChecks();
  void Fill(double setup_s, double seconds);

  tyche::Fleet& fleet() { return fleet_; }
  SpanLog& spans() { return ops_.spans; }
  std::unique_ptr<FleetWorld> TakeWorld() { return std::move(world_); }

 private:
  struct Marks {
    uint64_t retries = 0;
    uint64_t hedged_wins = 0;
    uint64_t batch_verifies = 0;
    uint64_t batch_quotes = 0;
  };
  struct Mix {
    uint64_t verifies = 0;
    uint64_t cache = 0;
    uint64_t resumed = 0;
    uint64_t full_chain = 0;
  };

  Marks CurrentMarks() const {
    return Marks{frontend_.retries(), frontend_.hedged_wins(), frontend_.batch_verifies(),
                 frontend_.batch_quotes()};
  }
  // Times one call into the front end and returns its host duration.
  template <typename Call>
  uint64_t Timed(const char* name, uint64_t round, Call&& call);
  void CheckVerdict(uint32_t service, const tyche::Result<tyche::VerifyVerdict>& verdict,
                    uint64_t host_ns);
  void Burst(uint64_t round);
  void HostWrite(uint64_t round);

  std::unique_ptr<FleetWorld> world_;
  tyche::Fleet& fleet_;
  tyche::VerificationFrontEnd& frontend_;
  tyche::Prng prng_;
  tyche::ZipfPicker zipf_;
  OpRecorder ops_;
  bool trace_;
  Report* report_;
  FleetCounters counters_;
  uint64_t nonce_ = 1;
  uint64_t probe_nonce_ = 0;
  uint64_t next_arrival_ = kArrivalEvery;
  bool in_det_ = true;

  Samples cache_us_;
  Samples resumed_us_;
  Samples full_chain_us_;
  Samples det_verify_sim_us_;
  Mix mix_;
  double failover_s_ = 0.0;
  const Marks start_marks_ = CurrentMarks();
  // Deterministic-window snapshot.
  Marks det_marks_;
  Mix det_mix_;
  HwCounters det_counters_;
  uint64_t det_ops_ = 0;
  double det_rss_mb_ = 0.0;
};

template <typename Call>
uint64_t Weather::Timed(const char* name, uint64_t round, Call&& call) {
  const uint64_t failovers = frontend_.failovers_triggered();
  const uint64_t ns = ops_.Time(name, false, round, 0, call);
  if (frontend_.failovers_triggered() != failovers) {
    failover_s_ += static_cast<double>(ns) / 1e9;
  }
  tyche::Monitor* current = fleet_.node(0)->monitor();
  if (current != counters_.monitors[0]) {
    counters_.Adopt(0, current, trace_);
  }
  return ns;
}

void Weather::CheckVerdict(uint32_t service,
                           const tyche::Result<tyche::VerifyVerdict>& verdict,
                           uint64_t host_ns) {
  ++mix_.verifies;
  if (!verdict.ok()) {
    ops_.Fail("verify of service " + std::to_string(service) +
              " failed: " + verdict.status().ToString());
    return;
  }
  report_->Check(verdict->measurement == world_->golden[service],
                 "verdict measurement differs from the pinned golden measurement");
  const double us = NsToUs(host_ns);
  if (in_det_) {
    det_verify_sim_us_.Add(static_cast<double>(verdict->latency_ns) / 1e3);
  }
  if (verdict->from_cache) {
    ++mix_.cache;
    cache_us_.Add(us);
  } else if (verdict->resumed) {
    ++mix_.resumed;
    resumed_us_.Add(us);
  } else {
    ++mix_.full_chain;
    full_chain_us_.Add(us);
  }
}

void Weather::Burst(uint64_t round) {
  for (uint32_t i = 0; i < kBurst; ++i) {
    const uint32_t service = zipf_.Pick(prng_);
    const tyche::VerifyRequest request{service, nonce_++, 0, 0};
    tyche::Result<tyche::VerificationFrontEnd::AdmissionOutcome> admitted =
        tyche::Error(tyche::ErrorCode::kInternal, "not submitted");
    const uint64_t ns =
        Timed("fleet.submit", round, [&] { admitted = frontend_.Submit(request); });
    if (!admitted.ok()) {
      ops_.Fail("submit refused: " + admitted.status().ToString());
    } else if (admitted->verdict.has_value()) {
      CheckVerdict(service, *admitted->verdict, ns);
    }
  }
  std::vector<tyche::VerificationFrontEnd::QueuedResult> drained;
  const uint64_t ns = Timed("fleet.drain", round, [&] { drained = frontend_.DrainQueue(); });
  for (const auto& item : drained) {
    CheckVerdict(item.request.service, item.result, ns);
  }
}

void Weather::HostWrite(uint64_t round) {
  uint32_t n = static_cast<uint32_t>(prng_.Below(kNodes));
  if (fleet_.node(n)->crashed()) {
    n = fleet_.replica_of(n);
  }
  NodeOs& os = world_->os[n];
  if (os.monitor != fleet_.node(n)->monitor() &&
      !ResolveNodeOs(fleet_.node(n), &os, report_)) {
    return;
  }
  ApiRegs share;
  share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
  share.arg0 = os.page_cap;
  share.arg1 = os.tenant;
  share.arg2 = os.page;
  share.arg3 = kPageSize;
  share.arg4 = tyche::Perms::kRW;
  share.arg5 = static_cast<uint64_t>(tyche::CapRights::kShare) << 8;
  const ApiResult shared =
      ops_.Dispatch(os.monitor, 0, share, "monitor.share", true, round, 0, "node OS write");
  ApiRegs revoke;
  revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);
  revoke.arg0 = shared.ret0;
  ops_.Dispatch(os.monitor, 0, revoke, "monitor.revoke", true, round, 0, "node OS write");
}

void Weather::Round(uint64_t round) {
  in_det_ = round < kDetRounds;
  if (round == kCrashRound) {
    counters_.Bank(0);
    fleet_.node(0)->Crash();
  }
  if (round == next_arrival_) {
    frontend_.ForgetSessions();
    frontend_.ForgetVerifiedMonitors();
    next_arrival_ += kArrivalEvery - kArrivalJitter + prng_.Below(2 * kArrivalJitter + 1);
  }
  if (round % kBurst == kBurst - 1) {
    Burst(round);
  } else if (prng_.Below(kHostWriteEvery) == 0) {
    // The host keeps working: a node OS shares a page into its tenant and
    // revokes it.
    HostWrite(round);
  } else {
    const uint32_t service = zipf_.Pick(prng_);
    const tyche::VerifyRequest request{service, nonce_++, 0, 0};
    tyche::Result<tyche::VerifyVerdict> verdict =
        tyche::Error(tyche::ErrorCode::kInternal, "not verified");
    const uint64_t ns = Timed("fleet.verify", round, [&] { verdict = frontend_.Verify(request); });
    CheckVerdict(service, verdict, ns);
  }
}

void Weather::CloseDeterministicWindow() {
  det_counters_ = counters_.Total();
  det_marks_ = CurrentMarks();
  det_mix_ = mix_;
  det_ops_ = ops_.ops;
  det_rss_mb_ = PeakRssMb();
}

void Weather::Probe(uint64_t round) {
  const uint32_t replica_id = fleet_.replica_of(0);
  tyche::MonitorNode& node = *fleet_.node(replica_id);
  tyche::Monitor& replica = *node.monitor();
  uint64_t start = NowNs();
  const auto view = replica.MemoryView();
  ops_.spans.Record("capability.memory_view", round, 0, start, NowNs());
  const auto caps = replica.engine().DomainCaps(fleet_.service(kServicesPerNode).domain);
  start = NowNs();
  const uint32_t refs = caps.empty() ? 0 : replica.engine().MemoryRefCount(caps[0]->range);
  ops_.spans.Record("capability.refcount", round, 0, start, NowNs());
  report_->Check(!view.empty() && refs >= 1, "replica capability view is wrong");

  // One of the replica's own services attested by its OS through Dispatch,
  // the report written to the page above the tenant page and checked like
  // attest_scale's: signature, nonce and pinned measurement.
  const uint32_t service = kServicesPerNode * replica_id +
                           static_cast<uint32_t>(round / kProbeEveryRounds % kServicesPerNode);
  const tyche::ServiceRecord& record = fleet_.service(service);
  const auto handle =
      tyche::FindUnitCap(replica, node.os_domain(), tyche::ResourceKind::kDomain, record.domain);
  if (!handle.ok() || record.node != replica_id) {
    report_->Check(false, "no OS handle on replica service " + std::to_string(service));
    return;
  }
  const uint64_t buffer = world_->os[replica_id].page + kPageSize;
  const uint64_t nonce = ++probe_nonce_;
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kAttestDomain);
  regs.arg0 = *handle;
  regs.arg1 = nonce;
  regs.arg2 = buffer;
  regs.arg3 = kPageSize;
  start = NowNs();
  const ApiResult result = tyche::Dispatch(&replica, 0, regs);
  ops_.spans.Record("monitor.attest", round, 0, start, NowNs());
  std::vector<uint8_t> wire(result.error == 0 ? result.ret0 : 0);
  const bool read = result.error == 0 && replica.machine()->memory().Read(buffer, wire).ok();
  start = NowNs();
  const auto verified = tyche::VerifySerializedReport(wire, replica.public_key(), nonce,
                                                      &world_->golden[service]);
  ops_.spans.Record("tyche.report_verify", round, 0, start, NowNs());
  report_->Check(read && verified.ok() && verified->domain == record.domain,
                 "replica report for service " + std::to_string(service) + " did not verify");
}

void Weather::FinalChecks() {
  report_->Check(frontend_.failovers_triggered() == 1,
                 "the crash did not trigger exactly one failover");
  for (uint32_t n = 0; n < kNodes; ++n) {
    CheckMonitorAtEnd(*fleet_.node(n)->monitor(), "node " + std::to_string(n), report_);
  }
}

void Weather::Fill(double setup_s, double seconds) {
  Report& report = *report_;
  ReportEndToEnd(ops_, setup_s, static_cast<double>(ops_.ops) / seconds, det_rss_mb_,
                 det_counters_, det_ops_, &report);
  report.notes["verify_samples"] = static_cast<double>(mix_.verifies);
  report.notes["det_verify_samples"] = static_cast<double>(det_verify_sim_us_.size());
  report.notes["failover_s"] = failover_s_;
  if (!trace_) {
    return;
  }
  ReportHwPerOp(det_counters_, det_ops_, &report);
  PhaseTotals phases = counters_.banked_phases;
  for (uint32_t n = 0; n < kNodes; ++n) {
    phases.Add(fleet_.node(n)->monitor()->profiler());
  }
  ReportPhaseShares(phases, &report);
  ReportSpanMedians(ops_.spans, &report);
  const double verifies =
      det_mix_.verifies == 0 ? 1.0 : static_cast<double>(det_mix_.verifies);
  auto per_verify = [&](uint64_t count) { return static_cast<double>(count) / verifies; };
  report.layer["fleet.cache_hit_ratio"] = {per_verify(det_mix_.cache), "ratio"};
  report.layer["fleet.resumed_ratio"] = {per_verify(det_mix_.resumed), "ratio"};
  report.layer["fleet.full_chain_ratio"] = {per_verify(det_mix_.full_chain), "ratio"};
  report.layer["fleet.cache_us"] = {cache_us_.Percentile(50), "us"};
  report.layer["fleet.resumed_us"] = {resumed_us_.Percentile(50), "us"};
  report.layer["fleet.full_chain_us"] = {full_chain_us_.Percentile(50), "us"};
  report.layer["fleet.retries_per_verify"] = {
      per_verify(det_marks_.retries - start_marks_.retries), "count"};
  report.layer["fleet.hedged_wins"] = {
      static_cast<double>(det_marks_.hedged_wins - start_marks_.hedged_wins), "count"};
  const uint64_t batches = det_marks_.batch_verifies - start_marks_.batch_verifies;
  report.layer["fleet.batch_quotes_per_batch"] = {
      batches == 0 ? 0.0
                   : static_cast<double>(det_marks_.batch_quotes - start_marks_.batch_quotes) /
                         static_cast<double>(batches),
      "count"};
  report.layer["fleet.failover_s"] = {failover_s_, "s"};
  report.layer["fleet.verify_sim_p50_us"] = {det_verify_sim_us_.Percentile(50), "sim_us"};
  report.layer["fleet.verify_sim_p99_us"] = {det_verify_sim_us_.Percentile(99), "sim_us"};
}

// Times the failover ladder's steps on a twin fleet that replayed the same
// seeded rounds up to the crash: MonitorNode::Recover, then MigrateDomain of
// every service homed on the crashed node.
void TimeLadderOnTwin(const Options& options, Report* report, SpanLog* spans) {
  Report twin_report;
  std::unique_ptr<FleetWorld> built = BuildWorld(&twin_report);
  if (built == nullptr) {
    report->Check(false, "twin fleet boot failed");
    return;
  }
  Weather twin(std::move(built), options.seed, false, &twin_report);
  for (uint64_t round = 0; round < kCrashRound; ++round) {
    twin.Round(round);
  }
  report->Check(twin_report.correct, "twin fleet run failed a check");
  tyche::Fleet& fleet = twin.fleet();
  tyche::MonitorNode* down = fleet.node(0);
  tyche::MonitorNode* replica = fleet.node(fleet.replica_of(0));
  down->Crash();
  down->BeginRecovery();
  uint64_t start = NowNs();
  const tyche::Status recovered = down->Recover();
  spans->Record("fleet.twin.recover", 0, 0, start, NowNs());
  report->layer["fleet.recover_ms"] = {static_cast<double>(NowNs() - start) / 1e6, "ms"};
  report->Check(recovered.ok(), "twin recovery failed: " + recovered.ToString());
  double first = 0.0;
  double last = 0.0;
  for (uint32_t s = 0; s < fleet.num_services() && recovered.ok(); ++s) {
    if (fleet.service(s).node != 0) {
      continue;
    }
    tyche::LossyChannel wire;
    start = NowNs();
    const auto migrated = tyche::MigrateDomain(down->monitor(), replica->monitor(),
                                               fleet.service(s).domain, &wire,
                                               down->monitor()->public_key());
    const uint64_t end = NowNs();
    spans->Record("fleet.twin.migrate", s, 0, start, end);
    report->Check(migrated.ok(), "twin migration failed: " + migrated.status().ToString());
    const double ms = static_cast<double>(end - start) / 1e6;
    first = first == 0.0 ? ms : first;
    last = ms;
  }
  report->layer["fleet.migrate_ms_first"] = {first, "ms"};
  report->layer["fleet.migrate_ms_last"] = {last, "ms"};
}

}  // namespace

Report RunFleetWeather(const Options& options) {
  Report report;
  std::unique_ptr<FleetWorld> built;
  const double setup_s = MedianSetupSeconds(options.setup_repeats, [&] {
    built.reset();
    built = BuildWorld(&report);
  });
  if (built == nullptr) {
    return report;
  }
  Weather weather(std::move(built), options.seed, options.trace, &report);
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  uint64_t measured_ns = 0;
  uint64_t round = 0;
  CpuRotation cpus;
  while (measured_ns < budget_ns || round < kDetRounds) {
    if (round % kRotateEveryRounds == 0) {
      cpus.Next();
    }
    const uint64_t start = NowNs();
    weather.Round(round);
    measured_ns += NowNs() - start;
    ++round;
    if (round == kDetRounds) {
      weather.CloseDeterministicWindow();
    }
    if (options.trace && round % kProbeEveryRounds == 0) {
      weather.Probe(round);
    }
  }
  weather.FinalChecks();
  weather.Fill(setup_s, static_cast<double>(measured_ns) / 1e9);
  if (options.trace) {
    // The twin is built after the measured fleet is gone, so the two never
    // hold memory at once.
    weather.TakeWorld().reset();
    TimeLadderOnTwin(options, &report, &weather.spans());
    report.spans = std::move(weather.spans());
  }
  return report;
}

}  // namespace perfbench
