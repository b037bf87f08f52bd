// Copyright 2026 The Tyche Reproduction Authors.
// The attestation fleet substrate (DESIGN.md §12): N independently booted
// monitors ("nodes"), each hosting sealed service domains, reachable only
// through lossy request/response channels. Every node boots the SAME
// measured demo image, so all monitors derive the same attestation key —
// the key continuity that lets a domain fail over to a replica (PR 8
// migration) without breaking the quote a customer pinned before the crash.
//
// Failure model per node:
//   Crash()          the node stops serving entirely; in-flight and future
//                    requests see only silence (timeouts). The journal is
//                    durable and survives.
//   BeginRecovery()  the node answers every request with a typed, retryable
//                    kUnavailable while its state is being rebuilt.
//   Recover()        PR 4 MeasuredRecovery from the surviving journal
//                    (genesis replay, no snapshot), then the serving epoch
//                    bumps — invalidating every cached measurement verified
//                    against the pre-crash instance.
//
// Fleet::FailoverNode composes the full ladder: recover the crashed
// monitor from its journal, drain its service domains to the replica via
// the PR 8 migration protocol over a lossy channel, repoint the routing
// table, and leave a journal pair that splices (VerifyJournalSplice).

#ifndef SRC_FLEET_NODE_H_
#define SRC_FLEET_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/monitor/boot.h"
#include "src/monitor/monitor.h"
#include "src/tyche/channel.h"

namespace tyche {

// Simulated wall clock for deadlines, timeouts, and backoff. The fleet is a
// deterministic synchronous simulation: time only moves when a component
// advances it, so every fault schedule replays exactly from its seed.
struct SimClock {
  uint64_t now_ns = 0;
  void Advance(uint64_t ns) { now_ns += ns; }
};

// Wire protocol between the front end and a node, framed over LossyChannel.
// One frame = one message; drops/dups/reorders are the transport's business
// and the front end's retry problem.
//
// kResume (DESIGN.md §13) skips the full chain walk: a verifier that has
// already completed one two-tier verification presents an epoch-bound MAC
// token derived from the DH shared secret between its key and the monitor's
// attestation key. The node validates the token statelessly (it can derive
// the same secret from `client_pub`) and answers with the domain's current
// measurement plus a MAC over (node, epoch, domain, nonce, measurement)
// under the same secret — fresh, bound to this request, and unforgeable
// without the shared secret. An epoch bump invalidates every outstanding
// token the same instant it kills the measurement cache.
enum class FleetRequestKind : uint8_t { kIdentity = 0, kAttest = 1, kResume = 2 };

struct FleetRequest {
  uint64_t request_id = 0;
  FleetRequestKind kind = FleetRequestKind::kAttest;
  uint32_t domain = 0;   // kAttest / kResume
  uint64_t nonce = 0;
  uint64_t client_pub = 0;  // kResume: the verifier's DH public key
  Digest token;             // kResume: FleetSessionToken under the shared secret
};

struct FleetResponse {
  uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kOk;
  // Serialized MonitorIdentity or DomainAttestation when code == kOk.
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeFleetRequest(const FleetRequest& request);
bool DecodeFleetRequest(std::span<const uint8_t> bytes, FleetRequest* out);
std::vector<uint8_t> EncodeFleetResponse(const FleetResponse& response);
bool DecodeFleetResponse(std::span<const uint8_t> bytes, FleetResponse* out);

// Session-resumption MACs (DESIGN.md §13). Both sides derive `secret` via
// DhSharedSecret, so both can compute — and neither can forge to a third
// party — the epoch-bound token and the per-response ack.
Digest FleetSessionToken(const Digest& secret, uint32_t node, uint64_t epoch);
Digest FleetSessionAck(const Digest& secret, uint32_t node, uint64_t epoch,
                       uint32_t domain, uint64_t nonce, const Digest& measurement);

// A resume response's payload: the domain's measurement followed by the ack
// MAC, 64 bytes total.
inline constexpr size_t kResumePayloadSize = 64;

class MonitorNode {
 public:
  // Boots a fresh machine + monitor from the demo images. Null on failure.
  // `expected_services` sizes the monitor's metadata reservation: the 4 MiB
  // default holds a couple hundred domains, dense nodes (thousands of
  // services) need proportionally more metadata frames.
  static std::unique_ptr<MonitorNode> Boot(uint32_t id, IsaArch arch,
                                           uint32_t expected_services = 0);

  // Creates, measures, and seals a service domain over `pages` exclusively
  // granted pages at `window_base` (fleet-wide unique so the domain can
  // migrate to any replica without a range collision). Returns the golden
  // measurement a customer would pin.
  struct ServicePlacement {
    DomainId domain = kInvalidDomain;
    Digest measurement;
    AddrRange window;
  };
  Result<ServicePlacement> InstallService(const std::string& name,
                                          uint64_t window_base, uint32_t pages);

  // Serves every pending request on the request channel. Crossing this is
  // also where the fleet.node_crash fault site lives: an injected hit
  // crashes the node mid-pump.
  void Pump();

  void Crash() { crashed_ = true; }
  bool crashed() const { return crashed_; }
  void BeginRecovery() { recovering_ = true; }
  bool recovering() const { return recovering_; }

  // PR 4 measured recovery from the surviving journal; bumps the epoch.
  Status Recover();

  uint32_t id() const { return id_; }
  uint64_t epoch() const { return epoch_; }
  Monitor* monitor() { return monitor_.get(); }
  Machine* machine() { return machine_.get(); }
  DomainId os_domain() const { return os_domain_; }
  const Digest& golden_firmware() const { return golden_firmware_; }
  const Digest& golden_monitor() const { return golden_monitor_; }
  // PCR1-equivalent prefix for cache keys.
  uint64_t pcr_prefix() const { return DigestPrefix64(golden_monitor_); }

  LossyChannel* requests() { return &requests_; }
  LossyChannel* responses() { return &responses_; }
  uint64_t served() const { return served_; }

 private:
  MonitorNode() = default;

  void HandleRequest(std::span<const uint8_t> frame);
  void Respond(uint64_t request_id, ErrorCode code, std::vector<uint8_t> payload);

  uint32_t id_ = 0;
  uint64_t epoch_ = 0;
  bool crashed_ = false;
  bool recovering_ = false;
  uint64_t served_ = 0;
  std::vector<uint8_t> firmware_image_;
  std::vector<uint8_t> monitor_image_;
  Digest golden_firmware_;
  Digest golden_monitor_;
  DomainId os_domain_ = kInvalidDomain;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Monitor> monitor_;
  LossyChannel requests_;   // front end -> node
  LossyChannel responses_;  // node -> front end

  // Resume fast path: the DH session secret and the epoch-bound token are
  // deterministic per (client_pub, epoch), so the node memoizes the last
  // few derivations instead of re-running the key exchange on every kResume.
  // Purely a cache — a miss (new client, post-recovery epoch bump) re-derives
  // and validates exactly as before.
  struct ResumeSecret {
    bool valid = false;  // an empty slot must never match a crafted request
    uint64_t client_pub = 0;
    uint64_t epoch = 0;
    Digest secret;
    Digest expected_token;
  };
  static constexpr size_t kResumeSecretSlots = 8;
  ResumeSecret resume_secrets_[kResumeSecretSlots];
};

struct FleetOptions {
  uint32_t num_nodes = 3;
  IsaArch arch = IsaArch::kX86_64;
  uint32_t services_per_node = 2;
  uint32_t pages_per_service = 2;
  // Spacing between service windows (fleet-wide unique bases). 0 = auto:
  // the roomy legacy 2 MiB stride when every window fits in node memory,
  // otherwise windows pack tightly so thousands of services per node fit
  // inside the 64 MiB simulated machines.
  uint64_t window_stride = 0;
};

// Routing-table entry: where a service currently lives and what its
// verified identity must be. `node`/`domain` change on failover; the
// golden `measurement` NEVER does — that is attestation continuity.
struct ServiceRecord {
  uint32_t service = 0;
  uint32_t node = 0;
  DomainId domain = kInvalidDomain;
  Digest measurement;
  std::string name;
  uint64_t failovers = 0;
};

class Fleet {
 public:
  static std::unique_ptr<Fleet> Create(const FleetOptions& options);

  size_t num_nodes() const { return nodes_.size(); }
  MonitorNode* node(size_t i) { return nodes_[i].get(); }
  size_t num_services() const { return services_.size(); }
  const ServiceRecord& service(uint32_t id) const { return services_[id]; }
  uint32_t replica_of(uint32_t node_id) const {
    return static_cast<uint32_t>((node_id + 1) % nodes_.size());
  }

  SimClock& clock() { return clock_; }
  // One serving round for every live node.
  void PumpAll();

  // The failover ladder for a down node: measured recovery from the
  // surviving journal (epoch bump), then every service homed there drains
  // to the replica via PR 8 migration over a lossy channel, and the routing
  // table repoints. kUnavailable if the replica is down too.
  Status FailoverNode(uint32_t node_id);

  uint64_t failovers() const { return failovers_; }
  uint64_t migrations() const { return migrations_; }

 private:
  Fleet() = default;

  SimClock clock_;
  std::vector<std::unique_ptr<MonitorNode>> nodes_;
  std::vector<ServiceRecord> services_;
  uint64_t failovers_ = 0;
  uint64_t migrations_ = 0;
};

}  // namespace tyche

#endif  // SRC_FLEET_NODE_H_
