// Copyright 2026 The Tyche Reproduction Authors.

#include "src/fleet/node.h"

#include <algorithm>
#include <utility>

#include "src/monitor/attestation.h"
#include "src/monitor/migration.h"
#include "src/monitor/recovery.h"
#include "src/support/align.h"
#include "src/support/faults.h"
#include "src/support/journal.h"
#include "src/support/snapshot.h"
#include "src/tyche/loader.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint32_t kRequestMagic = 0xF1E37001;
constexpr uint32_t kResponseMagic = 0xF1E37002;
// Spacing between service windows: fleet-wide unique bases so any domain
// can migrate to any replica without a range collision.
constexpr uint64_t kWindowStride = 2 * kMiB;

}  // namespace

namespace {

Digest SessionMac(const Digest& secret, std::string_view label,
                  std::span<const uint64_t> fields, const Digest* trailer) {
  SectionWriter writer;
  for (const char c : label) {
    writer.Append<uint8_t>(static_cast<uint8_t>(c));
  }
  for (const uint64_t field : fields) {
    writer.Append<uint64_t>(field);
  }
  if (trailer != nullptr) {
    writer.AppendDigest(*trailer);
  }
  const std::vector<uint8_t> message = writer.Take();
  return HmacSha256(
      std::span<const uint8_t>(secret.bytes.data(), secret.bytes.size()), message);
}

}  // namespace

Digest FleetSessionToken(const Digest& secret, uint32_t node, uint64_t epoch) {
  const uint64_t fields[] = {node, epoch};
  return SessionMac(secret, "tyche-resume-v1", fields, nullptr);
}

Digest FleetSessionAck(const Digest& secret, uint32_t node, uint64_t epoch,
                       uint32_t domain, uint64_t nonce, const Digest& measurement) {
  const uint64_t fields[] = {node, epoch, domain, nonce};
  return SessionMac(secret, "tyche-resume-ack-v1", fields, &measurement);
}

std::vector<uint8_t> EncodeFleetRequest(const FleetRequest& request) {
  SectionWriter writer;
  writer.Append<uint32_t>(kRequestMagic);
  writer.Append<uint64_t>(request.request_id);
  writer.Append<uint8_t>(static_cast<uint8_t>(request.kind));
  writer.Append<uint32_t>(request.domain);
  writer.Append<uint64_t>(request.nonce);
  writer.Append<uint64_t>(request.client_pub);
  writer.AppendDigest(request.token);
  return writer.Take();
}

bool DecodeFleetRequest(std::span<const uint8_t> bytes, FleetRequest* out) {
  SectionReader reader(bytes);
  uint32_t magic = 0;
  uint8_t kind = 0;
  if (!reader.Read(&magic) || magic != kRequestMagic ||
      !reader.Read(&out->request_id) || !reader.Read(&kind) ||
      !reader.Read(&out->domain) || !reader.Read(&out->nonce) ||
      !reader.Read(&out->client_pub) || !reader.ReadDigest(&out->token) ||
      reader.remaining() != 0 ||
      kind > static_cast<uint8_t>(FleetRequestKind::kResume)) {
    return false;
  }
  out->kind = static_cast<FleetRequestKind>(kind);
  return true;
}

std::vector<uint8_t> EncodeFleetResponse(const FleetResponse& response) {
  SectionWriter writer;
  writer.Append<uint32_t>(kResponseMagic);
  writer.Append<uint64_t>(response.request_id);
  writer.Append<uint8_t>(static_cast<uint8_t>(response.code));
  writer.AppendString(std::string(response.payload.begin(), response.payload.end()));
  return writer.Take();
}

bool DecodeFleetResponse(std::span<const uint8_t> bytes, FleetResponse* out) {
  SectionReader reader(bytes);
  uint32_t magic = 0;
  uint8_t code = 0;
  std::string payload;
  if (!reader.Read(&magic) || magic != kResponseMagic ||
      !reader.Read(&out->request_id) || !reader.Read(&code) ||
      !reader.ReadString(&payload) || reader.remaining() != 0) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  out->payload.assign(payload.begin(), payload.end());
  return true;
}

std::unique_ptr<MonitorNode> MonitorNode::Boot(uint32_t id, IsaArch arch,
                                               uint32_t expected_services) {
  auto node = std::unique_ptr<MonitorNode>(new MonitorNode());
  node->id_ = id;
  MachineConfig config;
  config.arch = arch;
  config.memory_bytes = 64ull << 20;
  config.num_cores = 4;
  node->machine_ = std::make_unique<Machine>(config);
  node->firmware_image_ = DemoFirmwareImage();
  node->monitor_image_ = DemoMonitorImage();
  BootParams params;
  params.firmware_image = node->firmware_image_;
  params.monitor_image = node->monitor_image_;
  // Domain metadata (page tables, capability records) draws from the
  // monitor's reservation at roughly five frames per domain; grow it for
  // dense nodes but never past half the machine, leaving the rest for
  // service windows.
  const uint64_t metadata_need =
      (static_cast<uint64_t>(expected_services) + 64) * 6 * kPageSize;
  if (metadata_need > params.monitor_memory_bytes) {
    params.monitor_memory_bytes =
        std::min(AlignUp(metadata_need, 1ull << 20), config.memory_bytes / 2);
  }
  auto boot = MeasuredBoot(node->machine_.get(), params);
  if (!boot.ok()) {
    return nullptr;
  }
  node->monitor_ = std::move(boot->monitor);
  node->os_domain_ = boot->initial_domain;
  node->golden_firmware_ = boot->firmware_measurement;
  node->golden_monitor_ = boot->monitor_measurement;
  return node;
}

Result<MonitorNode::ServicePlacement> MonitorNode::InstallService(
    const std::string& name, uint64_t window_base, uint32_t pages) {
  TYCHE_ASSIGN_OR_RETURN(const CreateDomainResult created,
                         monitor_->CreateDomain(0, name));
  const AddrRange window{window_base, pages * kPageSize};
  std::vector<uint8_t> content(window.size);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(0x5A ^ (i * 29) ^ (id_ * 7) ^ name.size());
  }
  TYCHE_RETURN_IF_ERROR(machine_->memory().Write(window.base, content));
  TYCHE_ASSIGN_OR_RETURN(const CapId mem_cap,
                         FindMemoryCap(*monitor_, os_domain_, window));
  const auto granted = monitor_->GrantMemory(
      0, mem_cap, created.handle, window, Perms(Perms::kRWX),
      CapRights(CapRights::kAll), RevocationPolicy(RevocationPolicy::kZeroMemory));
  if (!granted.ok()) {
    return granted.status();
  }
  TYCHE_RETURN_IF_ERROR(monitor_->SetEntryPoint(0, created.handle, window.base));
  TYCHE_RETURN_IF_ERROR(monitor_->ExtendMeasurement(0, created.handle, window));
  TYCHE_RETURN_IF_ERROR(monitor_->Seal(0, created.handle));
  TYCHE_ASSIGN_OR_RETURN(const DomainAttestation report,
                         monitor_->AttestDomain(0, created.handle, 0x601D));
  return ServicePlacement{created.domain, report.measurement, window};
}

void MonitorNode::Pump() {
  if (crashed_) {
    return;  // silence: requests rot in the queue until failover
  }
  if (FaultInjector::active() &&
      !FaultInjector::Instance().Check(faults::kFleetNodeCrash).ok()) {
    Crash();  // CONSUMED: the node dies mid-pump, clients see timeouts
    return;
  }
  while (true) {
    auto frame = requests_.Recv();
    if (!frame.ok()) {
      break;
    }
    HandleRequest(*frame);
  }
}

void MonitorNode::HandleRequest(std::span<const uint8_t> frame) {
  FleetRequest request;
  if (!DecodeFleetRequest(frame, &request)) {
    return;  // corrupt frame: indistinguishable from a drop, client retries
  }
  ++served_;
  if (recovering_) {
    // Mid-recovery: typed and retryable, never a stale answer.
    Respond(request.request_id, ErrorCode::kUnavailable, {});
    return;
  }
  std::vector<uint8_t> payload;
  if (request.kind == FleetRequestKind::kIdentity) {
    const auto identity = monitor_->Identity(request.nonce);
    if (!identity.ok()) {
      Respond(request.request_id, identity.status().code(), {});
      return;
    }
    payload = SerializeMonitorIdentity(*identity);
  } else if (request.kind == FleetRequestKind::kResume) {
    // Stateless token validation: derive the shared secret from the
    // client's public key and recompute the epoch-bound token. A stale
    // token (pre-failover epoch) is a typed precondition failure — the
    // client must fall back to the full chain walk, and the response says
    // nothing about this node's health.
    // Direct-mapped memo of the per-client key exchange: SessionSecret is a
    // modular exponentiation and the token HMAC is epoch-constant, so a warm
    // client costs a lookup instead of re-deriving both per request.
    ResumeSecret& slot =
        resume_secrets_[request.client_pub % kResumeSecretSlots];
    if (!slot.valid || slot.client_pub != request.client_pub ||
        slot.epoch != epoch_) {
      slot.valid = true;
      slot.client_pub = request.client_pub;
      slot.epoch = epoch_;
      slot.secret = monitor_->SessionSecret(SchnorrPublicKey{request.client_pub});
      slot.expected_token = FleetSessionToken(slot.secret, id_, epoch_);
    }
    const Digest& secret = slot.secret;
    if (request.token != slot.expected_token) {
      Respond(request.request_id, ErrorCode::kFailedPrecondition, {});
      return;
    }
    const auto domain = monitor_->GetDomain(request.domain);
    if (!domain.ok()) {
      Respond(request.request_id, ErrorCode::kNotFound, {});
      return;
    }
    if (!(*domain)->sealed()) {
      Respond(request.request_id, ErrorCode::kFailedPrecondition, {});
      return;
    }
    // Fast path: the sealed measurement plus a MAC binding it to (node,
    // epoch, domain, nonce) — no report serialization, no signature.
    const Digest& measurement = (*domain)->measurement;
    const Digest ack = FleetSessionAck(secret, id_, epoch_, request.domain,
                                       request.nonce, measurement);
    payload.insert(payload.end(), measurement.bytes.begin(), measurement.bytes.end());
    payload.insert(payload.end(), ack.bytes.begin(), ack.bytes.end());
  } else {
    const auto handle =
        FindUnitCap(*monitor_, os_domain_, ResourceKind::kDomain, request.domain);
    if (!handle.ok()) {
      Respond(request.request_id, ErrorCode::kNotFound, {});
      return;
    }
    const auto report = monitor_->AttestDomain(0, *handle, request.nonce);
    if (!report.ok()) {
      // e.g. kMigrating while the domain drains to a replica: typed,
      // retryable, and the retry re-routes to the new home.
      Respond(request.request_id, report.status().code(), {});
      return;
    }
    payload = SerializeAttestation(*report);
  }
  // Poisoning attempt: flip one byte of the outbound report. The defense
  // under test is downstream — the tampered bytes must fail verification at
  // the front end and never enter the measurement cache.
  if (FaultInjector::active() && !payload.empty() &&
      !FaultInjector::Instance().Check(faults::kFleetCachePoison).ok()) {
    payload[payload.size() / 2] ^= 0x01;
  }
  Respond(request.request_id, ErrorCode::kOk, std::move(payload));
}

void MonitorNode::Respond(uint64_t request_id, ErrorCode code,
                          std::vector<uint8_t> payload) {
  FleetResponse response;
  response.request_id = request_id;
  response.code = code;
  response.payload = std::move(payload);
  const Status sent = responses_.Send(EncodeFleetResponse(response));
  (void)sent;  // a lossy wire may eat the response; the client's retry owns it
}

Status MonitorNode::Recover() {
  // The journal is the durable medium: re-parse it raw (a crash left no
  // final checkpoint — Recover()'s relaxed tail rule handles that) and
  // rebuild via PR 4 measured recovery, genesis replay, no snapshot.
  const std::vector<uint8_t> wire = monitor_->audit().journal().Serialize();
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal parsed, Journal::Deserialize(wire));
  BootParams params;
  params.firmware_image = firmware_image_;
  params.monitor_image = monitor_image_;
  TYCHE_ASSIGN_OR_RETURN(BootOutcome outcome,
                         MeasuredRecovery(machine_.get(), params, {}, parsed));
  monitor_ = std::move(outcome.monitor);
  crashed_ = false;
  recovering_ = false;
  // Epoch bump: every measurement cached against the pre-crash instance is
  // now unreachable (epoch is part of the cache key) and gets purged.
  ++epoch_;
  return OkStatus();
}

std::unique_ptr<Fleet> Fleet::Create(const FleetOptions& options) {
  if (options.num_nodes == 0) {
    return nullptr;
  }
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    auto node = MonitorNode::Boot(i, options.arch, options.services_per_node);
    if (node == nullptr) {
      return nullptr;
    }
    fleet->nodes_.push_back(std::move(node));
  }
  const uint64_t window_top = fleet->nodes_[0]->monitor()->monitor_range().end();
  uint64_t stride = options.window_stride;
  if (stride == 0) {
    // Auto: the roomy legacy stride when the whole fleet's windows fit in a
    // node's 64 MiB memory; otherwise pack windows back to back so
    // thousands of services per node still get fleet-wide unique bases.
    const uint64_t total_services =
        static_cast<uint64_t>(options.num_nodes) * options.services_per_node;
    const uint64_t memory_bytes = 64ull << 20;
    stride = kWindowStride;
    if (window_top + (total_services + 1) * stride > memory_bytes) {
      stride = static_cast<uint64_t>(options.pages_per_service) * kPageSize;
    }
  }
  uint64_t window_cursor = window_top + stride;
  uint32_t service_id = 0;
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    for (uint32_t s = 0; s < options.services_per_node; ++s) {
      const std::string name = "svc-" + std::to_string(service_id);
      const auto placed = fleet->nodes_[i]->InstallService(
          name, window_cursor, options.pages_per_service);
      if (!placed.ok()) {
        return nullptr;
      }
      ServiceRecord record;
      record.service = service_id;
      record.node = i;
      record.domain = placed->domain;
      record.measurement = placed->measurement;
      record.name = name;
      fleet->services_.push_back(std::move(record));
      window_cursor += stride;
      ++service_id;
    }
  }
  return fleet;
}

void Fleet::PumpAll() {
  for (auto& node : nodes_) {
    node->Pump();
  }
}

Status Fleet::FailoverNode(uint32_t node_id) {
  if (node_id >= nodes_.size()) {
    return Error(ErrorCode::kInvalidArgument, "no such node");
  }
  MonitorNode* down = nodes_[node_id].get();
  MonitorNode* replica = nodes_[replica_of(node_id)].get();
  if (nodes_.size() < 2 || replica->crashed()) {
    return Error(ErrorCode::kUnavailable, "no live replica to fail over to");
  }
  // Ladder step 1 (PR 4): measured recovery from the surviving journal.
  // While it runs the node answers kUnavailable, not stale state.
  down->BeginRecovery();
  TYCHE_RETURN_IF_ERROR(down->Recover());
  // Ladder step 2 (PR 8): drain every service homed here to the replica.
  // The recovered monitor signs the handoff; the journals must splice.
  for (ServiceRecord& svc : services_) {
    if (svc.node != node_id) {
      continue;
    }
    LossyChannel wire;
    const auto report =
        MigrateDomain(down->monitor(), replica->monitor(), svc.domain, &wire,
                      down->monitor()->public_key());
    if (!report.ok()) {
      return report.status();
    }
    svc.node = replica->id();
    svc.domain = report->dest_domain;
    ++svc.failovers;
    ++migrations_;
  }
  ++failovers_;
  return OkStatus();
}

}  // namespace tyche
