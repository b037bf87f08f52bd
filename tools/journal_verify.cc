// Copyright 2026 The Tyche Reproduction Authors.
// Offline audit-journal verifier.
//
// With no arguments: self-test mode. Boots a simulated deployment, runs a
// sharing / revocation workload, exports the journal, verifies it (chain,
// checkpoint signatures, shadow replay against the graph snapshot), and then
// demonstrates tamper detection by flipping one byte and refuses an empty
// snapshot file as unbound. A splice leg migrates
// a domain between two monitors, verifies the journal pair, and checks that
// a flipped byte and a destination journal that does not replay are both
// refused.
//
// With arguments:
//   `journal_verify [--snapshot snap.bin] <journal.bin> <monitor_pubkey_y> [graph.json]`
// verifies a journal captured from a live run against the monitor's public
// key (the decimal y coordinate printed by the examples) and, optionally, a
// graph_export JSON snapshot file. Both forms make the same call
// (RemoteVerifier::VerifyJournal): without `--snapshot` the journal replays
// from genesis; with it, the snapshot's digest must be bound into a signed
// checkpoint and the journal suffix replays on top of its engine image —
// the only way to fully verify a journal compacted with TruncateBefore().
// An empty snapshot file binds no checkpoint and is refused as unbound.
//
//   `journal_verify --splice <source.bin> <dest.bin> <source_pubkey_y> <dest_pubkey_y>`
// verifies the two journals of a live migration as one spliced custody
// chain: each journal verified and replayed on its own, then every
// kMigrateIn adoption paired with exactly one matching kMigrateOut handoff
// (payload digest and chain-link binding), with the source required to
// purge the domain afterwards.
//
// Exit codes:
//   0  verified
//   1  verification failed (unclassified)
//   2  usage / IO error
//   3  hash chain broken (record tamper, drop, reorder, missing anchor)
//   4  a checkpoint signature is invalid (or snapshot not bound to one)
//   5  replay divergence (journal and claimed state disagree)
//
// `--json` switches the verdict to a single machine-readable JSON object on
// stdout (chain length, checkpoint count, exit-code reason), for CI jobs
// that archive verification results as artifacts. Exit codes are unchanged.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/capability/graph_export.h"
#include "src/monitor/attestation.h"
#include "src/monitor/audit.h"
#include "src/monitor/boot.h"
#include "src/monitor/dispatch.h"
#include "src/monitor/migration.h"
#include "src/os/testbed.h"
#include "src/tyche/loader.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kJournalChainBroken:
      return 3;
    case ErrorCode::kJournalSignatureInvalid:
      return 4;
    case ErrorCode::kJournalReplayDivergence:
      return 5;
    default:
      return 1;
  }
}

const char* ReasonFor(int exit_code) {
  switch (exit_code) {
    case 0:
      return "ok";
    case 2:
      return "io_error";
    case 3:
      return "chain_broken";
    case 4:
      return "signature_invalid";
    case 5:
      return "replay_divergence";
    default:
      return "verification_failed";
  }
}

// Splice mode: two journals, two keys — verifies and replays each journal,
// then the migration handoffs between them (VerifyJournalSplice,
// src/tyche/verifier).
int VerifySplice(const char* source_path, const char* dest_path, const char* source_key_str,
                 const char* dest_key_str, bool json);

// The machine-readable verdict, one JSON object on stdout. `error` is a
// human-oriented status string (already free of quotes-sensitive content:
// Status::ToString emits code names and plain messages).
void PrintJsonVerdict(int exit_code, size_t records, size_t checkpoints,
                      bool snapshot_anchored, bool graph_replay,
                      const std::string& error) {
  std::string escaped;
  for (const char c : error) {
    if (c == '"' || c == '\\') {
      escaped += '\\';
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      escaped += ' ';
      continue;
    }
    escaped += c;
  }
  std::printf(
      "{\"verified\":%s,\"exit_code\":%d,\"reason\":\"%s\",\"records\":%zu,"
      "\"checkpoints\":%zu,\"snapshot_anchored\":%s,\"graph_replay\":%s,"
      "\"error\":\"%s\"}\n",
      exit_code == 0 ? "true" : "false", exit_code, ReasonFor(exit_code), records,
      checkpoints, snapshot_anchored ? "true" : "false",
      graph_replay ? "true" : "false", escaped.c_str());
}

bool ReadFile(const char* path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return true;
}

// The verdict of the default and --snapshot modes. The verifier reads an
// empty snapshot as "no snapshot", so an empty --snapshot file is refused
// here: no signed checkpoint can bind it. As for any snapshot, a journal
// that does not parse or whose chain fails reports that first.
Status VerifyWithSnapshotFile(std::span<const uint8_t> journal, const SchnorrPublicKey& key,
                              const std::string* expected_graph_json,
                              const std::vector<uint8_t>* snapshot) {
  if (snapshot == nullptr) {
    return RemoteVerifier::VerifyJournal(journal, key, expected_graph_json);
  }
  if (snapshot->empty()) {
    const Status chain = RemoteVerifier::VerifyJournal(journal, key, nullptr);
    if (!chain.ok() && chain.code() != ErrorCode::kJournalReplayDivergence) {
      return chain;
    }
    return Error(ErrorCode::kJournalSignatureInvalid,
                 "snapshot digest is not bound to any signed checkpoint");
  }
  return RemoteVerifier::VerifyJournal(journal, key, expected_graph_json, *snapshot);
}

int VerifyFile(const char* journal_path, const char* pubkey_str, const char* graph_path,
               const char* snapshot_path, bool json) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(journal_path, &bytes)) {
    std::fprintf(stderr, "cannot open %s\n", journal_path);
    if (json) {
      PrintJsonVerdict(2, 0, 0, snapshot_path != nullptr, graph_path != nullptr,
                       std::string("cannot open ") + journal_path);
    }
    return 2;
  }

  SchnorrPublicKey key;
  key.y = std::strtoull(pubkey_str, nullptr, 0);

  std::string graph;
  const std::string* expected = nullptr;
  if (graph_path != nullptr) {
    std::ifstream graph_in(graph_path, std::ios::binary);
    if (!graph_in) {
      std::fprintf(stderr, "cannot open %s\n", graph_path);
      return 2;
    }
    std::ostringstream buffer;
    buffer << graph_in.rdbuf();
    graph = buffer.str();
    expected = &graph;
  }

  std::vector<uint8_t> snapshot;
  if (snapshot_path != nullptr && !ReadFile(snapshot_path, &snapshot)) {
    std::fprintf(stderr, "cannot open %s\n", snapshot_path);
    return 2;
  }
  const Status status =
      VerifyWithSnapshotFile(bytes, key, expected, snapshot_path ? &snapshot : nullptr);
  // Deserialize for the verdict's chain-length numbers; on failure the
  // journal may still parse (tamper detection happens at verify, not parse).
  size_t records = 0;
  size_t checkpoints = 0;
  if (const auto parsed = Journal::Deserialize(bytes); parsed.ok()) {
    records = parsed->records.size();
    checkpoints = parsed->checkpoints.size();
  }
  const int exit_code = status.ok() ? 0 : ExitCodeFor(status);
  if (json) {
    PrintJsonVerdict(exit_code, records, checkpoints, snapshot_path != nullptr,
                     expected != nullptr, status.ok() ? "" : status.ToString());
    return exit_code;
  }
  if (!status.ok()) {
    std::printf("FAIL: %s\n", status.ToString().c_str());
    return exit_code;
  }
  std::printf("OK: %zu records, %zu checkpoints verified%s%s\n", records, checkpoints,
              snapshot_path ? ", snapshot-anchored" : "",
              expected ? ", graph replay matches" : "");
  return 0;
}

int VerifySplice(const char* source_path, const char* dest_path, const char* source_key_str,
                 const char* dest_key_str, bool json) {
  std::vector<uint8_t> source_bytes;
  std::vector<uint8_t> dest_bytes;
  for (const auto& [path, out] :
       {std::pair{source_path, &source_bytes}, std::pair{dest_path, &dest_bytes}}) {
    if (!ReadFile(path, out)) {
      std::fprintf(stderr, "cannot open %s\n", path);
      if (json) {
        PrintJsonVerdict(2, 0, 0, false, false, std::string("cannot open ") + path);
      }
      return 2;
    }
  }
  SchnorrPublicKey source_key;
  source_key.y = std::strtoull(source_key_str, nullptr, 0);
  SchnorrPublicKey dest_key;
  dest_key.y = std::strtoull(dest_key_str, nullptr, 0);

  const Status status =
      VerifyJournalSplice(source_bytes, dest_bytes, source_key, dest_key);
  size_t records = 0;
  size_t checkpoints = 0;
  for (const std::vector<uint8_t>* bytes : {&source_bytes, &dest_bytes}) {
    if (const auto parsed = Journal::Deserialize(*bytes); parsed.ok()) {
      records += parsed->records.size();
      checkpoints += parsed->checkpoints.size();
    }
  }
  const int exit_code = status.ok() ? 0 : ExitCodeFor(status);
  if (json) {
    PrintJsonVerdict(exit_code, records, checkpoints, false, false,
                     status.ok() ? "" : status.ToString());
    return exit_code;
  }
  if (!status.ok()) {
    std::printf("FAIL: %s\n", status.ToString().c_str());
    return exit_code;
  }
  std::printf("OK: journals splice into one history (%zu records, %zu checkpoints)\n",
              records, checkpoints);
  return 0;
}

// `records`/`checkpoints` report the chain the self-test exported, so the
// --json verdict carries real numbers.
int SelfTest(size_t* records, size_t* checkpoints) {
  std::printf("journal_verify self-test: boot, workload, export, verify, tamper\n");
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", testbed.status().ToString().c_str());
    return 2;
  }
  Monitor& monitor = testbed->monitor();

  // Workload: create two enclave-ish domains, share memory both ways via the
  // dispatch ABI (so every record carries a span), then revoke -> cascade.
  auto call = [&](ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                  uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5};
    return Dispatch(&monitor, /*core=*/0, regs);
  };

  const ApiResult created_a = call(ApiOp::kCreateDomain);
  const ApiResult created_b = call(ApiOp::kCreateDomain);
  if (created_a.error != 0 || created_b.error != 0) {
    std::fprintf(stderr, "create_domain failed\n");
    return 2;
  }
  const CapId handle_a = created_a.ret1;
  const CapId handle_b = created_b.ret1;

  const uint64_t scratch = testbed->Scratch(0);
  const auto mem_cap = testbed->OsMemCap(AddrRange{scratch, 64 * kPageSize});
  if (!mem_cap.ok()) {
    std::fprintf(stderr, "no OS memory capability found\n");
    return 2;
  }
  const CapId os_mem = *mem_cap;

  const uint64_t rights_policy =
      (static_cast<uint64_t>(CapRights::kAll) << 8) | RevocationPolicy::kZeroMemory;
  const ApiResult shared = call(ApiOp::kShareMemory, os_mem, handle_a, scratch,
                                8 * kPageSize, Perms::kRW, rights_policy);
  if (shared.error != 0) {
    std::fprintf(stderr, "share_memory failed (err=%llu)\n",
                 static_cast<unsigned long long>(shared.error));
    return 2;
  }
  // Share the same range onward to B as well, then revoke the root share:
  // the cascade deactivates both children under one span.
  const ApiResult shared_b = call(ApiOp::kShareMemory, os_mem, handle_b,
                                  scratch, 4 * kPageSize, Perms::kRW, rights_policy);
  if (shared_b.error != 0) {
    std::fprintf(stderr, "second share failed\n");
    return 2;
  }
  const ApiResult revoked = call(ApiOp::kRevoke, shared.ret0);
  if (revoked.error != 0) {
    std::fprintf(stderr, "revoke failed\n");
    return 2;
  }

  const std::string graph_json = ExportCapabilityGraphJson(monitor.engine());
  std::vector<uint8_t> wire = monitor.ExportJournal();
  *records = monitor.audit().journal().size();
  *checkpoints = monitor.audit().journal().checkpoint_count();
  std::printf("exported %zu bytes (%zu records, %zu checkpoints)\n", wire.size(),
              *records, *checkpoints);

  Status verdict = RemoteVerifier::VerifyJournal(wire, monitor.public_key(), &graph_json);
  if (!verdict.ok()) {
    std::printf("FAIL: pristine journal rejected: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("pristine journal verifies and replays to the graph snapshot\n");

  // Tamper: flip one byte in the middle of the record region.
  std::vector<uint8_t> tampered = wire;
  tampered[tampered.size() / 2] ^= 0x01;
  verdict = RemoteVerifier::VerifyJournal(tampered, monitor.public_key(), nullptr);
  if (verdict.ok()) {
    std::printf("FAIL: tampered journal accepted\n");
    return 1;
  }
  std::printf("single-bit tamper detected: %s\n", verdict.ToString().c_str());

  // An empty --snapshot file is refused as unbound, not read as "no snapshot".
  const std::vector<uint8_t> empty_snapshot;
  verdict = VerifyWithSnapshotFile(wire, monitor.public_key(), &graph_json, &empty_snapshot);
  if (ExitCodeFor(verdict) != 4) {
    std::printf("FAIL: empty snapshot file not refused as %s: %s\n", ReasonFor(4),
                verdict.ToString().c_str());
    return 1;
  }
  std::printf("empty snapshot file refused: %s\n", verdict.ToString().c_str());

  // Splice leg: two measured-boot monitors, one migrated domain, and the
  // offline custody-chain verdict — plus a tampered-handoff rejection.
  std::printf("splice self-test: boot two monitors, migrate, splice-verify, tamper\n");
  MachineConfig config;
  Machine source_machine(config);
  Machine dest_machine(config);
  const std::vector<uint8_t> firmware = DemoFirmwareImage();
  const std::vector<uint8_t> monitor_image = DemoMonitorImage();
  BootParams params;
  params.firmware_image = firmware;
  params.monitor_image = monitor_image;
  auto source_boot = MeasuredBoot(&source_machine, params);
  auto dest_boot = MeasuredBoot(&dest_machine, params);
  if (!source_boot.ok() || !dest_boot.ok()) {
    std::fprintf(stderr, "two-monitor boot failed\n");
    return 2;
  }
  Monitor& source = *source_boot->monitor;
  Monitor& dest = *dest_boot->monitor;
  const auto svc = source.CreateDomain(0, "svc");
  if (!svc.ok()) {
    std::fprintf(stderr, "create_domain failed on the source\n");
    return 2;
  }
  const AddrRange window{source.monitor_range().end() + (1ull << 20), 2 * kPageSize};
  const auto window_cap = FindMemoryCap(source, source_boot->initial_domain, window);
  if (!window_cap.ok() ||
      !source
           .GrantMemory(0, *window_cap, svc->handle, window, Perms(Perms::kRWX),
                        CapRights(CapRights::kAll),
                        RevocationPolicy(RevocationPolicy::kZeroMemory))
           .ok() ||
      !source.SetEntryPoint(0, svc->handle, window.base).ok() ||
      !source.ExtendMeasurement(0, svc->handle, window).ok() ||
      !source.Seal(0, svc->handle).ok()) {
    std::fprintf(stderr, "victim setup failed on the source\n");
    return 2;
  }
  ReliableTransport transport;
  const auto migrated =
      MigrateDomain(&source, &dest, svc->domain, &transport, source.public_key());
  if (!migrated.ok()) {
    std::printf("FAIL: migration failed: %s\n", migrated.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t> src_wire = source.ExportJournal();
  const std::vector<uint8_t> dst_wire = dest.ExportJournal();
  verdict = VerifyJournalSplice(src_wire, dst_wire, source.public_key(),
                                dest.public_key());
  if (!verdict.ok()) {
    std::printf("FAIL: clean splice rejected: %s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("spliced custody chain verifies (migrated domain %llu)\n",
              static_cast<unsigned long long>(migrated->dest_domain));
  std::vector<uint8_t> forged = dst_wire;
  forged[forged.size() / 2] ^= 0x01;
  verdict = VerifyJournalSplice(src_wire, forged, source.public_key(),
                                dest.public_key());
  if (verdict.ok()) {
    std::printf("FAIL: tampered destination journal spliced cleanly\n");
    return 1;
  }
  std::printf("tampered handoff detected: %s\n", verdict.ToString().c_str());

  // A destination journal whose chain verifies but which does not replay:
  // bump the remainder count of the adoption grant, re-link the chain from
  // there, and let the destination sign the new head on export.
  std::vector<JournalRecord> dest_records = dest.audit().journal().Records();
  size_t adoption = dest_records.size();
  for (size_t i = 0; i < dest_records.size(); ++i) {
    if (dest_records[i].event == static_cast<uint8_t>(JournalEvent::kGrantMemory)) {
      adoption = i;
    }
  }
  if (adoption == dest_records.size()) {
    std::printf("FAIL: destination journal carries no adoption grant\n");
    return 1;
  }
  ++dest_records[adoption].aux;
  for (size_t i = adoption; i < dest_records.size(); ++i) {
    dest_records[i].link =
        ChainLink(i == 0 ? JournalGenesis() : dest_records[i - 1].link, dest_records[i]);
  }
  dest.audit().journal().Restore(dest_records, {});
  verdict = VerifyJournalSplice(src_wire, dest.ExportJournal(), source.public_key(),
                                dest.public_key());
  if (ExitCodeFor(verdict) != 5) {
    std::printf("FAIL: non-replaying destination journal not refused as %s: %s\n",
                ReasonFor(5), verdict.ToString().c_str());
    return 1;
  }
  std::printf("non-replaying destination journal detected: %s\n",
              verdict.ToString().c_str());
  std::printf("self-test OK\n");
  return 0;
}

}  // namespace
}  // namespace tyche

int main(int argc, char** argv) {
  const char* snapshot_path = nullptr;
  bool json = false;
  bool splice = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--snapshot needs a file argument\n");
        return 2;
      }
      snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--splice") == 0) {
      splice = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (splice) {
    if (positional.size() != 4 || snapshot_path != nullptr) {
      std::fprintf(stderr,
                   "usage: %s [--json] --splice <source.bin> <dest.bin> "
                   "<source_pubkey_y> <dest_pubkey_y>\n",
                   argv[0]);
      return 2;
    }
    return tyche::VerifySplice(positional[0], positional[1], positional[2], positional[3],
                               json);
  }
  if (positional.empty()) {
    // Self-test mode; with --json the final verdict line is machine-readable.
    size_t records = 0;
    size_t checkpoints = 0;
    const int exit_code = tyche::SelfTest(&records, &checkpoints);
    if (json) {
      tyche::PrintJsonVerdict(exit_code, records, checkpoints, false,
                              /*graph_replay=*/exit_code == 0,
                              exit_code == 0 ? "" : "self-test failed");
    }
    return exit_code;
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s [--json]              (self-test)\n"
                 "       %s [--json] [--snapshot snap.bin] <journal.bin> "
                 "<monitor_pubkey_y> [graph.json]\n"
                 "       %s [--json] --splice <source.bin> <dest.bin> "
                 "<source_pubkey_y> <dest_pubkey_y>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  return tyche::VerifyFile(positional[0], positional[1],
                           positional.size() == 3 ? positional[2] : nullptr, snapshot_path,
                           json);
}
