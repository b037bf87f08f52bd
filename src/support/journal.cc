// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/journal.h"

#include <algorithm>
#include <cstring>

#include "src/support/faults.h"
#include "src/support/profiler.h"

namespace tyche {

namespace {

constexpr char kMagic[4] = {'T', 'Y', 'J', 'L'};
// v2 added a snapshot digest to every checkpoint (and to the signed
// checkpoint statement). v1 journals are rejected rather than silently
// upgraded: a v1 checkpoint signature does not cover a snapshot binding.
constexpr uint32_t kVersion = 2;

// Little-endian scalar append; the wire format and the hashed canonical
// bytes share these helpers so they cannot drift apart.
template <typename T>
void AppendValue(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_integral_v<T>);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void AppendDigest(std::vector<uint8_t>* out, const Digest& digest) {
  out->insert(out->end(), digest.bytes.begin(), digest.bytes.end());
}

// Bounds-checked cursor over the wire bytes.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_integral_v<T>);
    if (pos_ + sizeof(T) > bytes_.size()) {
      return false;
    }
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<T>(bytes_[pos_ + i]) << (8 * i));
    }
    *value = out;
    pos_ += sizeof(T);
    return true;
  }

  bool ReadDigest(Digest* digest) {
    if (pos_ + digest->bytes.size() > bytes_.size()) {
      return false;
    }
    std::memcpy(digest->bytes.data(), bytes_.data() + pos_, digest->bytes.size());
    pos_ += digest->bytes.size();
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

const char* JournalEventName(JournalEvent event) {
  switch (event) {
    case JournalEvent::kDispatch:
      return "dispatch";
    case JournalEvent::kRegisterDomain:
      return "register_domain";
    case JournalEvent::kSealDomain:
      return "seal_domain";
    case JournalEvent::kMintMemory:
      return "mint_memory";
    case JournalEvent::kMintUnit:
      return "mint_unit";
    case JournalEvent::kShareMemory:
      return "share_memory";
    case JournalEvent::kGrantMemory:
      return "grant_memory";
    case JournalEvent::kShareUnit:
      return "share_unit";
    case JournalEvent::kGrantUnit:
      return "grant_unit";
    case JournalEvent::kRevoke:
      return "revoke";
    case JournalEvent::kCascade:
      return "cascade";
    case JournalEvent::kRestore:
      return "restore";
    case JournalEvent::kPurgeDomain:
      return "purge_domain";
    case JournalEvent::kEffect:
      return "effect";
    case JournalEvent::kOpAbort:
      return "op_abort";
    case JournalEvent::kRecovery:
      return "recovery";
    case JournalEvent::kMigrateOut:
      return "migrate_out";
    case JournalEvent::kMigrateIn:
      return "migrate_in";
    case JournalEvent::kEventCount:
      break;
  }
  return "?";
}

Digest JournalGenesis() { return Sha256::Hash("tyche-journal-genesis-v1"); }

Digest JournalCheckpointDigest(uint64_t seq, const Digest& head,
                               const Digest& snapshot) {
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-journal-checkpoint-v2"));
  ctx.UpdateValue(seq);
  ctx.Update(std::span<const uint8_t>(head.bytes.data(), head.bytes.size()));
  ctx.Update(std::span<const uint8_t>(snapshot.bytes.data(), snapshot.bytes.size()));
  return ctx.Finalize();
}

std::vector<uint8_t> CanonicalRecordBytes(const JournalRecord& record) {
  std::vector<uint8_t> out;
  out.reserve(84);
  AppendValue(&out, record.seq);
  AppendValue(&out, record.tick);
  AppendValue(&out, record.span);
  AppendValue(&out, record.event);
  AppendValue(&out, record.op);
  AppendValue(&out, record.domain);
  AppendValue(&out, record.dst);
  AppendValue(&out, record.resource);
  AppendValue(&out, record.perms);
  AppendValue(&out, record.rights);
  AppendValue(&out, record.policy);
  AppendValue(&out, record.cap);
  AppendValue(&out, record.parent);
  AppendValue(&out, record.base);
  AppendValue(&out, record.size);
  AppendValue(&out, record.result);
  AppendValue(&out, record.aux);
  return out;
}

Digest ChainLink(const Digest& prev, const JournalRecord& record) {
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(prev.bytes.data(), prev.bytes.size()));
  const std::vector<uint8_t> canon = CanonicalRecordBytes(record);
  ctx.Update(std::span<const uint8_t>(canon.data(), canon.size()));
  return ctx.Finalize();
}

Journal::Journal(size_t checkpoint_interval)
    : checkpoint_interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval),
      head_(JournalGenesis()) {}

void Journal::set_tick_source(TickSource tick) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_ = std::move(tick);
}

void Journal::set_signer(Signer signer) {
  std::lock_guard<std::mutex> lock(mu_);
  signer_ = std::move(signer);
}

void Journal::set_snapshot_provider(SnapshotProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_provider_ = std::move(provider);
}

void Journal::set_checkpoint_interval(size_t interval) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_interval_ = interval == 0 ? 1 : interval;
}

uint64_t Journal::Append(JournalRecord record) {
  if (!enabled()) {
    return kNoSeq;
  }
  // Dispatch-profiler attribution: ALL journal work reached from a dispatch
  // -- the boundary record, engine-mutation records appended mid-op, and
  // any group-commit wait inside CommitPending -- lands in the kJournal
  // phase. A bare TLS load when no window is open.
  const ScopedPhase phase(DispatchPhase::kJournal);
  PendingAppend slot;
  slot.records = &record;
  slot.count = 1;
  return CommitPending(&slot);
}

uint64_t Journal::AppendGroup(std::span<JournalRecord> records) {
  if (!enabled() || records.empty()) {
    return kNoSeq;
  }
  const ScopedPhase phase(DispatchPhase::kJournal);
  PendingAppend slot;
  slot.records = records.data();
  slot.count = records.size();
  return CommitPending(&slot);
}

// Flat-combining group commit. The caller enqueues its stack-resident slot;
// whichever thread finds no combiner running takes the role and drains the
// whole queue under one mu_ acquisition, extending the chain one record at a
// time (AppendOneLocked) so the bytes are identical to sequential appends.
// Everyone else sleeps until the combiner marks their slot done. With a single
// writer the queue always holds exactly one slot and this collapses to
// lock-append-unlock.
uint64_t Journal::CommitPending(PendingAppend* own) {
  std::unique_lock<std::mutex> queue_lock(queue_mu_);
  pending_.push_back(own);
  if (combiner_active_) {
    // Already off the fast path: this thread is about to sleep, so two
    // clock reads attribute the group-commit wait exactly.
    const uint64_t blocked_at = ProfilerNowNs();
    queue_cv_.wait(queue_lock, [own] { return own->done; });
    commit_waits_.Add();
    commit_wait_ns_.Add(ProfilerNowNs() - blocked_at);
    return own->first_seq;
  }
  combiner_active_ = true;
  while (!pending_.empty()) {
    std::deque<PendingAppend*> batch;
    batch.swap(pending_);
    queue_lock.unlock();
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t batch_records = 0;
      for (PendingAppend* slot : batch) {
        slot->first_seq = base_seq_ + records_.size();
        for (size_t i = 0; i < slot->count; ++i) {
          AppendOneLocked(&slot->records[i]);
        }
        batch_records += slot->count;
      }
      ++group_stats_.batches;
      group_stats_.batched_records += batch_records;
      group_stats_.max_batch = std::max(group_stats_.max_batch, batch_records);
    }
    queue_lock.lock();
    for (PendingAppend* slot : batch) {
      slot->done = true;
    }
    queue_cv_.notify_all();
  }
  combiner_active_ = false;
  return own->first_seq;
}

void Journal::AppendOneLocked(JournalRecord* record) {
  record->seq = base_seq_ + records_.size();
  record->tick = tick_ ? tick_() : 0;
  record->link = ChainLink(head_, *record);
  head_ = record->link;
  // Silent-corruption injection for the invariant watchdog: flips a bit in
  // the live chain head the way a memory-corruption bug would, WITHOUT
  // failing the append. Not a canonical sweep site (the sweep expects sites
  // that surface typed errors); see faults::kJournalHeadTamper.
  if (FaultInjector::active()) [[unlikely]] {
    if (!FaultInjector::Instance().Check(faults::kJournalHeadTamper).ok()) {
      head_.bytes[0] ^= 0x80;
    }
  }
  if (record->event < static_cast<uint8_t>(JournalEvent::kEventCount)) {
    ++event_counts_[record->event];
  }
  records_.push_back(*record);
  if (signer_ && records_.size() % checkpoint_interval_ == 0) {
    CheckpointLocked();
  }
}

Journal::GroupCommitStats Journal::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_stats_;
}

Status Journal::VerifyTail(ChainPosition* pos) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t tail_seq = base_seq_ + records_.size();
  if (pos->next_seq < base_seq_ || pos->next_seq > tail_seq) {
    // Compaction dropped the verified prefix, or Clear()/Restore() rewound
    // the chain under the caller. Re-anchor at the live tail: continuity of
    // the skipped prefix is the offline verifier's job (it has the signed
    // anchor checkpoint; we only have a stale in-memory position).
    pos->next_seq = tail_seq;
    pos->head = head_;
    return OkStatus();
  }
  Digest running = pos->head;
  for (uint64_t seq = pos->next_seq; seq < tail_seq; ++seq) {
    const JournalRecord& record = records_[seq - base_seq_];
    if (record.seq != seq) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: watchdog found seq " + std::to_string(record.seq) +
                       " at index " + std::to_string(seq) + " (drop or reorder)");
    }
    if (ChainLink(running, record) != record.link) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: watchdog found broken link at seq " + std::to_string(seq));
    }
    running = record.link;
  }
  if (!(running == head_)) {
    return Error(ErrorCode::kJournalChainBroken,
                 "journal: watchdog found head/tail mismatch at seq " +
                     std::to_string(tail_seq));
  }
  pos->next_seq = tail_seq;
  pos->head = running;
  return OkStatus();
}

void Journal::CheckpointLocked() {
  if (!signer_ || records_.empty()) {
    return;
  }
  const uint64_t seq = base_seq_ + records_.size() - 1;
  if (!checkpoints_.empty() && checkpoints_.back().seq == seq) {
    return;  // head already covered
  }
  JournalCheckpoint checkpoint;
  checkpoint.seq = seq;
  checkpoint.head = head_;
  if (snapshot_provider_) {
    checkpoint.snapshot = snapshot_provider_(seq);
  }
  checkpoint.signature =
      signer_(JournalCheckpointDigest(seq, head_, checkpoint.snapshot));
  checkpoints_.push_back(checkpoint);
}

void Journal::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  CheckpointLocked();
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

size_t Journal::checkpoint_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_.size();
}

Digest Journal::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

uint64_t Journal::base_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_seq_;
}

uint64_t Journal::EventCount(JournalEvent event) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<size_t>(event);
  return index < event_counts_.size() ? event_counts_[index] : 0;
}

std::vector<JournalRecord> Journal::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<JournalCheckpoint> Journal::Checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

void Journal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  checkpoints_.clear();
  head_ = JournalGenesis();
  base_seq_ = 0;
  event_counts_ = {};
  group_stats_ = {};
  commit_waits_.Reset();
  commit_wait_ns_.Reset();
}

Status Journal::TruncateBefore(uint64_t checkpoint_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (checkpoint_seq < base_seq_ ||
      checkpoint_seq >= base_seq_ + records_.size()) {
    return Error(ErrorCode::kOutOfRange,
                 "journal: truncate seq " + std::to_string(checkpoint_seq) +
                     " outside held records");
  }
  const JournalCheckpoint* anchor = nullptr;
  for (const JournalCheckpoint& checkpoint : checkpoints_) {
    if (checkpoint.seq == checkpoint_seq) {
      anchor = &checkpoint;
      break;
    }
  }
  if (anchor == nullptr) {
    return Error(ErrorCode::kFailedPrecondition,
                 "journal: no checkpoint at seq " + std::to_string(checkpoint_seq));
  }
  if (anchor->snapshot.IsZero()) {
    // Without a snapshot the dropped prefix would be unrecoverable: nothing
    // could reconstruct the engine state the surviving suffix builds on.
    return Error(ErrorCode::kFailedPrecondition,
                 "journal: checkpoint at seq " + std::to_string(checkpoint_seq) +
                     " carries no snapshot");
  }
  const size_t drop = static_cast<size_t>(checkpoint_seq - base_seq_) + 1;
  records_.erase(records_.begin(), records_.begin() + drop);
  std::vector<JournalCheckpoint> kept;
  for (const JournalCheckpoint& checkpoint : checkpoints_) {
    if (checkpoint.seq >= checkpoint_seq) {
      kept.push_back(checkpoint);  // the anchor itself is kept
    }
  }
  checkpoints_ = std::move(kept);
  base_seq_ = checkpoint_seq + 1;
  // head_ is unchanged: it is the link of the newest record, which survives
  // (or equals the anchor head when everything was compacted away).
  // event_counts_ stay cumulative: they describe the full history.
  return OkStatus();
}

void Journal::Restore(const std::vector<JournalRecord>& records,
                      const std::vector<JournalCheckpoint>& checkpoints) {
  std::lock_guard<std::mutex> lock(mu_);
  records_ = records;
  checkpoints_ = checkpoints;
  event_counts_ = {};
  for (const JournalRecord& record : records_) {
    if (record.event < static_cast<uint8_t>(JournalEvent::kEventCount)) {
      ++event_counts_[record.event];
    }
  }
  if (!records_.empty()) {
    base_seq_ = records_.front().seq;
    head_ = records_.back().link;
  } else if (!checkpoints_.empty()) {
    base_seq_ = checkpoints_.back().seq + 1;
    head_ = checkpoints_.back().head;
  } else {
    base_seq_ = 0;
    head_ = JournalGenesis();
  }
}

std::vector<uint8_t> Journal::SerializeParts(
    const std::vector<JournalRecord>& records,
    const std::vector<JournalCheckpoint>& checkpoints) {
  std::vector<uint8_t> out;
  out.reserve(16 + records.size() * 116 + checkpoints.size() * 80);
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  AppendValue(&out, kVersion);
  AppendValue(&out, static_cast<uint64_t>(records.size()));
  AppendValue(&out, static_cast<uint64_t>(checkpoints.size()));
  for (const JournalRecord& record : records) {
    const std::vector<uint8_t> canon = CanonicalRecordBytes(record);
    out.insert(out.end(), canon.begin(), canon.end());
    AppendDigest(&out, record.link);
  }
  for (const JournalCheckpoint& checkpoint : checkpoints) {
    AppendValue(&out, checkpoint.seq);
    AppendDigest(&out, checkpoint.head);
    AppendDigest(&out, checkpoint.snapshot);
    AppendValue(&out, checkpoint.signature.s);
    AppendDigest(&out, checkpoint.signature.e);
  }
  return out;
}

std::vector<uint8_t> Journal::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SerializeParts(records_, checkpoints_);
}

Result<ParsedJournal> Journal::Deserialize(std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error(ErrorCode::kInvalidArgument, "journal: bad magic");
  }
  uint32_t skip_magic = 0;
  (void)reader.Read(&skip_magic);  // consumes the 4 magic bytes
  uint32_t version = 0;
  if (!reader.Read(&version) || version != kVersion) {
    return Error(ErrorCode::kInvalidArgument, "journal: unsupported version");
  }
  uint64_t record_count = 0;
  uint64_t checkpoint_count = 0;
  if (!reader.Read(&record_count) || !reader.Read(&checkpoint_count)) {
    return Error(ErrorCode::kInvalidArgument, "journal: truncated header");
  }
  // A record is at least 84 + 32 bytes on the wire; reject absurd counts
  // before allocating.
  if (record_count > bytes.size() || checkpoint_count > bytes.size()) {
    return Error(ErrorCode::kInvalidArgument, "journal: implausible counts");
  }
  ParsedJournal parsed;
  parsed.records.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    JournalRecord record;
    const bool ok = reader.Read(&record.seq) && reader.Read(&record.tick) &&
                    reader.Read(&record.span) && reader.Read(&record.event) &&
                    reader.Read(&record.op) && reader.Read(&record.domain) &&
                    reader.Read(&record.dst) && reader.Read(&record.resource) &&
                    reader.Read(&record.perms) && reader.Read(&record.rights) &&
                    reader.Read(&record.policy) && reader.Read(&record.cap) &&
                    reader.Read(&record.parent) && reader.Read(&record.base) &&
                    reader.Read(&record.size) && reader.Read(&record.result) &&
                    reader.Read(&record.aux) && reader.ReadDigest(&record.link);
    if (!ok) {
      return Error(ErrorCode::kInvalidArgument, "journal: truncated record");
    }
    parsed.records.push_back(record);
  }
  parsed.checkpoints.reserve(checkpoint_count);
  for (uint64_t i = 0; i < checkpoint_count; ++i) {
    JournalCheckpoint checkpoint;
    const bool ok = reader.Read(&checkpoint.seq) && reader.ReadDigest(&checkpoint.head) &&
                    reader.ReadDigest(&checkpoint.snapshot) &&
                    reader.Read(&checkpoint.signature.s) &&
                    reader.ReadDigest(&checkpoint.signature.e);
    if (!ok) {
      return Error(ErrorCode::kInvalidArgument, "journal: truncated checkpoint");
    }
    parsed.checkpoints.push_back(checkpoint);
  }
  if (reader.remaining() != 0) {
    return Error(ErrorCode::kInvalidArgument, "journal: trailing bytes");
  }
  return parsed;
}

Status Journal::VerifyChain(const std::vector<JournalRecord>& records,
                            const std::vector<JournalCheckpoint>& checkpoints,
                            const SchnorrPublicKey& key,
                            bool require_covered_tail) {
  Digest prev = JournalGenesis();
  uint64_t base = 0;
  size_t first_checkpoint = 0;
  if (!records.empty() && records.front().seq != 0) {
    // Compacted journal: the first surviving record must chain off a SIGNED
    // anchor checkpoint at exactly first_seq - 1. Without the signature an
    // attacker could truncate anywhere and invent a matching head.
    base = records.front().seq;
    if (checkpoints.empty() || checkpoints.front().seq != base - 1) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: truncated journal lacks an anchor checkpoint at seq " +
                       std::to_string(base - 1));
    }
    const JournalCheckpoint& anchor = checkpoints.front();
    if (!SchnorrVerify(key,
                       JournalCheckpointDigest(anchor.seq, anchor.head, anchor.snapshot),
                       anchor.signature)) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "journal: anchor checkpoint signature invalid");
    }
    prev = anchor.head;
    first_checkpoint = 1;  // the anchor has no backing record to cross-check
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    if (record.seq != base + i) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: record " + std::to_string(base + i) + " has seq " +
                       std::to_string(record.seq) + " (drop or reorder)");
    }
    if (ChainLink(prev, record) != record.link) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: hash chain broken at seq " + std::to_string(base + i));
    }
    prev = record.link;
  }
  uint64_t last_seq = 0;
  bool have_checkpoint = false;
  for (size_t c = first_checkpoint; c < checkpoints.size(); ++c) {
    const JournalCheckpoint& checkpoint = checkpoints[c];
    if ((have_checkpoint && checkpoint.seq <= last_seq) ||
        (first_checkpoint == 1 && checkpoint.seq <= base - 1)) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoints out of order");
    }
    if (checkpoint.seq < base || checkpoint.seq - base >= records.size()) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoint beyond the last record");
    }
    if (records[checkpoint.seq - base].link != checkpoint.head) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal: checkpoint head does not match the chain");
    }
    if (!SchnorrVerify(key,
                       JournalCheckpointDigest(checkpoint.seq, checkpoint.head,
                                               checkpoint.snapshot),
                       checkpoint.signature)) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "journal: checkpoint signature invalid");
    }
    last_seq = checkpoint.seq;
    have_checkpoint = true;
  }
  // Freshness / truncation: the tail must be covered by a signature, or an
  // attacker could silently drop the most recent history. Recovery relaxes
  // this (a crashed monitor cannot sign its own death).
  if (require_covered_tail && !records.empty() &&
      (!have_checkpoint || last_seq != base + records.size() - 1)) {
    return Error(ErrorCode::kJournalChainBroken,
                 "journal: tail not covered by a signed checkpoint");
  }
  return OkStatus();
}

}  // namespace tyche
