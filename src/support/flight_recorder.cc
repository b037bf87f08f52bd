// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/flight_recorder.h"

#include <sstream>

namespace tyche {

namespace {

uint64_t DedupKey(uint16_t op, uint64_t error) {
  // Non-zero even for (0, 0): key 0 marks an empty slot.
  return (static_cast<uint64_t>(op) << 48) ^ (error + 1);
}

}  // namespace

FlightRecorder::FlightRecorder(const TraceRing* ring, const MetricsRegistry* registry,
                               size_t capacity, size_t last_n)
    : ring_(ring), registry_(registry), capacity_(capacity), last_n_(last_n) {}

bool FlightRecorder::OnDispatchError(uint16_t op, uint64_t span, uint64_t error) {
  if (!enabled()) {
    return false;
  }
  const uint64_t key = DedupKey(op, error);
  std::atomic<uint64_t>& slot = seen_[key % kDedupSlots];
  if (slot.load(std::memory_order_relaxed) == key) {
    return false;  // this failure shape is already on record
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (slot.load(std::memory_order_relaxed) == key) {
    return false;
  }
  slot.store(key, std::memory_order_relaxed);
  CaptureLocked("dispatch_error", op, span, error, "");
  return true;
}

void FlightRecorder::Capture(const std::string& reason, uint16_t op, uint64_t span,
                             uint64_t error, const std::string& detail) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  CaptureLocked(reason, op, span, error, detail);
}

void FlightRecorder::CaptureLocked(const std::string& reason, uint16_t op, uint64_t span,
                                   uint64_t error, const std::string& detail) {
  FlightRecord record;
  record.id = captures_.fetch_add(1, std::memory_order_relaxed);
  record.reason = reason;
  record.op = op;
  record.span = span;
  record.error = error;
  record.detail = detail;
  if (ring_ != nullptr) {
    record.trace = ring_->Snapshot();
    if (record.trace.size() > last_n_) {
      record.trace.erase(record.trace.begin(),
                         record.trace.end() - static_cast<ptrdiff_t>(last_n_));
    }
  }
  if (registry_ != nullptr) {
    // Native series only: captures run on dispatch threads, and callback
    // metrics read state that another thread may be mutating under its own
    // lock. Striped counters and gauges are atomic, so they are always safe.
    for (const auto& [name, value] : registry_->ScalarValues(/*include_callbacks=*/false)) {
      const auto it = last_values_.find(name);
      const uint64_t previous = it == last_values_.end() ? 0 : it->second;
      if (value != previous) {
        record.metrics_delta.emplace_back(
            name, static_cast<int64_t>(value) - static_cast<int64_t>(previous));
      }
      last_values_[name] = value;
    }
  }
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  last_values_.clear();
  for (std::atomic<uint64_t>& slot : seen_) {
    slot.store(0, std::memory_order_relaxed);
  }
}

std::string FlightRecorder::DumpJson(
    const std::function<std::string(uint16_t)>& op_name) const {
  const std::vector<FlightRecord> records = Snapshot();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& record = records[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"id\":" << record.id << ",\"reason\":\"" << EscapeJsonString(record.reason)
        << "\",\"op\":\""
        << EscapeJsonString(op_name ? op_name(record.op) : std::to_string(record.op))
        << "\",\"span\":" << record.span << ",\"error\":" << record.error
        << ",\"detail\":\"" << EscapeJsonString(record.detail) << "\",\"trace\":[";
    for (size_t j = 0; j < record.trace.size(); ++j) {
      const TraceEntry& entry = record.trace[j];
      if (j > 0) {
        out << ",";
      }
      out << "{\"seq\":" << entry.seq << ",\"op\":\""
          << EscapeJsonString(op_name ? op_name(entry.op) : std::to_string(entry.op))
          << "\",\"core\":" << entry.core << ",\"domain\":" << entry.domain
          << ",\"span\":" << entry.span << ",\"error\":" << entry.error
          << ",\"duration_ns\":" << entry.duration_ns << "}";
    }
    out << "],\"metrics_delta\":{";
    for (size_t j = 0; j < record.metrics_delta.size(); ++j) {
      if (j > 0) {
        out << ",";
      }
      out << '"' << EscapeJsonString(record.metrics_delta[j].first)
          << "\":" << record.metrics_delta[j].second;
    }
    out << "}}";
  }
  out << "]";
  return out.str();
}

}  // namespace tyche
