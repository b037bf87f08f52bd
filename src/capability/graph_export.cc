// Copyright 2026 The Tyche Reproduction Authors.

#include "src/capability/graph_export.h"

#include <sstream>

#include "src/support/metrics.h"

namespace tyche {

namespace {

const char* StateName(CapState state) {
  switch (state) {
    case CapState::kActive:
      return "active";
    case CapState::kRevoked:
      return "revoked";
    case CapState::kDonated:
      return "donated";
  }
  return "?";
}

const char* OriginName(CapOrigin origin) {
  switch (origin) {
    case CapOrigin::kMint:
      return "mint";
    case CapOrigin::kShare:
      return "share";
    case CapOrigin::kGrant:
      return "grant";
    case CapOrigin::kRemainder:
      return "remainder";
    case CapOrigin::kRestore:
      return "restore";
  }
  return "?";
}

uint32_t RefCountOf(const CapabilityEngine& engine, const Capability& cap) {
  return cap.kind == ResourceKind::kMemory ? engine.MemoryRefCount(cap.range)
                                           : engine.UnitRefCount(cap.kind, cap.unit);
}

std::string ResourceLabel(const Capability& cap) {
  std::ostringstream out;
  if (cap.kind == ResourceKind::kMemory) {
    out << "[0x" << std::hex << cap.range.base << ",0x" << cap.range.end() << std::dec
        << ") " << cap.perms.ToString();
  } else {
    out << ResourceKindName(cap.kind) << " " << cap.unit;
  }
  return out.str();
}

}  // namespace

std::string EscapeGraphLabel(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";  // literal backslash-n: a DOT label line break
        break;
      case '\r':
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string ExportCapabilityGraphDot(const CapabilityEngine& engine,
                                     const GraphExportOptions& options) {
  std::ostringstream out;
  out << "digraph capabilities {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontsize=10];\n";
  engine.ForEach([&](const Capability& cap) {
    if (!options.include_inactive && !cap.active()) {
      return;
    }
    out << "  cap" << cap.id << " [label=\"cap#" << cap.id << " d" << cap.owner << "\\n"
        << EscapeGraphLabel(ResourceLabel(cap)) << "\\n" << OriginName(cap.origin)
        << " refcount=" << RefCountOf(engine, cap) << "\"";
    switch (cap.state) {
      case CapState::kActive:
        break;
      case CapState::kDonated:
        out << ", style=dashed";
        break;
      case CapState::kRevoked:
        out << ", style=filled, fillcolor=gray80, fontcolor=gray40";
        break;
    }
    out << "];\n";
  });
  engine.ForEach([&](const Capability& cap) {
    if (!options.include_inactive && !cap.active()) {
      return;
    }
    for (const CapId child : cap.children) {
      const auto child_cap = engine.Get(child);
      if (!child_cap.ok()) {
        continue;
      }
      if (!options.include_inactive && !(*child_cap)->active()) {
        continue;
      }
      out << "  cap" << cap.id << " -> cap" << child << ";\n";
    }
  });
  out << "}\n";
  return out.str();
}

std::string ExportCapabilityGraphJson(const CapabilityEngine& engine,
                                      const GraphExportOptions& options) {
  std::ostringstream out;
  out << "{\"nodes\":[";
  bool first = true;
  engine.ForEach([&](const Capability& cap) {
    if (!options.include_inactive && !cap.active()) {
      return;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"id\":" << cap.id << ",\"owner\":" << cap.owner << ",\"kind\":\""
        << ResourceKindName(cap.kind) << "\",\"state\":\"" << StateName(cap.state)
        << "\",\"origin\":\"" << OriginName(cap.origin)
        << "\",\"ref_count\":" << RefCountOf(engine, cap);
    if (cap.kind == ResourceKind::kMemory) {
      out << ",\"base\":" << cap.range.base << ",\"size\":" << cap.range.size
          << ",\"perms\":\"" << EscapeJsonString(cap.perms.ToString()) << "\"";
    } else {
      out << ",\"unit\":" << cap.unit;
    }
    out << "}";
  });
  out << "],\"edges\":[";
  first = true;
  engine.ForEach([&](const Capability& cap) {
    if (!options.include_inactive && !cap.active()) {
      return;
    }
    for (const CapId child : cap.children) {
      const auto child_cap = engine.Get(child);
      if (!child_cap.ok()) {
        continue;
      }
      if (!options.include_inactive && !(*child_cap)->active()) {
        continue;
      }
      if (!first) {
        out << ",";
      }
      first = false;
      out << "{\"parent\":" << cap.id << ",\"child\":" << child << "}";
    }
  });
  out << "]}";
  return out.str();
}

}  // namespace tyche
