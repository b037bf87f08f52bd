// Copyright 2026 The Tyche Reproduction Authors.
// Capability-graph export: the artifact the paper's judiciary branch would
// attest. Walks the engine's lineage tree and emits a snapshot -- every
// node with its owner, resource, state, and per-resource reference count
// (distinct domains with active access), every parent->child edge -- as
// GraphViz DOT or JSON. A verifier diffing two snapshots sees exactly which
// sharing relationships appeared, moved, or were revoked.

#ifndef SRC_CAPABILITY_GRAPH_EXPORT_H_
#define SRC_CAPABILITY_GRAPH_EXPORT_H_

#include <string>

#include "src/capability/engine.h"

namespace tyche {

struct GraphExportOptions {
  // Include revoked / donated lineage nodes (history), not just live access.
  bool include_inactive = true;
};

// Escapes a string for use inside a double-quoted DOT label: backslashes,
// quotes, and newlines. DOT treats `\n`/`\l`/`\r` in labels as line breaks,
// so raw content must not inject them.
std::string EscapeGraphLabel(const std::string& text);

// GraphViz DOT. Active nodes are solid, donated nodes dashed, revoked nodes
// greyed out; edge direction is parent -> child (the delegation direction).
std::string ExportCapabilityGraphDot(const CapabilityEngine& engine,
                                     const GraphExportOptions& options = {});

// JSON object {"nodes":[...],"edges":[...]} with the same information plus
// machine-readable ranges and refcounts.
std::string ExportCapabilityGraphJson(const CapabilityEngine& engine,
                                      const GraphExportOptions& options = {});

}  // namespace tyche

#endif  // SRC_CAPABILITY_GRAPH_EXPORT_H_
