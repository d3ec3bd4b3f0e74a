// ProtocolGraph — cross-transaction dataflow over IPC entries.
//
// The taint engine (src/analysis/taint) reasons about one IPC entry at a
// time: a binder handed to entry B is retained or it is not. BinderCracker
// (Feng & Shin) showed the interesting exhaustion protocols are
// *multi-transaction*: a token, id, or binder handle minted by entry A feeds
// a later call to entry B — possibly on a different service — and only the
// combination drives the retention sink. The ProtocolGraph is the static
// half of that story: a def-use graph over IPC entries where an edge
// `A.ret → B.argK` means a value minted by A's reply can reach argument K of
// B, and that argument is retention-relevant.
//
// Edges are derived by joining two fact families:
//   * mint/consume declarations on the code-model IR
//     (`JavaMethodModel::returns` / `arg_provenance`, mirrored from the
//     service layer's MethodSpec protocol fields) — the *explicit* edges,
//     matched on (ValueKind, domain);
//   * the taint engine's per-entry summaries: any strong-binder argument of
//     an entry whose summary retention reaches the member-slot/collection
//     band (or that links to death) can retain *any* minted binder handle a
//     caller chooses to forward — the *implicit* edges that cover nested
//     binder parcels and cross-service acquire-from-A/retain-via-B chains.
//
// Index-stability contract (the PR-5 lesson): the graph stores entry
// *indices* into AnalysisReport::interfaces — never pointers into the report
// or the code model — so a graph built from a temporary report stays valid
// for the lifetime of any equal report the caller keeps.
#ifndef JGRE_ANALYSIS_PROTOCOL_PROTOCOL_GRAPH_H_
#define JGRE_ANALYSIS_PROTOCOL_PROTOCOL_GRAPH_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "model/code_model.h"

namespace jgre::analysis::protocol {

// "Entry index I mints a value of `kind` in `domain` in its reply."
struct MintFact {
  std::size_t entry = 0;  // index into AnalysisReport::interfaces
  model::ValueKind kind = model::ValueKind::kOpaque;
  std::string domain;

  bool operator==(const MintFact&) const = default;
};

// One def-use edge: producer's reply value reaches consumer's argument.
struct ProtocolEdge {
  std::size_t producer = 0;   // index into AnalysisReport::interfaces (A)
  std::size_t consumer = 0;   // index into AnalysisReport::interfaces (B)
  std::size_t arg_index = 0;  // K: which argument slot of B the value reaches
  model::ValueKind kind = model::ValueKind::kOpaque;
  std::string domain;         // the minted domain flowing along this edge
  // True when B declared the consumption (arg_provenance matched the mint);
  // false for the summary-derived binder-handle join.
  bool explicit_consume = false;
  bool cross_service = false;

  bool operator==(const ProtocolEdge&) const = default;
};

// A retention chain: e0 → e1 → … → terminal, where each hop is a graph edge
// and the terminal entry is a risky, unsifted interface (it carries a taint
// witness down to IndirectReferenceTable::Add). `entries` has depth()+1
// elements; acyclicity is per-chain: no entry and no mint domain repeats.
struct ProtocolChain {
  std::vector<std::size_t> edge_ids;  // indices into ProtocolGraph::edges()
  std::vector<std::size_t> entries;   // entry indices along the path
  bool multi_service = false;

  int depth() const { return static_cast<int>(edge_ids.size()); }
};

struct GraphStats {
  std::size_t nodes = 0;            // IPC entries considered
  std::size_t minting_entries = 0;  // entries with a minted return
  std::size_t edges = 0;
  std::size_t explicit_edges = 0;
  std::size_t cross_service_edges = 0;
  std::size_t chains = 0;
  std::size_t multi_service_chains = 0;
  // Chains dropped by the enumeration cap (reported, never silent).
  std::size_t truncated_chains = 0;
};

struct BuildOptions {
  int max_chain_depth = 3;
  std::size_t max_chains = 4096;
};

class ProtocolGraph {
 public:
  ProtocolGraph() = default;

  // Joins `report`'s per-entry taint facts with `model`'s mint/consume
  // declarations. `report.interfaces` order is the canonical node order, so
  // mints, edges, and chains come out deterministic for one (model, report)
  // pair regardless of jobs or scheduling.
  static ProtocolGraph Build(const model::CodeModel& model,
                             const AnalysisReport& report,
                             const BuildOptions& options = {});

  const std::vector<MintFact>& mints() const { return mints_; }
  const std::vector<ProtocolEdge>& edges() const { return edges_; }
  const std::vector<ProtocolChain>& chains() const { return chains_; }
  const GraphStats& stats() const { return stats_; }

  // Edge indices by endpoint (empty vector for uninvolved entries).
  const std::vector<std::size_t>& EdgesFrom(std::size_t entry) const;
  const std::vector<std::size_t>& EdgesInto(std::size_t entry) const;

 private:
  std::vector<MintFact> mints_;
  std::vector<ProtocolEdge> edges_;
  std::vector<ProtocolChain> chains_;
  // Edge indices by endpoint, indexed by entry.
  std::vector<std::vector<std::size_t>> edges_from_;
  std::vector<std::vector<std::size_t>> edges_into_;
  GraphStats stats_;
};

}  // namespace jgre::analysis::protocol

#endif  // JGRE_ANALYSIS_PROTOCOL_PROTOCOL_GRAPH_H_
