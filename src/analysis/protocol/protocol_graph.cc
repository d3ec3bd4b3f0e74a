#include "analysis/protocol/protocol_graph.h"

#include <algorithm>
#include <functional>
#include <set>

namespace jgre::analysis::protocol {

namespace {

// A consumer argument is retention-relevant when the entry's transitive
// summary parks binders in a member slot or collection, or retains a death
// recipient for them — the bands where a forwarded minted value survives the
// call (rule-4 member slots retain exactly one, still a retention sink).
bool RetentionRelevant(const AnalyzedInterface& iface) {
  return iface.retention >= taint::Retention::kMemberSlot ||
         iface.links_to_death;
}

}  // namespace

ProtocolGraph ProtocolGraph::Build(const model::CodeModel& model,
                                   const AnalysisReport& report,
                                   const BuildOptions& options) {
  ProtocolGraph graph;
  graph.stats_.nodes = report.interfaces.size();

  // --- Mint facts: entries whose reply carries a typed minted value ---------
  for (std::size_t i = 0; i < report.interfaces.size(); ++i) {
    const model::JavaMethodModel* method =
        model.FindJavaMethod(report.interfaces[i].id);
    if (method == nullptr || !method->returns.minted()) continue;
    graph.mints_.push_back(
        MintFact{i, method->returns.kind, method->returns.domain});
  }
  graph.stats_.minting_entries = graph.mints_.size();

  // --- Edges: join mints against consume declarations and taint summaries --
  for (std::size_t i = 0; i < report.interfaces.size(); ++i) {
    const AnalyzedInterface& iface = report.interfaces[i];
    const model::JavaMethodModel* method = model.FindJavaMethod(iface.id);
    if (method == nullptr) continue;
    for (std::size_t k = 0; k < method->args.size(); ++k) {
      const model::ValueModel prov = method->ProvenanceOf(k);
      for (const MintFact& mint : graph.mints_) {
        bool match = false;
        bool explicit_consume = false;
        if (prov.minted() && prov.kind == mint.kind &&
            (prov.domain == "*" || prov.domain == mint.domain)) {
          // Declared consumption: the method states this argument carries a
          // value from the mint's (kind, domain).
          match = true;
          explicit_consume = true;
        } else if (method->args[k] == services::ArgKind::kBinder &&
                   mint.kind == model::ValueKind::kBinderHandle &&
                   mint.entry != i && RetentionRelevant(iface)) {
          // Summary-derived consumption: a retention-relevant binder slot
          // retains whatever binder the caller forwards — including a handle
          // minted by another entry's reply (nested-binder parcels).
          match = true;
        }
        if (!match) continue;
        ProtocolEdge edge;
        edge.producer = mint.entry;
        edge.consumer = i;
        edge.arg_index = k;
        edge.kind = mint.kind;
        edge.domain = mint.domain;
        edge.explicit_consume = explicit_consume;
        edge.cross_service =
            report.interfaces[mint.entry].service != iface.service;
        graph.edges_.push_back(std::move(edge));
      }
    }
  }
  graph.stats_.edges = graph.edges_.size();
  for (std::size_t e = 0; e < graph.edges_.size(); ++e) {
    const ProtocolEdge& edge = graph.edges_[e];
    if (edge.explicit_consume) ++graph.stats_.explicit_edges;
    if (edge.cross_service) ++graph.stats_.cross_service_edges;
    graph.edges_from_[edge.producer].push_back(e);
    graph.edges_into_[edge.consumer].push_back(e);
  }

  // --- Chains: DFS over edges in canonical order ----------------------------
  // A chain is recorded at every hop whose consumer is a risky, unsifted
  // interface (it carries a taint witness — the witness contract), and is
  // extended while the consumer mints further values. Acyclic per chain: no
  // repeated entries and no repeated mint domains, so a chain never re-mints
  // a domain it already consumed.
  struct Frame {
    std::vector<std::size_t> edge_ids;
    std::vector<std::size_t> entries;
    std::set<std::size_t> entry_set;
    std::set<std::string> domain_set;
  };
  const auto record = [&](const Frame& frame) {
    if (graph.chains_.size() >= options.max_chains) {
      ++graph.stats_.truncated_chains;
      return;
    }
    ProtocolChain chain;
    chain.edge_ids = frame.edge_ids;
    chain.entries = frame.entries;
    for (std::size_t j = 1; j < frame.entries.size(); ++j) {
      if (report.interfaces[frame.entries[j]].service !=
          report.interfaces[frame.entries[0]].service) {
        chain.multi_service = true;
        break;
      }
    }
    graph.chains_.push_back(std::move(chain));
  };

  const std::function<void(Frame&)> extend = [&](Frame& frame) {
    if (static_cast<int>(frame.edge_ids.size()) >= options.max_chain_depth) {
      return;
    }
    const std::size_t tail = frame.entries.back();
    auto it = graph.edges_from_.find(tail);
    if (it == graph.edges_from_.end()) return;
    for (std::size_t edge_id : it->second) {
      const ProtocolEdge& edge = graph.edges_[edge_id];
      if (frame.entry_set.count(edge.consumer) != 0) continue;
      if (frame.domain_set.count(edge.domain) != 0) continue;
      frame.edge_ids.push_back(edge_id);
      frame.entries.push_back(edge.consumer);
      frame.entry_set.insert(edge.consumer);
      frame.domain_set.insert(edge.domain);
      const AnalyzedInterface& consumer = report.interfaces[edge.consumer];
      if (consumer.risky && !consumer.sifted_out()) record(frame);
      extend(frame);
      frame.edge_ids.pop_back();
      frame.entries.pop_back();
      frame.entry_set.erase(edge.consumer);
      frame.domain_set.erase(edge.domain);
    }
  };
  for (const MintFact& mint : graph.mints_) {
    Frame frame;
    frame.entries.push_back(mint.entry);
    frame.entry_set.insert(mint.entry);
    extend(frame);
  }
  graph.stats_.chains = graph.chains_.size();
  for (const ProtocolChain& chain : graph.chains_) {
    if (chain.multi_service) ++graph.stats_.multi_service_chains;
  }
  return graph;
}

const std::vector<std::size_t>& ProtocolGraph::EdgesFrom(
    std::size_t entry) const {
  static const std::vector<std::size_t> kEmpty;
  auto it = edges_from_.find(entry);
  return it == edges_from_.end() ? kEmpty : it->second;
}

const std::vector<std::size_t>& ProtocolGraph::EdgesInto(
    std::size_t entry) const {
  static const std::vector<std::size_t> kEmpty;
  auto it = edges_into_.find(entry);
  return it == edges_into_.end() ? kEmpty : it->second;
}

}  // namespace jgre::analysis::protocol
