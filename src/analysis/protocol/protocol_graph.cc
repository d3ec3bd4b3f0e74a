#include "analysis/protocol/protocol_graph.h"

#include <algorithm>
#include <map>
#include <string_view>

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
  graph.edges_from_.resize(report.interfaces.size());
  graph.edges_into_.resize(report.interfaces.size());
  // Mint domains get small dense ids, so a chain marks the domains it used
  // in a flag vector instead of a set of strings.
  std::vector<std::size_t> edge_domain(graph.edges_.size());
  std::map<std::string_view, std::size_t> domain_ids;
  for (std::size_t e = 0; e < graph.edges_.size(); ++e) {
    const ProtocolEdge& edge = graph.edges_[e];
    if (edge.explicit_consume) ++graph.stats_.explicit_edges;
    if (edge.cross_service) ++graph.stats_.cross_service_edges;
    graph.edges_from_[edge.producer].push_back(e);
    graph.edges_into_[edge.consumer].push_back(e);
    edge_domain[e] = domain_ids.emplace(edge.domain, domain_ids.size())
                         .first->second;
  }

  // --- Chains: DFS over edges in canonical order ----------------------------
  // A chain is recorded at every hop whose consumer is a risky, unsifted
  // interface (it carries a taint witness — the witness contract), and is
  // extended while the consumer mints further values. Acyclic per chain: no
  // repeated entries and no repeated mint domains, so a chain never re-mints
  // a domain it already consumed. A path holds at most max_chain_depth + 1
  // entries, so the repeated-entry check scans it.
  std::vector<std::size_t> path_edges;
  std::vector<std::size_t> path_entries;
  std::vector<char> domain_used(domain_ids.size(), 0);
  const auto record = [&] {
    if (graph.chains_.size() >= options.max_chains) {
      ++graph.stats_.truncated_chains;
      return;
    }
    ProtocolChain chain;
    chain.edge_ids = path_edges;
    chain.entries = path_entries;
    for (std::size_t j = 1; j < path_entries.size(); ++j) {
      if (report.interfaces[path_entries[j]].service !=
          report.interfaces[path_entries[0]].service) {
        chain.multi_service = true;
        break;
      }
    }
    graph.chains_.push_back(std::move(chain));
  };
  const auto extend = [&](const auto& self) -> void {
    if (static_cast<int>(path_edges.size()) >= options.max_chain_depth) {
      return;
    }
    for (std::size_t edge_id : graph.edges_from_[path_entries.back()]) {
      const ProtocolEdge& edge = graph.edges_[edge_id];
      char& used = domain_used[edge_domain[edge_id]];
      if (used != 0 || std::find(path_entries.begin(), path_entries.end(),
                                 edge.consumer) != path_entries.end()) {
        continue;
      }
      used = 1;
      path_edges.push_back(edge_id);
      path_entries.push_back(edge.consumer);
      const AnalyzedInterface& consumer = report.interfaces[edge.consumer];
      if (consumer.risky && !consumer.sifted_out()) record();
      self(self);
      path_edges.pop_back();
      path_entries.pop_back();
      used = 0;
    }
  };
  for (const MintFact& mint : graph.mints_) {
    path_entries.assign(1, mint.entry);
    extend(extend);
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
  return entry < edges_from_.size() ? edges_from_[entry] : kEmpty;
}

const std::vector<std::size_t>& ProtocolGraph::EdgesInto(
    std::size_t entry) const {
  static const std::vector<std::size_t> kEmpty;
  return entry < edges_into_.size() ? edges_into_[entry] : kEmpty;
}

}  // namespace jgre::analysis::protocol
