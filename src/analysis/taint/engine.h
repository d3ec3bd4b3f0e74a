// TaintEngine — summary-based interprocedural dataflow over the CodeModel.
//
// The engine computes one MethodSummary per Java method, bottom-up over the
// condensation of the call graph (Tarjan SCCs; mutually recursive helpers
// share a component iterated to a local fixpoint), so:
//
//   * retention annotated on a helper three hops down the call chain
//     surfaces at the entry (multi-hop retention, read-only-key lookups
//     behind a call hop);
//   * JGR-entry reachability is O(V+E) once for the whole model;
//   * every verdict can be explained: WitnessFor() reconstructs the concrete
//     frame chain entry → java callees… → JNI bridge → native frames… →
//     art::IndirectReferenceTable::Add.
//
// The engine is verdict-free: it computes summaries and witnesses; the one
// sifter (four rules plus the permission filter) reads them in
// src/analysis/pipeline.cc.
#ifndef JGRE_ANALYSIS_TAINT_ENGINE_H_
#define JGRE_ANALYSIS_TAINT_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/taint/summary.h"
#include "analysis/taint/witness.h"
#include "model/code_model.h"

namespace jgre::analysis::taint {

class TaintEngine {
 public:
  // `java_jgr_entries` is the set of Java methods whose JNI targets reach
  // IndirectReferenceTable::Add (the JGR entry extractor's output). The
  // model must outlive the engine.
  TaintEngine(const model::CodeModel* model,
              std::set<std::string> java_jgr_entries);

  // Computes every summary to fixpoint. Idempotent.
  void Run();

  // nullptr for methods absent from the model.
  const MethodSummary* SummaryOf(const std::string& id) const;

  // The concrete evidence chain for an IPC entry's verdict. Reason priority
  // mirrors what makes the interface risky: a reachable death recipient,
  // then the onTransact strong-binder receive (takes_binder), then a session
  // mint, then thread creation / any reached JGR entry. Returns an empty
  // path when nothing JGR-relevant is reachable.
  WitnessPath WitnessFor(const std::string& entry_id, bool takes_binder) const;

  const std::set<std::string>& java_jgr_entries() const { return entries_; }
  const EngineStats& stats() const { return stats_; }

 private:
  // Shortest java call-graph path from `from` to `to` (inclusive), or empty.
  std::vector<std::string> JavaPath(const std::string& from,
                                    const std::string& to) const;
  // JNI bridge + native frames from `java_entry`'s registered native method
  // down to the sink; empty if no exploitable registration reaches it.
  std::vector<WitnessStep> NativeStitch(const std::string& java_entry) const;
  void AppendNative(const std::string& java_entry,
                    WitnessPath* path) const;

  const model::CodeModel* model_;
  std::set<std::string> entries_;
  std::map<std::string, MethodSummary> summaries_;
  EngineStats stats_;
  bool ran_ = false;
};

}  // namespace jgre::analysis::taint

#endif  // JGRE_ANALYSIS_TAINT_ENGINE_H_
