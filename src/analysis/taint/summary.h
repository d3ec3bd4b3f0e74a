// Per-method taint summaries — the unit the interprocedural engine computes.
//
// A summary answers, for one Java method, "what ultimately happens to a
// binder-typed argument handed to it, and which JGR entry points does it
// reach?" — derived from the BodyFacts *at the method where they occur* and
// joined bottom-up over the call graph.
//
// The retention lattice is a small severity order:
//
//   kNone < kTransient < kReadOnlyKey < kMemberSlot < kCollection
//
// Join picks the more severe kind, so a transient entry calling a helper
// that retains in a collection summarizes to kCollection (multi-hop
// retention). One deliberate exception, matching the paper's sift rule 4: a
// local kStoresParamInMemberSlot fact *caps* the summary at kMemberSlot
// regardless of callee retention. The annotation
// states the method's net storage discipline — each call replaces the
// previous binder, so whatever register/unregister pair implements the slot,
// the retained population stays one entry.
#ifndef JGRE_ANALYSIS_TAINT_SUMMARY_H_
#define JGRE_ANALYSIS_TAINT_SUMMARY_H_

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "model/code_model.h"

namespace jgre::analysis::taint {

// Ordered by severity so Join() is std::max.
enum class Retention {
  kNone = 0,
  kTransient,    // used inside the call only; GC reclaims it (rule 2)
  kReadOnlyKey,  // read-only Map/Set/RCL lookup (rule 3)
  kMemberSlot,   // single slot, replaced on the next call (rule 4)
  kCollection,   // retained until removal/death: the vulnerable pattern
};

std::string_view RetentionName(Retention retention);

inline Retention JoinRetention(Retention a, Retention b) {
  return a < b ? b : a;
}

// The retention kind a method's own body facts state, using the sifter's
// precedence (collection dominates; transient before read-only-key before
// member-slot).
Retention LocalRetention(const model::JavaMethodModel& method);

struct MethodSummary {
  // Transitive effect on a binder argument (see lattice above).
  Retention retention = Retention::kNone;
  // Id of the callee whose summary supplied `retention` ("" = the method's
  // own body facts). The head of the provenance chain for witness reporting.
  std::string retention_via;
  // True when a local member-slot fact absorbed a more severe callee
  // retention (the rule-4 cap fired).
  bool retention_capped = false;

  bool links_to_death = false;   // self or any callee links to death
  bool mints_session = false;    // self or any callee mints+retains a session

  // Java-level JGR entry methods reachable from this method (inclusive).
  std::set<std::string> jgr_entries;

  bool reaches_jgr_entry() const { return !jgr_entries.empty(); }
  // Thread creation is the only JGR entry reached (sift rule 1's predicate).
  bool reaches_only_thread_create() const {
    return jgr_entries.size() == 1 &&
           *jgr_entries.begin() == model::kThreadCreateEntry;
  }

  bool operator==(const MethodSummary&) const = default;
};

// Engine bookkeeping the bench reports (BENCH_analysis.json).
struct EngineStats {
  int java_methods = 0;
  int call_edges = 0;
  int sccs = 0;
  int max_scc_size = 0;
  int nontrivial_sccs = 0;       // components with >= 2 members or a self loop
  int fixpoint_iterations = 0;   // total member passes across all components
  int summary_updates = 0;       // how many passes changed a summary
  double runtime_ms = 0.0;       // summary computation wall time
};

}  // namespace jgre::analysis::taint

#endif  // JGRE_ANALYSIS_TAINT_SUMMARY_H_
