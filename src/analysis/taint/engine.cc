#include "analysis/taint/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>

namespace jgre::analysis::taint {

using model::BodyFact;
using model::JavaMethodModel;

std::string_view StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kIpcEntry:
      return "ipc_entry";
    case StepKind::kJavaCall:
      return "java_call";
    case StepKind::kStubReceive:
      return "stub_receive";
    case StepKind::kJniBridge:
      return "jni_bridge";
    case StepKind::kNativeCall:
      return "native_call";
    case StepKind::kSink:
      return "sink";
  }
  return "unknown";
}

std::string_view RetentionName(Retention retention) {
  switch (retention) {
    case Retention::kNone:
      return "none";
    case Retention::kTransient:
      return "transient";
    case Retention::kReadOnlyKey:
      return "read_only_key";
    case Retention::kMemberSlot:
      return "member_slot";
    case Retention::kCollection:
      return "collection";
  }
  return "unknown";
}

Retention LocalRetention(const JavaMethodModel& method) {
  if (method.HasFact(BodyFact::kStoresParamInCollection)) {
    return Retention::kCollection;
  }
  if (method.HasFact(BodyFact::kUsesParamTransiently)) {
    return Retention::kTransient;
  }
  if (method.HasFact(BodyFact::kUsesParamAsReadOnlyKey)) {
    return Retention::kReadOnlyKey;
  }
  if (method.HasFact(BodyFact::kStoresParamInMemberSlot)) {
    return Retention::kMemberSlot;
  }
  return Retention::kNone;
}

namespace {

// Iterative Tarjan over the Java call graph. Emits components callees-first
// (reverse topological order of the condensation) — exactly the bottom-up
// order the summary propagation wants.
class SccFinder {
 public:
  explicit SccFinder(const std::vector<std::vector<int>>& edges)
      : edges_(edges),
        index_(edges.size(), -1),
        lowlink_(edges.size(), -1),
        on_stack_(edges.size(), false) {}

  std::vector<std::vector<int>> Run() {
    for (int v = 0; v < static_cast<int>(edges_.size()); ++v) {
      if (index_[v] < 0) Visit(v);
    }
    return std::move(components_);
  }

 private:
  struct Frame {
    int node;
    std::size_t next_edge = 0;
  };

  void Visit(int root) {
    std::vector<Frame> call_stack{{root}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const int v = frame.node;
      if (frame.next_edge == 0) {
        index_[v] = lowlink_[v] = next_index_++;
        stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      while (frame.next_edge < edges_[v].size()) {
        const int w = edges_[v][frame.next_edge++];
        if (index_[w] < 0) {
          call_stack.push_back({w});
          descended = true;
          break;
        }
        if (on_stack_[w]) lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
      if (descended) continue;
      if (lowlink_[v] == index_[v]) {
        std::vector<int> component;
        int w;
        do {
          w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          component.push_back(w);
        } while (w != v);
        // Deterministic member order regardless of DFS pop order.
        std::sort(component.begin(), component.end());
        components_.push_back(std::move(component));
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const int parent = call_stack.back().node;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const std::vector<std::vector<int>>& edges_;
  std::vector<int> index_;
  std::vector<int> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  int next_index_ = 0;
  std::vector<std::vector<int>> components_;
};

}  // namespace

TaintEngine::TaintEngine(const model::CodeModel* model,
                         std::set<std::string> java_jgr_entries)
    : model_(model), entries_(std::move(java_jgr_entries)) {}

void TaintEngine::Run() {
  if (ran_) return;
  ran_ = true;
  const auto start = std::chrono::steady_clock::now();

  // Dense indexing over the (ordered) method map.
  std::vector<const JavaMethodModel*> methods;
  std::map<std::string, int> index_of;
  methods.reserve(model_->java_methods.size());
  for (const auto& [id, method] : model_->java_methods) {
    index_of[id] = static_cast<int>(methods.size());
    methods.push_back(&method);
  }
  std::vector<std::vector<int>> edges(methods.size());
  for (std::size_t v = 0; v < methods.size(); ++v) {
    for (const std::string& callee : methods[v]->callees) {
      if (auto it = index_of.find(callee); it != index_of.end()) {
        edges[v].push_back(it->second);
        ++stats_.call_edges;
      }
    }
  }
  stats_.java_methods = static_cast<int>(methods.size());

  std::vector<MethodSummary> summaries(methods.size());
  const auto compute = [&](int v) {
    const JavaMethodModel& method = *methods[v];
    MethodSummary s;
    const Retention local = LocalRetention(method);
    s.retention = local;
    s.links_to_death = method.HasFact(BodyFact::kLinksToDeath);
    s.mints_session = method.HasFact(BodyFact::kCreatesServerSession);
    if (entries_.count(method.id) > 0) s.jgr_entries.insert(method.id);
    for (const int w : edges[v]) {
      const MethodSummary& cs = summaries[w];
      if (cs.retention > s.retention) {
        if (local == Retention::kMemberSlot) {
          // Rule-4 cap: the slot's replace-on-next-call discipline bounds
          // whatever storage helper implements it.
          s.retention_capped = true;
        } else {
          s.retention = cs.retention;
          s.retention_via = methods[w]->id;
        }
      }
      s.links_to_death |= cs.links_to_death;
      s.mints_session |= cs.mints_session;
      s.jgr_entries.insert(cs.jgr_entries.begin(), cs.jgr_entries.end());
    }
    return s;
  };

  const std::vector<std::vector<int>> components = SccFinder(edges).Run();
  stats_.sccs = static_cast<int>(components.size());
  for (const std::vector<int>& component : components) {
    stats_.max_scc_size =
        std::max(stats_.max_scc_size, static_cast<int>(component.size()));
    bool self_loop = false;
    for (const int v : component) {
      for (const int w : edges[v]) self_loop |= (w == v);
    }
    if (component.size() > 1 || self_loop) ++stats_.nontrivial_sccs;
    // Members of one component see each other's partial summaries; the join
    // is monotone over a finite lattice, so iterating to a local fixpoint
    // terminates. Singleton components converge in the second (check) pass.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const int v : component) {
        ++stats_.fixpoint_iterations;
        MethodSummary next = compute(v);
        if (next != summaries[v]) {
          summaries[v] = std::move(next);
          ++stats_.summary_updates;
          changed = true;
        }
      }
    }
  }

  for (const auto& [id, index] : index_of) {
    summaries_[id] = std::move(summaries[index]);
  }
  stats_.runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
}

const MethodSummary* TaintEngine::SummaryOf(const std::string& id) const {
  const auto it = summaries_.find(id);
  return it == summaries_.end() ? nullptr : &it->second;
}

std::vector<std::string> TaintEngine::JavaPath(const std::string& from,
                                               const std::string& to) const {
  if (from == to) return {from};
  std::map<std::string, std::string> parent;
  std::deque<std::string> queue{from};
  parent[from] = from;
  while (!queue.empty()) {
    const std::string current = queue.front();
    queue.pop_front();
    const JavaMethodModel* method = model_->FindJavaMethod(current);
    if (method == nullptr) continue;
    for (const std::string& callee : method->callees) {
      if (parent.count(callee) > 0) continue;
      parent[callee] = current;
      if (callee == to) {
        std::vector<std::string> path{to};
        for (std::string hop = current; hop != from; hop = parent[hop]) {
          path.push_back(hop);
        }
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(callee);
    }
  }
  return {};
}

std::vector<WitnessStep> TaintEngine::NativeStitch(
    const std::string& java_entry) const {
  const std::string sink(model::kJgrSinkFunction);
  for (const model::JniRegistration& reg : model_->jni_registrations) {
    if (reg.java_method != java_entry) continue;
    const auto node = model_->native_methods.find(reg.native_method);
    if (node == model_->native_methods.end() ||
        node->second.runtime_init_only) {
      continue;
    }
    // Shortest native path registration -> sink (callee declaration order
    // breaks ties deterministically).
    std::map<std::string, std::string> parent;
    std::deque<std::string> queue{reg.native_method};
    parent[reg.native_method] = reg.native_method;
    std::string found;
    while (!queue.empty() && found.empty()) {
      const std::string current = queue.front();
      queue.pop_front();
      if (current == sink) {
        found = current;
        break;
      }
      const auto it = model_->native_methods.find(current);
      if (it == model_->native_methods.end()) continue;
      for (const std::string& callee : it->second.callees) {
        if (parent.count(callee) > 0) continue;
        parent[callee] = current;
        queue.push_back(callee);
      }
    }
    if (found.empty() && parent.count(sink) > 0) found = sink;
    if (found.empty()) continue;
    std::vector<std::string> frames{sink};
    for (std::string hop = parent[sink]; hop != reg.native_method;
         hop = parent[hop]) {
      frames.push_back(hop);
    }
    if (sink != reg.native_method) frames.push_back(reg.native_method);
    std::reverse(frames.begin(), frames.end());
    std::vector<WitnessStep> steps;
    steps.push_back({StepKind::kJniBridge, frames.front()});
    for (std::size_t i = 1; i + 1 < frames.size(); ++i) {
      steps.push_back({StepKind::kNativeCall, frames[i]});
    }
    if (frames.size() > 1) steps.push_back({StepKind::kSink, frames.back()});
    return steps;
  }
  return {};
}

void TaintEngine::AppendNative(const std::string& java_entry,
                               WitnessPath* path) const {
  std::vector<WitnessStep> native = NativeStitch(java_entry);
  path->steps.insert(path->steps.end(), native.begin(), native.end());
}

WitnessPath TaintEngine::WitnessFor(const std::string& entry_id,
                                    bool takes_binder) const {
  WitnessPath path;
  const MethodSummary* summary = SummaryOf(entry_id);
  if (summary == nullptr) return path;

  const auto java_segment = [&](const std::string& target) {
    std::vector<std::string> frames = JavaPath(entry_id, target);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      path.steps.push_back(
          {i == 0 ? StepKind::kIpcEntry : StepKind::kJavaCall, frames[i]});
    }
    return !frames.empty();
  };

  const std::string link_to_death(model::kLinkToDeathEntry);
  if (summary->links_to_death &&
      summary->jgr_entries.count(link_to_death) > 0 &&
      java_segment(link_to_death)) {
    // The retained callback's JavaDeathRecipient is the JGR that accumulates.
    path.reason = "death-recipient";
    AppendNative(link_to_death, &path);
    return path;
  }
  if (takes_binder) {
    // Parcel.nativeReadStrongBinder runs in the generated onTransact stub,
    // never in the method's own call graph (§III.C.2) — synthesize the hop.
    path.reason = "binder-receive";
    path.steps.push_back({StepKind::kIpcEntry, entry_id});
    path.steps.push_back(
        {StepKind::kStubReceive, std::string(model::kReadStrongBinderEntry)});
    AppendNative(std::string(model::kReadStrongBinderEntry), &path);
    return path;
  }
  if (summary->mints_session) {
    // The minted server-side binder is parceled back through the stub's
    // reply, pinning a JavaBBinder JGR in the host per call.
    path.reason = "session-mint";
    path.steps.push_back({StepKind::kIpcEntry, entry_id});
    path.steps.push_back(
        {StepKind::kStubReceive, std::string(model::kWriteStrongBinderEntry)});
    AppendNative(std::string(model::kWriteStrongBinderEntry), &path);
    return path;
  }
  if (!summary->jgr_entries.empty()) {
    // Lexicographically-smallest reached entry: deterministic, and the only
    // entry at all when the thread-create rule applies.
    const std::string& target = *summary->jgr_entries.begin();
    if (java_segment(target)) {
      path.reason =
          summary->reaches_only_thread_create() ? "thread-create" : "jgr-entry";
      AppendNative(target, &path);
      return path;
    }
  }
  return path;
}

}  // namespace jgre::analysis::taint
