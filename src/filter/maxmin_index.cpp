#include "filter/maxmin_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/memory_meter.h"

namespace tcsm {

MaxMinIndex::MaxMinIndex(const TemporalGraph* graph, const QueryDag* dag,
                         bool partitioned_adjacency)
    : graph_(graph),
      dag_(dag),
      query_(&dag->query()),
      partitioned_(partitioned_adjacency) {
  entries_.resize(query_->NumVertices());
  dirty_.resize(query_->NumVertices());
}

auto MaxMinIndex::GetEntry(VertexId u, VertexId v) -> const Entry& {
  auto& bucket = entries_[u];
  auto it = bucket.find(v);
  if (it != bucket.end()) return it->second;
  Entry entry = ComputeEntry(u, v);
  return bucket.emplace(v, std::move(entry)).first->second;
}

auto MaxMinIndex::ComputeEntry(VertexId u, VertexId v) -> Entry {
  const size_t n_later = dag_->TrackedLater(u).size();
  const size_t n_earlier = dag_->TrackedEarlier(u).size();
  Entry entry;
  entry.later.assign(n_later, kPlusInfinity);    // min over children
  entry.earlier.assign(n_earlier, kMinusInfinity);  // max over children
  if (query_->VertexLabel(u) != graph_->VertexLabel(v)) {
    entry.weak = false;
    std::fill(entry.later.begin(), entry.later.end(), kMinusInfinity);
    std::fill(entry.earlier.begin(), entry.earlier.end(), kPlusInfinity);
    return entry;
  }
  entry.weak = true;

  // Scratch per-branch aggregates (max over parallel candidates for
  // `later`, min for `earlier` — Eq. (1) and its mirror).
  std::vector<Timestamp> branch_later(n_later);
  std::vector<Timestamp> branch_earlier(n_earlier);

  for (const EdgeId f : dag_->ChildEdges(u)) {
    const VertexId uc = dag_->ChildOf(f);
    const QueryEdge& qf = query_->Edge(f);
    const Label want_vlabel = query_->VertexLabel(uc);
    // Direction constraint for directed graphs: the data edge must leave v
    // iff the query edge leaves u.
    const bool need_out = qf.u == u;

    std::fill(branch_later.begin(), branch_later.end(), kMinusInfinity);
    std::fill(branch_earlier.begin(), branch_earlier.end(), kPlusInfinity);
    bool branch_weak = false;

    ScanNeighbors(v, qf.elabel, want_vlabel, [&](const AdjEntry& a) {
      if (a.elabel != qf.elabel) return;
      if (graph_->VertexLabel(a.nbr) != want_vlabel) return;
      if (graph_->directed() && a.out != need_out) return;
      ++matched_;
      // Pull the child entry (lazily computed). Note: GetEntry may insert
      // into entries_[uc]; safe because `entry` lives on our stack.
      const Entry& child = GetEntry(uc, a.nbr);
      if (child.weak) branch_weak = true;

      for (size_t s = 0; s < n_later; ++s) {
        const EdgeId e = dag_->TrackedLater(u)[s];
        const int cslot = dag_->SlotLater(uc, e);
        Timestamp val = cslot >= 0 ? child.later[static_cast<size_t>(cslot)]
                        : child.weak ? kPlusInfinity
                                     : kMinusInfinity;
        if (query_->Precedes(e, f)) val = std::min(val, a.ts);
        branch_later[s] = std::max(branch_later[s], val);
      }
      for (size_t s = 0; s < n_earlier; ++s) {
        const EdgeId e = dag_->TrackedEarlier(u)[s];
        const int cslot = dag_->SlotEarlier(uc, e);
        Timestamp val = cslot >= 0 ? child.earlier[static_cast<size_t>(cslot)]
                        : child.weak ? kMinusInfinity
                                     : kPlusInfinity;
        if (query_->Precedes(f, e)) val = std::max(val, a.ts);
        branch_earlier[s] = std::min(branch_earlier[s], val);
      }
    });

    entry.weak = entry.weak && branch_weak;
    for (size_t s = 0; s < n_later; ++s) {
      entry.later[s] = std::min(entry.later[s], branch_later[s]);
    }
    for (size_t s = 0; s < n_earlier; ++s) {
      entry.earlier[s] = std::max(entry.earlier[s], branch_earlier[s]);
    }
  }
  return entry;
}

bool MaxMinIndex::GateChanged(VertexId u, const Entry& before,
                              const Entry& after) const {
  if (before.weak != after.weak) return true;
  for (const EdgeId e : dag_->ParentEdges(u)) {
    const int sl = dag_->SlotLater(u, e);
    if (sl >= 0 && before.later[static_cast<size_t>(sl)] !=
                       after.later[static_cast<size_t>(sl)]) {
      return true;
    }
    const int se = dag_->SlotEarlier(u, e);
    if (se >= 0 && before.earlier[static_cast<size_t>(se)] !=
                       after.earlier[static_cast<size_t>(se)]) {
      return true;
    }
  }
  return false;
}

void MaxMinIndex::MarkDirty(VertexId u, VertexId v) {
  if (entries_[u].find(v) == entries_[u].end()) return;  // lazy: no readers
  dirty_[dag_->TopoPos(u)][v] = 1;
}

void MaxMinIndex::ProcessDirty(std::vector<UvPair>* touched) {
  const auto& topo = dag_->TopoOrder();
  // Children have larger topological positions; process them first so each
  // entry is recomputed at most once per event (Algorithm 3's queue).
  for (size_t pos = topo.size(); pos-- > 0;) {
    auto& bucket = dirty_[pos];
    if (bucket.empty()) continue;
    const VertexId u = topo[pos];
    // Move out: recomputation never dirties the same position again
    // (propagation goes strictly to smaller positions).
    std::unordered_map<VertexId, uint8_t> work;
    work.swap(bucket);
    for (const auto& [v, unused] : work) {
      auto it = entries_[u].find(v);
      TCSM_CHECK(it != entries_[u].end());
      Entry fresh = ComputeEntry(u, v);
      if (fresh == it->second) continue;
      const bool gate = GateChanged(u, it->second, fresh);
      it->second = std::move(fresh);
      if (gate) touched->push_back(UvPair{u, v});
      // Propagate to existing parent entries reachable through live data
      // edges (Algorithm 3 lines 10-19).
      for (const EdgeId pe : dag_->ParentEdges(u)) {
        const VertexId up = dag_->ParentOf(pe);
        const QueryEdge& qpe = query_->Edge(pe);
        const Label want = query_->VertexLabel(up);
        const bool nbr_out = qpe.u == up;  // data edge leaves the parent
        ScanNeighbors(v, qpe.elabel, want, [&](const AdjEntry& a) {
          if (a.elabel != qpe.elabel) return;
          if (graph_->VertexLabel(a.nbr) != want) return;
          // From v's perspective the edge direction is inverted.
          if (graph_->directed() && a.out == nbr_out) return;
          ++matched_;
          MarkDirty(up, a.nbr);
        });
      }
    }
  }
}

void MaxMinIndex::OnEdgeInserted(const TemporalEdge& ed,
                                 std::vector<UvPair>* touched) {
  // The new edge is a fresh parallel candidate for every DAG edge it can
  // match; only the parent-side entries reference it (Eq. (1) iterates
  // candidates from the parent's adjacency).
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(*query_, *graph_, qe, ed, flip)) continue;
      const VertexId pu = dag_->ParentOf(qe);
      const QueryEdge& q = query_->Edge(qe);
      const VertexId vp = (pu == q.u) ? (flip ? ed.dst : ed.src)
                                      : (flip ? ed.src : ed.dst);
      MarkDirty(pu, vp);
    }
  }
  ProcessDirty(touched);
}

void MaxMinIndex::OnEdgeRemoved(const TemporalEdge& ed,
                                std::vector<UvPair>* touched) {
  for (EdgeId qe = 0; qe < query_->NumEdges(); ++qe) {
    for (const bool flip : {false, true}) {
      if (!StaticFeasible(*query_, *graph_, qe, ed, flip)) continue;
      const VertexId pu = dag_->ParentOf(qe);
      const QueryEdge& q = query_->Edge(qe);
      const VertexId vp = (pu == q.u) ? (flip ? ed.dst : ed.src)
                                      : (flip ? ed.src : ed.dst);
      MarkDirty(pu, vp);
    }
  }
  ProcessDirty(touched);
}

bool MaxMinIndex::CheckMatchable(EdgeId qe, const TemporalEdge& ed,
                                 bool flip) {
  const QueryEdge& q = query_->Edge(qe);
  const VertexId cu = dag_->ChildOf(qe);
  const VertexId vc = (cu == q.u) ? (flip ? ed.dst : ed.src)
                                  : (flip ? ed.src : ed.dst);
  const Entry& entry = GetEntry(cu, vc);
  if (!entry.weak) return false;
  const int sl = dag_->SlotLater(cu, qe);
  if (sl >= 0 && !(ed.ts < entry.later[static_cast<size_t>(sl)])) {
    return false;
  }
  const int se = dag_->SlotEarlier(cu, qe);
  if (se >= 0 && !(ed.ts > entry.earlier[static_cast<size_t>(se)])) {
    return false;
  }
  return true;
}

Timestamp MaxMinIndex::Later(VertexId u, VertexId v, EdgeId e) {
  const Entry& entry = GetEntry(u, v);
  const int slot = dag_->SlotLater(u, e);
  if (slot >= 0) return entry.later[static_cast<size_t>(slot)];
  return entry.weak ? kPlusInfinity : kMinusInfinity;
}

Timestamp MaxMinIndex::Earlier(VertexId u, VertexId v, EdgeId e) {
  const Entry& entry = GetEntry(u, v);
  const int slot = dag_->SlotEarlier(u, e);
  if (slot >= 0) return entry.earlier[static_cast<size_t>(slot)];
  return entry.weak ? kMinusInfinity : kPlusInfinity;
}

bool MaxMinIndex::Weak(VertexId u, VertexId v) {
  return GetEntry(u, v).weak;
}

size_t MaxMinIndex::NumEntries() const {
  size_t n = 0;
  for (const auto& bucket : entries_) n += bucket.size();
  return n;
}

size_t MaxMinIndex::EntrySlotBytes(VertexId u) const {
  // The vector headers are part of the map node, already counted by
  // HashMapBytes; only the slot arrays are extra.
  return (dag_->TrackedLater(u).size() + dag_->TrackedEarlier(u).size()) *
         sizeof(Timestamp);
}

size_t MaxMinIndex::EstimateMemoryBytes() const {
  // Closed form: ComputeEntry sizes every entry of u to exactly
  // TrackedLater(u)/TrackedEarlier(u) slots, so all entries of u carry the
  // same slot bytes (checked by ValidateInvariantsForTest).
  size_t bytes = 0;
  for (VertexId u = 0; u < entries_.size(); ++u) {
    bytes += HashMapBytes(entries_[u]) +
             entries_[u].size() * EntrySlotBytes(u);
  }
  return bytes;
}

void MaxMinIndex::ValidateInvariantsForTest() const {
  size_t walked = 0;
  for (VertexId u = 0; u < entries_.size(); ++u) {
    walked += HashMapBytes(entries_[u]);
    for (const auto& [v, entry] : entries_[u]) {
      TCSM_CHECK(entry.later.capacity() == dag_->TrackedLater(u).size());
      TCSM_CHECK(entry.earlier.capacity() == dag_->TrackedEarlier(u).size());
      walked += VectorPayloadBytes(entry.later) +
                VectorPayloadBytes(entry.earlier);
    }
  }
  TCSM_CHECK(walked == EstimateMemoryBytes() &&
             "closed-form max-min bytes drifted from the walk");
}

}  // namespace tcsm
