// Plain edge records shared by the streaming graph, the dataset loaders
// and the stream driver.
#ifndef TCSM_GRAPH_TEMPORAL_EDGE_H_
#define TCSM_GRAPH_TEMPORAL_EDGE_H_

#include "common/types.h"

namespace tcsm {

/// An edge of a temporal graph. Parallel edges between the same endpoints
/// are distinct records with (usually) different timestamps, per
/// Definition II.1 of the paper. For directed graphs the edge points
/// src -> dst; for undirected graphs the (src, dst) order is storage order.
struct TemporalEdge {
  EdgeId id = kInvalidEdge;
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  Timestamp ts = 0;
  Label label = 0;

  VertexId Other(VertexId v) const { return v == src ? dst : src; }
};

/// One record of an event stream as the stream driver pulls it
/// (core/stream_driver.h) — a `.tel` data record in either framing, or an
/// edge of an in-memory dataset.
struct StreamRecord {
  enum class Kind { kArrival, kExpiry };
  Kind kind = Kind::kArrival;
  /// For arrivals: src/dst/ts/label (a `.tel` arrival's id is assigned by
  /// the replay source in arrival order). For explicit expirations only
  /// `ts` is meaningful — the oldest live edge is the one that expires.
  TemporalEdge edge;
};

}  // namespace tcsm

#endif  // TCSM_GRAPH_TEMPORAL_EDGE_H_
