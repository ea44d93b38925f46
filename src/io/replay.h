// File-driven stream replay: drives a SharedStreamContext (and through it
// every attached engine) from a StreamReader instead of an in-memory
// TemporalDataset. Memory is O(window): the only state besides the
// reader's current line is the FIFO of live edges, which is needed to
// deliver each expiration's edge record. The event schedule is identical
// to core/stream_driver.h's RunStream — arrivals in timestamp order,
// derived expirations at ts + window, expirations before arrivals on ties
// — so file replay and in-memory replay produce byte-identical match
// streams (enforced by tests/io_roundtrip_test.cpp).
#ifndef TCSM_IO_REPLAY_H_
#define TCSM_IO_REPLAY_H_

#include "common/status.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "io/stream_reader.h"

namespace tcsm {

class FlightRecorder;  // io/flight_recorder.h

struct ReplayOptions {
  /// Expiry window for derived-expiry streams. 0 = take the header's
  /// window; a stream with neither is an InvalidArgument error. Ignored
  /// by explicit-expiry streams (the file carries its own schedule).
  Timestamp window = 0;
  /// Per-run wall-clock limit; 0 = unlimited (see StreamConfig).
  double time_limit_ms = 0;
  /// Stop pulling the stream after this many arrivals (0 = all); live
  /// edges still expire, so the run ends on an empty window. This is the
  /// CLI's --max-events rate control.
  size_t max_arrivals = 0;
  /// Context memory is sampled every this many events; 0 = every 64
  /// events (a stream's length is unknown up front, so unlike RunStream
  /// the cadence cannot adapt to it). A sample does not grow with the
  /// vertex count: it is O(1) for the graph and O(|V(q)|) per max-min
  /// index, plus the DCS walk (DESIGN.md §7).
  size_t memory_sample_every = 0;
  /// Largest micro-batch handed to the context in one batch call (see
  /// StreamConfig::max_batch): consecutive same-timestamp arrivals, or
  /// same-timestamp derived expirations. 0 = default (kDefaultMaxBatch);
  /// 1 = unbatched. Explicit-expiry records are never coalesced — the
  /// file carries its own schedule. The match stream is identical for
  /// every setting.
  size_t max_batch = 0;
  /// Observability bundle + periodic stats, exactly as in StreamConfig
  /// (core/stream_driver.h): null obs = metrics off = no-op sites.
  Observability* obs = nullptr;
  size_t stats_every = 0;
  bool stats_json = false;
  std::ostream* stats_out = nullptr;
  /// Optional flight recorder (io/flight_recorder.h): every delivered
  /// arrival is recorded before it reaches the context, so a dump taken
  /// after a mid-replay failure still holds the event that triggered it.
  FlightRecorder* recorder = nullptr;
};

/// Replays `reader` (already Init()ed by the caller, who needed its
/// schema to build the engines) into `context`. Returns the same
/// StreamResult as RunStream, or a Status for malformed input / an
/// unresolvable window. The reader must be positioned before the first
/// data record, i.e. Next() must not have been called yet.
StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_IO_REPLAY_H_
