// File-driven stream replay: the StreamReader source of
// core/stream_driver.h's one event-schedule loop, so file replay and
// in-memory replay produce byte-identical match streams (enforced by
// tests/io_roundtrip_test.cpp). Memory is O(window): the loop's FIFO of
// live edges plus the reader's current line.
#ifndef TCSM_IO_REPLAY_H_
#define TCSM_IO_REPLAY_H_

#include "common/status.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "io/stream_reader.h"

namespace tcsm {

class FlightRecorder;  // io/flight_recorder.h

/// StreamConfig plus what only a file replay needs.
struct ReplayOptions : StreamConfig {
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
