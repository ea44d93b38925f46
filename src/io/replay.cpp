#include "io/replay.h"

#include "io/flight_recorder.h"
#include "obs/observability.h"

namespace tcsm {

StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context) {
  EventSource source;
  if (!reader->header().explicit_expiry) {
    source.window =
        options.window > 0 ? options.window : reader->header().window;
    if (source.window <= 0) {
      return Status::InvalidArgument(
          reader->source() +
          ": no expiry window (pass one explicitly or record window= in "
          "the header)");
    }
  }
  // After SeekToTimestamp the index supplies the count of skipped
  // arrivals, so ids in the suffix match the full replay's exactly.
  EdgeId next_id = static_cast<EdgeId>(reader->first_arrival_index());
  source.next = [&](StreamRecord* record, bool* done) -> Status {
    const Status s = reader->Next(record, done);
    if (s.ok() && !*done && record->kind == StreamRecord::Kind::kArrival) {
      record->edge.id = next_id++;
    }
    return s;
  };
  if (options.recorder != nullptr) {
    source.on_arrival = [&](const TemporalEdge& e) {
      options.recorder->Record(e);
    };
  }
  reader->set_stage_metrics(
      options.obs != nullptr ? &options.obs->stages() : nullptr);
  StreamResult result;
  const Status s = DriveStream(source, options, context, &result);
  if (!s.ok()) return s;
  return result;
}

}  // namespace tcsm
