// The `.tel` (temporal edge list) on-disk stream format — shared
// definitions for the reader/writer pair. docs/FILE_FORMATS.md is the
// normative specification; this header mirrors its grammar:
//
//   tel 1 <directed|undirected> [vertices=N] [window=D] [expiry=explicit]
//   v <id> <label>              # vertex label (before the first e/x record)
//   e <src> <dst> <ts> [elabel] # edge arrival, timestamps non-decreasing
//   x <ts>                      # explicit expiry of the oldest live edge
//                               # (only in expiry=explicit streams)
//
// '#' starts a comment anywhere on a line; blank lines are ignored. A
// stream either derives expirations from a window (edge e expires at
// e.ts + delta, expirations before arrivals on ties — Example II.2) or
// records them explicitly with `x` lines; the header's `expiry=` key
// selects the mode for the whole stream.
// A `.tel` stream also has a binary v2 framing (same records, block-framed
// with an index footer for O(1) seek) — see io/tel_binary.h and the
// normative §binary-v2 spec in docs/FILE_FORMATS.md. Readers sniff the
// framing by the first byte: text v1 never starts with 0x89.
#ifndef TCSM_IO_TEL_FORMAT_H_
#define TCSM_IO_TEL_FORMAT_H_

#include <cstddef>
#include <limits>

#include "common/types.h"
#include "graph/temporal_edge.h"

namespace tcsm {

/// Magic token of the header line; a file whose first significant line
/// starts with this token is a `.tel` stream (format sniffing).
inline constexpr const char* kTelMagic = "tel";

/// The one format version this reader/writer pair implements. Readers
/// reject other versions and unknown header keys, so v1 files can never
/// be silently misread by a future grammar.
inline constexpr int kTelVersion = 1;

/// Largest timestamp magnitude (and window) a `.tel` file may carry —
/// the library-wide overflow cap (common/types.h), so the derived expiry
/// time ts + window can never overflow however hostile the file.
inline constexpr Timestamp kMaxTelTimestamp = kMaxStreamTimestamp;

/// Parsed `.tel` header line.
struct TelHeader {
  int version = kTelVersion;
  bool directed = false;
  /// Declared vertex-universe size (`vertices=N`); 0 with
  /// `has_vertices == false` when the key is absent and the universe is
  /// inferred from `v` records instead.
  size_t num_vertices = 0;
  bool has_vertices = false;
  /// Suggested replay window (`window=D`); 0 = none recorded.
  Timestamp window = 0;
  /// True for `expiry=explicit` streams: expirations are `x` records in
  /// the file rather than derived from a window at replay time.
  bool explicit_expiry = false;
};

}  // namespace tcsm

#endif  // TCSM_IO_TEL_FORMAT_H_
