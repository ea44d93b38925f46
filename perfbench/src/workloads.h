// The benchmark's four workloads, generated in-process from a seed.
//
// A workload is a data stream plus a query set plus the way the stream is
// driven (in-memory RunStream or file-driven ReplayStream, serial or
// fanned out). Everything the program later receives — the stream, the
// .tq query texts, the .tel file bytes — is produced here, so the same
// seed always yields byte-identical inputs (InputHash pins that).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/temporal_dataset.h"

namespace perfbench {

/// Independent enumeration path used to produce the reference counts.
enum class ReferenceEngine { kPostFilter, kLocalEnum };

struct Workload {
  std::string name;
  /// The arrival stream (in-memory workloads drive it directly; the
  /// replay workload serializes it into tel_text).
  tcsm::TemporalDataset dataset;
  tcsm::Timestamp window = 0;
  /// Serialized queries (.tq text); the program parses them at set-up.
  std::vector<std::string> query_texts;
  /// Text .tel bytes, non-empty only for the replay workload.
  std::string tel_text;
  /// Drive through StreamReader + ReplayStream instead of RunStream.
  bool replay = false;
  /// Queries run on a MultiQueryEngine (else one TcmEngine per query with
  /// its own counting sink on a plain SharedStreamContext).
  bool multi_query = false;
  size_t threads = 1;
  /// Open-loop schedule: stream timestamp units released per second of
  /// wall time, and why this fixed rate was chosen.
  double open_loop_ts_per_s = 0;
  std::string rate_reason;
  ReferenceEngine reference = ReferenceEngine::kPostFilter;

  /// Arrivals + expirations of one full pass.
  size_t NumEvents() const { return 2 * dataset.NumEdges(); }
};

std::vector<std::string> WorkloadNames();
bool IsWorkload(const std::string& name);

/// Builds workload `name` from `seed`. CHECK-fails on unknown names.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// FNV-1a 64 over the serialized stream (.tel text) and every query text:
/// equal hashes mean the program received byte-identical inputs.
uint64_t InputHash(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
