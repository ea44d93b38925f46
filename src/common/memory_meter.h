// Memory accounting helpers. The paper's Figure 10 compares peak process
// memory of separate binaries; all engines run inside one process here, so
// each engine instead reports an accounting-based estimate of its live
// state, and tracks the peak of that estimate over the stream.
#ifndef TCSM_COMMON_MEMORY_METER_H_
#define TCSM_COMMON_MEMORY_METER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tcsm {

/// Approximate heap footprint of common containers (payload + per-node or
/// per-bucket overhead). Estimates are intentionally simple and uniform so
/// cross-engine comparisons are apples-to-apples.
///
/// The *PayloadBytes forms count only what a container owns on the heap;
/// use them for a container embedded in an object that is already counted
/// (a vector element, a map node), whose header is part of that object.
/// The *Bytes forms add the header, for a container counted on its own.
template <typename T>
size_t VectorPayloadBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return VectorPayloadBytes(v) + sizeof(v);
}

template <typename K, typename V, typename H, typename E, typename A>
size_t HashMapPayloadBytes(const std::unordered_map<K, V, H, E, A>& m) {
  // Node-based: one heap node per element plus the bucket array.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  return m.size() * (sizeof(std::pair<const K, V>) + kNodeOverhead) +
         m.bucket_count() * sizeof(void*);
}

template <typename K, typename V, typename H, typename E, typename A>
size_t HashMapBytes(const std::unordered_map<K, V, H, E, A>& m) {
  return HashMapPayloadBytes(m) + sizeof(m);
}

template <typename K, typename H, typename E, typename A>
size_t HashSetBytes(const std::unordered_set<K, H, E, A>& s) {
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  return s.size() * (sizeof(K) + kNodeOverhead) +
         s.bucket_count() * sizeof(void*) + sizeof(s);
}

/// Tracks the peak of a recomputed estimate, and *where* it happened:
/// callers with a stream position pass it so a memory spike is
/// attributable to an event index, not just a magnitude.
class PeakMeter {
 public:
  void Observe(size_t bytes, size_t event_index = 0) {
    if (bytes > peak_) {
      peak_ = bytes;
      peak_at_ = event_index;
    }
  }
  size_t peak_bytes() const { return peak_; }
  /// Event index passed with the observation that set the current peak
  /// (0 when the caller never supplied positions).
  size_t peak_event_index() const { return peak_at_; }
  void Reset() {
    peak_ = 0;
    peak_at_ = 0;
  }

 private:
  size_t peak_ = 0;
  size_t peak_at_ = 0;
};

/// Reads the process-wide resident-set peak (VmHWM) in bytes from
/// /proc/self/status. Only meaningful for single-experiment processes;
/// exposed for completeness and used by the quickstart example.
size_t ProcessPeakRssBytes();

}  // namespace tcsm

#endif  // TCSM_COMMON_MEMORY_METER_H_
