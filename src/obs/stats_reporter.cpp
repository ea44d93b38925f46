#include "obs/stats_reporter.h"

#include <cstdio>
#include <ostream>
#include <string_view>

namespace tcsm {

namespace {

std::string Fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string Fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string ShortStageName(std::string_view name) {
  if (name.substr(0, 6) == "stage.") name.remove_prefix(6);
  if (name.size() > 3 && name.substr(name.size() - 3) == "_ns") {
    name.remove_suffix(3);
  }
  return std::string(name);
}

}  // namespace

StatsReporter::StatsReporter(Observability* obs, size_t every_events,
                             bool json, std::ostream* out)
    : obs_(obs), every_(every_events), json_(json), out_(out) {}

void StatsReporter::Tick(size_t events_total, size_t live_edges,
                         const EngineCounters& agg) {
  if (!enabled()) return;
  obs_->PublishEngineCounters(agg);

  const double now_ms = watch_.ElapsedMs();
  const double interval_ms = now_ms - last_ms_;
  const double events_per_sec =
      interval_ms > 0.0
          ? static_cast<double>(events_total - last_events_) * 1000.0 /
                interval_ms
          : 0.0;
  const uint64_t scanned =
      agg.adj_entries_scanned - last_agg_.adj_entries_scanned;
  const uint64_t matched =
      agg.adj_entries_matched - last_agg_.adj_entries_matched;
  const double selectivity =
      scanned > 0 ? static_cast<double>(matched) / scanned : 0.0;

  MetricsSnapshot snap = obs_->Snapshot();
  const uint64_t engine_calls = snap.CounterValue("stream.engine_calls");
  std::ostream& out = *out_;
  if (json_) {
    out << "{\"type\":\"stats\",\"events\":" << events_total
        << ",\"events_per_sec\":" << Fmt1(events_per_sec)
        << ",\"live_edges\":" << live_edges << ",\"occurred\":" << agg.occurred
        << ",\"expired\":" << agg.expired
        << ",\"scan_selectivity\":" << Fmt3(selectivity)
        << ",\"engine_calls\":" << engine_calls << ",\"stages\":{";
    bool first = true;
    for (const auto& [name, hist] : snap.histograms) {
      const HistogramSnapshot* prev = last_snap_.FindHistogram(name);
      const HistogramSnapshot delta =
          prev != nullptr ? hist.DeltaSince(*prev) : hist;
      if (delta.count == 0) continue;
      if (!first) out << ",";
      first = false;
      out << "\"" << ShortStageName(name) << "\":{\"count\":" << delta.count
          << ",\"p50_us\":" << Fmt3(delta.Quantile(0.50) / 1000.0)
          << ",\"p99_us\":" << Fmt3(delta.Quantile(0.99) / 1000.0) << "}";
    }
    out << "}}\n";
  } else {
    out << "[stats] events=" << events_total
        << " ev_per_s=" << Fmt1(events_per_sec) << " live=" << live_edges
        << " occurred=" << agg.occurred << " expired=" << agg.expired
        << " scan_sel=" << Fmt3(selectivity)
        << " engine_calls=" << engine_calls;
    for (const auto& [name, hist] : snap.histograms) {
      const HistogramSnapshot* prev = last_snap_.FindHistogram(name);
      const HistogramSnapshot delta =
          prev != nullptr ? hist.DeltaSince(*prev) : hist;
      if (delta.count == 0) continue;
      const std::string stage = ShortStageName(name);
      out << " " << stage << "_p50_us=" << Fmt3(delta.Quantile(0.50) / 1000.0)
          << " " << stage << "_p99_us=" << Fmt3(delta.Quantile(0.99) / 1000.0);
    }
    out << "\n";
  }
  out.flush();

  last_ms_ = now_ms;
  last_events_ = events_total;
  last_agg_ = agg;
  last_snap_ = std::move(snap);
}

}  // namespace tcsm
