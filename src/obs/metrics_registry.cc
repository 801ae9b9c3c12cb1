#include "obs/metrics_registry.h"

#include <sstream>

namespace nbcp {

WindowedSeries& MetricsRegistry::SeriesSlot(const std::string& name,
                                            SeriesConfig config) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    // try_emplace constructs in place: WindowedSeries owns a Mutex and is
    // neither movable nor copyable.
    it = series_.try_emplace(name, config).first;
  }
  return it->second;
}

WindowedSeries& MetricsRegistry::series(const std::string& name,
                                        SeriesConfig config) {
  MutexLock lock(&mu_);
  return SeriesSlot(name, config);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  MutexLock lock(&mu_);
  MutexLock other_lock(&other.mu_);
  for (const auto& [name, counter] : other.counters_) {
    counters_[name].Inc(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    gauges_[name].Set(gauge.value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].Merge(histogram);
  }
  for (const auto& [name, s] : other.series_) {
    // WindowedSeries::Merge locks both series internally; neither side's
    // registry lock is involved, so the order registry -> series is acyclic.
    SeriesSlot(name, s.config()).Merge(s);
  }
}

Json MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  Json j = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter.value();
  }
  Json gauges = Json::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = gauge.value();
  }
  Json histograms = Json::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms[name] = histogram.ToJson();
  }
  j["counters"] = std::move(counters);
  j["gauges"] = std::move(gauges);
  j["histograms"] = std::move(histograms);
  if (!series_.empty()) {
    Json series = Json::Object();
    for (const auto& [name, s] : series_) {
      series[name] = s.ToJson();
    }
    j["series"] = std::move(series);
  }
  return j;
}

std::string MetricsRegistry::ToString() const {
  MutexLock lock(&mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " = " << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " = " << gauge.value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << ": " << histogram.ToString() << "\n";
  }
  for (const auto& [name, s] : series_) {
    out << name << " (series, " << s.total_count() << " samples):\n"
        << s.ToString();
  }
  return out.str();
}

}  // namespace nbcp
