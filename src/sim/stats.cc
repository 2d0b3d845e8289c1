#include "src/sim/stats.h"

#include <bit>
#include <cmath>
#include <iomanip>

#include "src/sim/json.h"

namespace casc {

uint32_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSub) {
    return static_cast<uint32_t>(value);
  }
  const uint32_t msb = 63 - static_cast<uint32_t>(std::countl_zero(value));
  const uint32_t shift = msb - kSubBits;
  const uint32_t sub = static_cast<uint32_t>((value >> shift) & (kSub - 1));
  return (msb - kSubBits + 1) * kSub + sub;
}

uint64_t Histogram::BucketMidpoint(uint32_t index) {
  if (index < kSub) {
    return index;
  }
  const uint32_t octave = index / kSub - 1;
  const uint32_t sub = index % kSub;
  const uint64_t base = (static_cast<uint64_t>(kSub) + sub) << octave;
  const uint64_t width = 1ull << octave;
  return base + width / 2;
}

void Histogram::Record(uint64_t value, uint64_t weight) {
  const uint32_t idx = BucketIndex(value);
  if (buckets_.size() <= idx) {
    buckets_.resize(idx + 1, 0);
  }
  buckets_[idx] += weight;
  count_ += weight;
  sum_ += value * weight;
  sum_sq_ += static_cast<double>(value) * static_cast<double>(value) * weight;
  if (value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

void Histogram::Merge(const Histogram& other) {
  if (buckets_.size() < other.buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  if (other.count_ > 0) {
    if (other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }
}

void Histogram::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  sum_sq_ = 0.0;
  min_ = UINT64_MAX;
  max_ = 0;
}

double Histogram::stddev() const {
  if (count_ < 2) {
    return 0.0;
  }
  const double m = mean();
  const double var = sum_sq_ / count_ - m * m;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min();
  }
  if (q >= 1.0) {
    return max_;
  }
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen >= target) {
      uint64_t v = BucketMidpoint(i);
      if (v < min_) {
        v = min_;
      }
      if (v > max_) {
        v = max_;
      }
      return v;
    }
  }
  return max_;
}

uint64_t Histogram::BucketLowerBound(uint32_t index) {
  if (index < kSub) {
    return index;
  }
  const uint32_t octave = index / kSub - 1;
  const uint32_t sub = index % kSub;
  return (static_cast<uint64_t>(kSub) + sub) << octave;
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::NonEmptyBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint32_t i = 0; i < buckets_.size(); i++) {
    if (buckets_[i] != 0) {
      out.emplace_back(BucketLowerBound(i), buckets_[i]);
    }
  }
  return out;
}

uint64_t StatsRegistry::GetCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* StatsRegistry::GetHist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

void StatsRegistry::Dump(std::ostream& os) const {
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, hist] : hists_) {
    os << name << ": n=" << hist.count() << " mean=" << std::fixed << std::setprecision(1)
       << hist.mean() << " p50=" << hist.P50() << " p99=" << hist.P99() << " max=" << hist.max()
       << "\n";
  }
}

void StatsRegistry::DumpJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : counters_) {
    w.KeyValue(name, value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : hists_) {
    w.Key(name);
    w.BeginObject();
    w.KeyValue("count", hist.count());
    w.KeyValue("mean", hist.mean());
    w.KeyValue("stddev", hist.stddev());
    w.KeyValue("min", hist.min());
    w.KeyValue("max", hist.max());
    w.KeyValue("p50", hist.P50());
    w.KeyValue("p90", hist.P90());
    w.KeyValue("p99", hist.P99());
    w.KeyValue("p999", hist.P999());
    w.Key("buckets");
    w.BeginArray();
    for (const auto& [lo, n] : hist.NonEmptyBuckets()) {
      w.BeginArray();
      w.Value(lo);
      w.Value(n);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  os << "\n";
}

void StatsRegistry::Reset() {
  // Zero in place rather than clearing the maps: interned handles and
  // references point at the map nodes and must survive a reset.
  for (auto& [name, value] : counters_) {
    value = 0;
  }
  for (auto& [name, hist] : hists_) {
    hist.Reset();
  }
}

}  // namespace casc
