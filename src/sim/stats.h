// Lightweight statistics: named counters and HDR-style histograms with
// bounded relative error, registered in a per-simulation registry.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace casc {

// Log2-major / linear-minor bucketed histogram of non-negative 64-bit values.
// With 16 sub-buckets per octave the worst-case relative quantile error is
// ~6%; values below 16 are exact.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 4;  // 16 sub-buckets per power of two
  static constexpr uint32_t kSub = 1u << kSubBits;
  static constexpr uint32_t kBuckets = (64 - kSubBits) * kSub + kSub;

  void Record(uint64_t value, uint64_t weight = 1);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  double stddev() const;

  // Quantile in [0, 1]; returns a representative value for the containing bucket.
  uint64_t Quantile(double q) const;
  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P90() const { return Quantile(0.90); }
  uint64_t P99() const { return Quantile(0.99); }
  uint64_t P999() const { return Quantile(0.999); }

  // Non-empty buckets as (lower_bound, count), ascending — the raw data an
  // exported histogram can be rebuilt from.
  std::vector<std::pair<uint64_t, uint64_t>> NonEmptyBuckets() const;

 private:
  static uint32_t BucketIndex(uint64_t value);
  static uint64_t BucketMidpoint(uint32_t index);
  static uint64_t BucketLowerBound(uint32_t index);

  std::vector<uint64_t> buckets_;  // lazily sized
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  double sum_sq_ = 0.0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// A simulation-scoped registry of named counters and histograms. Components
// obtain references once at construction; lookups are by full dotted name.
//
// Hot paths hold `CounterHandle`/`HistHandle` members interned once at
// construction via Intern()/InternHist() — after that no string lookup ever
// runs per event. Handles (like the raw references) stay valid for the
// registry's lifetime because the backing std::map nodes never move; Reset()
// invalidates nothing (it clears values in place — see Reset()). Interning
// the same name twice yields the same cell, so per-shard component replicas
// (e.g. one MonitorFilter per shard) share one counter.
class StatsRegistry {
 public:
  // An interned counter: a stable pointer into the registry with counter
  // ergonomics (`h++`, `h += n`).
  class CounterHandle {
   public:
    CounterHandle() = default;
    uint64_t operator++(int) { return (*value_)++; }
    CounterHandle& operator++() {
      ++*value_;
      return *this;
    }
    CounterHandle& operator+=(uint64_t delta) {
      *value_ += delta;
      return *this;
    }
    uint64_t get() const { return *value_; }
    bool valid() const { return value_ != nullptr; }

   private:
    friend class StatsRegistry;
    explicit CounterHandle(uint64_t* value) : value_(value) {}
    uint64_t* value_ = nullptr;
  };

  // An interned histogram.
  class HistHandle {
   public:
    HistHandle() = default;
    void Record(uint64_t value, uint64_t weight = 1) { hist_->Record(value, weight); }
    const Histogram& hist() const { return *hist_; }
    bool valid() const { return hist_ != nullptr; }

   private:
    friend class StatsRegistry;
    explicit HistHandle(Histogram* hist) : hist_(hist) {}
    Histogram* hist_ = nullptr;
  };

  uint64_t& Counter(const std::string& name) { return counters_[name]; }
  Histogram& Hist(const std::string& name) { return hists_[name]; }

  CounterHandle Intern(const std::string& name) { return CounterHandle(&counters_[name]); }
  HistHandle InternHist(const std::string& name) { return HistHandle(&hists_[name]); }

  uint64_t GetCounter(const std::string& name) const;
  const Histogram* GetHist(const std::string& name) const;

  void Dump(std::ostream& os) const;

  // Machine-readable export: every counter and full histogram (count, mean,
  // stddev, min, max, p50/p90/p99/p999, and raw buckets) as one JSON object
  // with deterministic (sorted) key order.
  void DumpJson(std::ostream& os) const;

  void Reset();

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace casc

#endif  // SRC_SIM_STATS_H_
