// Measurement plumbing shared by every workload: exact latency records,
// the in-memory span tracer, the metric report, and process counters.
#ifndef LMKG_PERFBENCH_HARNESS_H_
#define LMKG_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The protocol's fixed settings, the same for every workload.

/// Bounded figures are interquartile means over this many segments of a
/// phase, each run with fresh threads. On a shared machine a microsecond
/// figure moves by tens of percent from one second to the next and with
/// where a set of threads lands, so segment figures fall into a fast and
/// a slow group. The median of a few segments jumps between the groups;
/// the interquartile mean of many tracks the mix.
constexpr size_t kSegments = 20;
/// Open-loop tails are medians over windows this long: long enough for
/// well over 10 samples beyond p99 at the rates the open loops offer, short
/// enough that a machine stall lands in one window only.
constexpr double kWindowSeconds = 0.5;
/// Open loops warm up this long before anything is recorded: enough for
/// scratch buffers, caches and the shard threads to settle.
constexpr double kWarmupSeconds = 0.3;
/// Every kCheckEvery-th served estimate or plan is kept for the
/// correctness checks: thousands per run, without the check dominating
/// the run's memory or time.
constexpr size_t kCheckEvery = 64;
/// Each layer replay repeats for at least this long: hundreds of passes
/// over the replayed calls, so a replayed mean is steady to a few percent.
constexpr double kReplaySeconds = 0.1;
/// The reconciliation's tolerance: the replayed layer costs must explain
/// the untraced end-to-end mean to within this share of it.
constexpr double kReconcileTolerance = 0.2;
/// Raw spans stored per tracing thread (totals count every span): enough
/// for a complete record of the first second or so of traffic.
constexpr size_t kTraceSpansPerThread = 100000;

/// Latencies from 0 up to this are counted at 1 ns resolution.
constexpr int64_t kDenseLimitNs = int64_t{1} << 16;  // 65.5 us

/// A count per nanosecond below kDenseLimitNs, in an anonymous private
/// mapping. The kernel backs a page only once a count lands on it, so a
/// record of microsecond latencies costs the process a few pages, not
/// 256 KiB, and peak_rss_mb measures the library rather than the
/// benchmark's records. Copies copy only the non-zero counts.
class DenseCounts {
 public:
  DenseCounts() = default;
  DenseCounts(const DenseCounts& other);
  DenseCounts(DenseCounts&& other) noexcept;
  DenseCounts& operator=(DenseCounts other) noexcept;
  ~DenseCounts();

  bool empty() const { return counts_ == nullptr; }
  /// Maps the counters (a no-op when mapped).
  void Allocate();
  uint32_t& operator[](size_t i) { return counts_[i]; }
  uint32_t operator[](size_t i) const { return counts_[i]; }
  /// Adds `other`'s counts to this one's (mapping this one if needed).
  void Add(const DenseCounts& other);

 private:
  uint32_t* counts_ = nullptr;
};

/// Every per-operation timing of one phase, kept exactly: timings below
/// kDenseLimitNs are counted at 1 ns resolution (the clock's own), the
/// rest are kept raw. Percentiles are nearest-rank over the exact
/// values — never read off coarse histogram buckets. Not thread-safe:
/// one per thread, merged after the threads join.
class Latencies {
 public:
  /// Maps the dense counters up front so the timed loop never does.
  void Reserve();
  void Add(int64_t ns);
  void Merge(const Latencies& other);

  uint64_t count() const { return count_; }
  double MeanUs() const;
  /// Nearest-rank percentile p in (0, 100], microseconds.
  double PercentileUs(double p) const;
  /// The highest of p99 / p99.9 / p99.99 with at least 10 samples beyond
  /// it (0 when even p99 has fewer).
  double TailPercentile() const;

 private:
  DenseCounts dense_;
  std::vector<int64_t> sparse_;
  uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// The same operations split into consecutive time windows of a run.
/// The median over windows of each window's exact percentile is the
/// run's steady tail figure: a multi-millisecond stall of the machine
/// (this benchmark runs on shared virtual machines) lands in one window
/// and moves that window's p99, not the median of them.
class WindowedLatencies {
 public:
  WindowedLatencies(double seconds, double window_seconds);

  void Reserve();
  /// `offset_ns`: when the operation started (or was due), relative to
  /// the start of the run.
  void Add(int64_t offset_ns, int64_t ns);
  void Merge(const WindowedLatencies& other);
  /// Appends `other`'s windows after this one's (a later phase).
  void Append(const WindowedLatencies& other);

  /// Median over the windows holding at least 10 samples beyond
  /// percentile p of that window's percentile p, microseconds.
  double MedianPercentileUs(double p) const;
  size_t windows() const { return windows_.size(); }

 private:
  int64_t window_ns_;
  std::vector<Latencies> windows_;
};

/// Names of the spans the benchmark records around each layer's public
/// calls (and around the replayed layer calls).
enum class SpanName : uint16_t {
  kRequest,            // one request, from its scheduled arrival
  kGeneratorWait,      // scheduled arrival -> the client issues it
  kEstimate,           // EstimatorService::Estimate
  kPlanQuery,          // JoinPlanner::PlanQuery
  kEstimateMany,       // CardinalitySource::EstimateMany (pricing)
  kRunOnce,            // ModelLifecycle::RunOnce
  kStoreOpen,          // ModelStore::Open
  kAttach,             // StoreCache + AttachReplica
  kFirstEstimate,      // first estimate after attach
  kReplayFingerprint,  // replayed query::ComputeFingerprint
  kReplayCacheLookup,  // replayed QueryCache::Lookup
  kReplayEncode,       // replayed QueryEncoder::EncodeBatchSparse
  kReplayCoreB1,       // replayed LmkgS::EstimateCardinalityBatch, B = 1
  kReplayCoreB64,      // replayed LmkgS::EstimateCardinalityBatch, B = 64
  kReplayAdaptive,     // replayed AdaptiveLmkg::EstimateCardinality
  kCount,
};
const char* SpanNameString(SpanName name);

/// Per-name totals over every span a tracer saw (not only the stored
/// ones).
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  // duration minus the time child spans cover
};

/// One thread's span recorder. Spans nest strictly within a thread, so a
/// span's children are the spans begun and ended while it is open, and
/// its self time is its duration minus theirs. Totals are accumulated
/// for every span; the raw spans (name, start, end, parent, request) are
/// stored up to a cap and written out when the benchmark ends.
class TraceBuffer {
 public:
  TraceBuffer(uint16_t thread, size_t max_stored);

  void Begin(SpanName name, uint64_t request) {
    Begin(name, request, NowNs());
  }
  void Begin(SpanName name, uint64_t request, int64_t start_ns);
  void End() { End(NowNs()); }
  void End(int64_t end_ns);

  const std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)>&
  totals() const {
    return totals_;
  }

 private:
  friend class Tracer;
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t request = 0;
    int32_t parent = -1;
    SpanName name = SpanName::kRequest;
  };
  struct Frame {
    SpanName name;
    int64_t start_ns;
    double child_ns;
    int32_t stored;
  };

  const uint16_t thread_;
  const size_t max_stored_;
  std::vector<Span> spans_;
  std::vector<Frame> frames_;
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> totals_{};
};

/// Hands out one TraceBuffer per recording thread and merges them. A
/// null Tracer* everywhere means "untraced": no span is recorded.
class Tracer {
 public:
  explicit Tracer(size_t max_stored_per_thread)
      : max_stored_(max_stored_per_thread) {}

  /// A fresh buffer owned by the tracer, for the calling thread's use
  /// only; valid for the tracer's lifetime.
  TraceBuffer* NewBuffer();

  /// Totals summed over every buffer. Call after recording threads join.
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> Totals()
      const;

  /// Writes every stored span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const size_t max_stored_;
  mutable lmkg::util::Mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_ LMKG_GUARDED_BY(mu_);
};

/// RAII span on an optional buffer (null = untraced, records nothing).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, SpanName name, uint64_t request = 0)
      : buffer_(buffer) {
    if (buffer_ != nullptr) buffer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
};

/// Metrics by name, in insertion order, each with its unit; plus free
/// text notes. main() prints the notes as "# " lines and the metrics
/// it was asked for as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  void Note(const std::string& text) { notes_.push_back(text); }

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Operations attempted and failed in one named workload phase. A failed
/// operation is a non-OK Status, a non-finite estimate, a result that
/// disagrees with the reference, or a timeout.
struct PhaseCount {
  std::string phase;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What one workload run produced. Phases live in a deque so a
/// reference to one stays valid while others are added.
struct RunOutput {
  Report report;
  std::deque<PhaseCount> phases;

  PhaseCount& Phase(const std::string& name);
};

/// Command-line parameters: the four every workload takes, plus the
/// workload's generator, load and service parameters, which run.py passes
/// from workloads.json.
struct Params {
  explicit Params(const lmkg::util::Flags& flags) : flags_(flags) {}

  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;

  /// A required numeric parameter; exits with a message when absent.
  double Num(const std::string& name) const;
  size_t Count(const std::string& name) const {
    return static_cast<size_t>(Num(name));
  }
  /// A required comma-separated list of numbers.
  std::vector<double> List(const std::string& name) const;

 private:
  const lmkg::util::Flags& flags_;
};

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();
/// User + system CPU time consumed by this process so far, seconds.
double ProcessCpuSeconds();
/// Lowers this thread's timer slack to 1 ns so a sleep ends at its
/// deadline instead of up to 50 us after it.
void UseTightTimerSlack();
/// Sleeps until `deadline_ns` (steady clock) without spinning.
void SleepUntilNs(int64_t deadline_ns);

/// Median of the values (0 when empty).
double Median(std::vector<double> values);
/// Mean of the middle half of the values (0 when empty).
double InterquartileMean(std::vector<double> values);

}  // namespace perfbench

#endif  // LMKG_PERFBENCH_HARNESS_H_
