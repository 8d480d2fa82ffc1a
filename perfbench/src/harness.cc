#include "harness.h"

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {
constexpr size_t kDenseBytes = sizeof(uint32_t) * kDenseLimitNs;
}  // namespace

DenseCounts::DenseCounts(const DenseCounts& other) {
  if (!other.empty()) Add(other);
}

DenseCounts::DenseCounts(DenseCounts&& other) noexcept
    : counts_(other.counts_) {
  other.counts_ = nullptr;
}

DenseCounts& DenseCounts::operator=(DenseCounts other) noexcept {
  std::swap(counts_, other.counts_);
  return *this;
}

DenseCounts::~DenseCounts() {
  if (counts_ != nullptr) ::munmap(counts_, kDenseBytes);
}

void DenseCounts::Allocate() {
  if (counts_ != nullptr) return;
  void* mapped = ::mmap(nullptr, kDenseBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    std::cerr << "perfbench: cannot map a latency record\n";
    std::exit(2);
  }
  counts_ = static_cast<uint32_t*>(mapped);
}

void DenseCounts::Add(const DenseCounts& other) {
  Allocate();
  // Reading an untouched page maps the shared zero page, which is not
  // resident memory of this process; only non-zero counts are written.
  for (size_t i = 0; i < static_cast<size_t>(kDenseLimitNs); ++i)
    if (other.counts_[i] != 0) counts_[i] += other.counts_[i];
}

void Latencies::Reserve() { dense_.Allocate(); }

void Latencies::Add(int64_t ns) {
  if (ns < 0) ns = 0;
  if (ns < kDenseLimitNs) {
    Reserve();
    ++dense_[static_cast<size_t>(ns)];
  } else {
    sparse_.push_back(ns);
  }
  ++count_;
  sum_ns_ += static_cast<double>(ns);
}

void Latencies::Merge(const Latencies& other) {
  if (!other.dense_.empty()) dense_.Add(other.dense_);
  sparse_.insert(sparse_.end(), other.sparse_.begin(), other.sparse_.end());
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Latencies::MeanUs() const {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_) / 1e3;
}

double Latencies::PercentileUs(double p) const {
  if (count_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t i = 0; !dense_.empty() && i < static_cast<size_t>(kDenseLimitNs);
       ++i) {
    seen += dense_[i];
    if (seen >= rank) return static_cast<double>(i) / 1e3;
  }
  std::vector<int64_t> sorted = sparse_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[rank - seen - 1]) / 1e3;
}

double Latencies::TailPercentile() const {
  double best = 0.0;
  for (double p : {99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(count_) * (1.0 - p / 100.0);
    if (beyond >= 10.0) best = p;
  }
  return best;
}

WindowedLatencies::WindowedLatencies(double seconds, double window_seconds)
    : window_ns_(std::max<int64_t>(1, static_cast<int64_t>(window_seconds *
                                                           1e9))),
      windows_(static_cast<size_t>(
          std::max(1.0, std::ceil(seconds / window_seconds - 1e-9)))) {}

void WindowedLatencies::Reserve() {
  for (Latencies& window : windows_) window.Reserve();
}

void WindowedLatencies::Add(int64_t offset_ns, int64_t ns) {
  const size_t index = std::min(
      windows_.size() - 1,
      static_cast<size_t>(std::max<int64_t>(0, offset_ns) / window_ns_));
  windows_[index].Add(ns);
}

void WindowedLatencies::Merge(const WindowedLatencies& other) {
  for (size_t i = 0; i < windows_.size() && i < other.windows_.size(); ++i)
    windows_[i].Merge(other.windows_[i]);
}

void WindowedLatencies::Append(const WindowedLatencies& other) {
  windows_.insert(windows_.end(), other.windows_.begin(),
                  other.windows_.end());
}

double WindowedLatencies::MedianPercentileUs(double p) const {
  std::vector<double> values;
  for (const Latencies& window : windows_) {
    const double beyond =
        static_cast<double>(window.count()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) values.push_back(window.PercentileUs(p));
  }
  return Median(values);
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kGeneratorWait: return "harness.generator_wait";
    case SpanName::kEstimate: return "serving.Estimate";
    case SpanName::kPlanQuery: return "planner.PlanQuery";
    case SpanName::kEstimateMany: return "planner.EstimateMany";
    case SpanName::kRunOnce: return "serving.RunOnce";
    case SpanName::kStoreOpen: return "store.Open";
    case SpanName::kAttach: return "store.AttachReplica";
    case SpanName::kFirstEstimate: return "store.first_estimate";
    case SpanName::kReplayFingerprint: return "replay.ComputeFingerprint";
    case SpanName::kReplayCacheLookup: return "replay.QueryCache.Lookup";
    case SpanName::kReplayEncode: return "replay.EncodeBatchSparse";
    case SpanName::kReplayCoreB1: return "replay.EstimateCardinalityBatch.b1";
    case SpanName::kReplayCoreB64:
      return "replay.EstimateCardinalityBatch.b64";
    case SpanName::kReplayAdaptive:
      return "replay.AdaptiveLmkg.EstimateCardinality";
    case SpanName::kCount: break;
  }
  return "?";
}

TraceBuffer::TraceBuffer(uint16_t thread, size_t max_stored)
    : thread_(thread), max_stored_(max_stored) {
  spans_.reserve(max_stored_);
  frames_.reserve(16);
}

void TraceBuffer::Begin(SpanName name, uint64_t request, int64_t start_ns) {
  int32_t stored = -1;
  if (spans_.size() < max_stored_) {
    stored = static_cast<int32_t>(spans_.size());
    Span span;
    span.start_ns = start_ns;
    span.request = request;
    span.parent = frames_.empty() ? -1 : frames_.back().stored;
    span.name = name;
    spans_.push_back(span);
  }
  frames_.push_back(Frame{name, start_ns, 0.0, stored});
}

void TraceBuffer::End(int64_t end_ns) {
  const Frame frame = frames_.back();
  frames_.pop_back();
  const double duration = static_cast<double>(end_ns - frame.start_ns);
  SpanTotals& totals = totals_[static_cast<size_t>(frame.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!frames_.empty()) frames_.back().child_ns += duration;
  if (frame.stored >= 0) spans_[static_cast<size_t>(frame.stored)].end_ns =
      end_ns;
}

TraceBuffer* Tracer::NewBuffer() {
  lmkg::util::MutexLock lock(&mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>(
      static_cast<uint16_t>(buffers_.size()), max_stored_));
  return buffers_.back().get();
}

std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)>
Tracer::Totals() const {
  lmkg::util::MutexLock lock(&mu_);
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> sum{};
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i].count += buffer->totals()[i].count;
      sum[i].total_ns += buffer->totals()[i].total_ns;
      sum[i].self_ns += buffer->totals()[i].self_ns;
    }
  }
  return sum;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  lmkg::util::MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    for (const TraceBuffer::Span& span : buffer->spans_) {
      out << "{\"name\": \"" << SpanNameString(span.name)
          << "\", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns
          << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request
          << ", \"thread\": " << buffer->thread_ << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Metric& metric : metrics_)
    if (metric.name == name) return metric.value;
  return 0.0;
}

PhaseCount& RunOutput::Phase(const std::string& name) {
  for (PhaseCount& phase : phases)
    if (phase.phase == name) return phase;
  phases.push_back(PhaseCount{name, 0, 0});
  return phases.back();
}

double Params::Num(const std::string& name) const {
  if (!flags_.Has(name)) {
    std::cerr << "perfbench: missing parameter --" << name << "\n";
    std::exit(2);
  }
  return flags_.GetDouble(name, 0.0);
}

std::vector<double> Params::List(const std::string& name) const {
  if (!flags_.Has(name)) {
    std::cerr << "perfbench: missing parameter --" << name << "\n";
    std::exit(2);
  }
  std::vector<double> values;
  std::stringstream in(flags_.GetString(name, ""));
  std::string item;
  while (std::getline(in, item, ',')) values.push_back(std::stod(item));
  return values;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    double kb = 0.0;
    std::istringstream fields(line.substr(6));
    fields >> kb;
    return kb / 1024.0;
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void UseTightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntilNs(int64_t deadline_ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux, so an absolute monotonic
  // deadline is the same instant.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
