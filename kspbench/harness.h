// Shared pieces of the kspbench harness: run settings, the seeded query
// pool, the one percentile definition every workload uses, answer
// comparison, load-phase samples, bench-level spans and the metric tables.
#ifndef KSPBENCH_HARNESS_H_
#define KSPBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/semantic_place.h"
#include "core/stats.h"
#include "rdf/knowledge_base.h"
#include "service/protocol.h"

namespace kspbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

inline Clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The benchmark's dataset: the dbpedia-like KB at a quarter of its
/// scale-1 size (10,000 vertices, 88,889 edges, 1,127 places). Set-up
/// and reference answers then take a few seconds, so a run's time goes to
/// measuring.
inline constexpr double kDefaultScale = 0.25;

/// Settings of one run (flags in main.cc).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset size multiplier: 1.0 is the 40,000-vertex dbpedia-like KB.
  double scale = kDefaultScale;
  /// Work directory inside the checkout; holds the KB snapshot.
  std::string work_dir;
  /// Per-run scratch under work_dir (spill files), removed when the run
  /// ends.
  std::string scratch_dir;
  /// Git SHA (if any) and digest of the measured sources: printed in the
  /// fingerprint and keying the work directory's cached artifacts.
  std::string source_id;
  /// Perturbs one reference answer, so the correctness gate must fail.
  bool corrupt_reference = false;
};

/// Distinct queries generated per run. The work of a pool varies with its
/// seed through its heaviest queries: BFS pops per query spread 0.14 over
/// seeds 1-5 with 1,000 queries, and 0.04 over seeds 1-10 with 4,000.
inline constexpr size_t kPoolSize = 4000;

/// One query of the Figure-5 stream.
struct PoolQuery {
  ksp::KspQuery query;
  ksp::KspAlgorithm algorithm = ksp::KspAlgorithm::kSp;
  std::vector<std::string> keywords;  // wire form of query.keywords
};

/// Up to `count` distinct kOriginal queries generated from `seed`: |ψ|
/// cycles 1/3/5/8/10, k = 5, and SP/SPP alternate, so every ten
/// consecutive slots hold each (|ψ|, algorithm) pair once.
std::vector<PoolQuery> MakeQueryPool(const ksp::KnowledgeBase& kb,
                                     uint64_t seed, size_t count);

/// Nearest-rank percentile: the smallest sample whose cumulative share is
/// at least q (0 for no samples).
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Comparison of two top-k answers: place and looseness of every entry
/// exactly, score and spatial distance to 1e-9 relative, in order.
bool SameResult(const ksp::KspResult& got, const ksp::KspResult& want);
bool SameWireResult(const std::vector<ksp::WireResultEntry>& got,
                    const ksp::KspResult& want);
/// The committed work counters that are backend-invariant.
bool SameWorkCounters(const ksp::QueryStats& got,
                      const ksp::QueryStats& want);

/// A failed request is kept in the samples with at least this latency, so
/// it counts as missing any latency limit instead of dropping out.
inline constexpr double kLatencyLimitMs = 1000.0;

/// Samples and outcome counts of one load phase.
struct LoadPhase {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  /// CPU seconds the system under test spent in the phase, all its
  /// threads together. On a host shared with other tenants it varies far
  /// less than wall time, which also counts the time a thread waits to be
  /// woken or scheduled.
  double cpu_s = 0.0;
  /// Open loop: lateness of sends whose caller was idle at the due time,
  /// i.e. the generator's own timer error.
  double lag_ms_sum = 0.0;
  uint64_t lag_samples = 0;

  void Record(double ms, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (ms < kLatencyLimitMs) ms = kLatencyLimitMs;
    }
    latency_ms.push_back(ms);
  }
  void RecordLag(double ms) {
    lag_ms_sum += ms;
    ++lag_samples;
  }
  /// Folds another caller's samples of the same phase into this one.
  void Merge(const LoadPhase& other);
  double Qps() const {
    return wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s
                      : 0.0;
  }
  double CpuMsPerQuery() const {
    return attempted > failed
               ? cpu_s * 1e3 / static_cast<double>(attempted - failed)
               : 0.0;
  }
  double MeanLagMs() const {
    return lag_samples == 0 ? 0.0
                            : lag_ms_sum / static_cast<double>(lag_samples);
  }
};

/// Spans the benchmark records around its calls into each layer. Kept in
/// memory and written as JSON when the run ends. A span may name a
/// parent; a layer's self time is its spans' duration minus the duration
/// of their children.
class SpanLog {
 public:
  /// Records one span; returns its id for use as a child's parent.
  int64_t Add(const char* layer, uint64_t request, Clock::time_point start,
              double duration_us, int64_t parent = -1);
  int64_t Add(const char* layer, uint64_t request, Clock::time_point start,
              Clock::time_point end, int64_t parent = -1);
  /// Appends another log's spans (parents re-based, starts re-timed).
  void Append(const SpanLog& other);

  /// Summed self time per layer, in microseconds.
  std::map<std::string, double> SelfTimeUs() const;
  /// Summed duration per layer, in microseconds.
  std::map<std::string, double> TotalTimeUs() const;

  bool WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* layer;
    uint64_t request;
    double start_us;
    double duration_us;
    int64_t parent;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// What a workload hands back to main: metric values by name (units come
/// from the tables below), operation counts, and fingerprint fields.
struct WorkloadResult {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> fingerprint;
};

struct MetricDef {
  const char* name;
  const char* unit;
  /// In the result object's "metrics" (and so in BENCHMARK.json). The
  /// others are printed in the table only: they do not apply to every
  /// workload, or their run-to-run spread is too wide to gate on.
  bool in_result = true;
};
/// Printed by the untraced run, in this order.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Printed by the traced run; a metric a workload does not touch is 0.
extern const std::vector<MetricDef> kPerLayerMetrics;

/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// CPU time (user and system) of this process, and of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

WorkloadResult RunMemMix(const Args& args, const ksp::KnowledgeBase& kb,
                         const std::vector<PoolQuery>& pool);
WorkloadResult RunDiskSmallPool(const Args& args,
                                const ksp::KnowledgeBase& kb,
                                const std::vector<PoolQuery>& pool);
WorkloadResult RunShardK4(const Args& args, const ksp::KnowledgeBase& kb,
                          const std::vector<PoolQuery>& pool);
WorkloadResult RunServeZipf(const Args& args, const ksp::KnowledgeBase& kb,
                            const std::vector<PoolQuery>& pool);

}  // namespace kspbench

#endif  // KSPBENCH_HARNESS_H_
