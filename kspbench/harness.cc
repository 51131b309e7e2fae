#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <tuple>

#include "datagen/query_gen.h"

namespace kspbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"cpu_ms_per_query", "ms"},
    {"peak_rss_mb", "MiB"},
    // Table only: wall-clock figures follow the phases of a shared host
    // (serve_zipf's qps spread 0.50 over ten seeds on a 4-vCPU VM, wider
    // than any bound a gate may use); the open-loop latencies exist on
    // serve_zipf only, and queueing at a fixed rate widens them further.
    {"qps", "1/s", false},
    {"p50_ms", "ms", false},
    {"p99_ms", "ms", false},
    {"open_p50_ms", "ms", false},
    {"open_p99_ms", "ms", false},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"core.exec_ms", "ms"},
    {"core.other_us", "us"},
    {"core.tqsp_compute_us", "us"},
    {"core.bfs_expand_us", "us"},
    {"core.tqsp_computations", "count"},
    {"core.vertices_visited", "count"},
    {"core.tqsp_useful_ratio", "ratio"},
    {"core.pruned_rule1", "count"},
    {"core.pruned_rule2", "count"},
    {"core.pruned_rule3", "count"},
    {"core.pruned_rule4", "count"},
    {"reach.rule1_prune_us", "us"},
    {"reach.queries", "count"},
    {"spatial.rtree_nn_us", "us"},
    {"spatial.nodes_accessed", "count"},
    {"text.doc_fetch_us", "us"},
    {"storage.pool_hits", "count"},
    {"storage.pool_misses", "count"},
    {"storage.pool_evictions", "count"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.page_io_us", "us"},
    {"cache.dg_hit_rate", "ratio"},
    {"cache.result_hit_rate", "ratio"},
    {"cache.evictions", "count"},
    {"cache.bytes", "bytes"},
    {"cache.lookup_us", "us"},
    {"shard.exec_ms", "ms"},
    {"shard.self_us", "us"},
    {"shard.dispatch_us", "us"},
    {"shard.visited", "count"},
    {"shard.pruned", "count"},
    {"shard.prune_rate", "ratio"},
    {"service.call_ms", "ms"},
    {"service.server_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.queue_depth", "count"},
    {"service.rejections", "count"},
    {"service.swap_ms", "ms"},
    {"setup.rtree_s", "s"},
    {"setup.reach_s", "s"},
    {"setup.alpha_s", "s"},
    {"setup.spill_s", "s"},
    {"setup.shard_build_s", "s"},
    {"setup.load_s", "s"},
    {"bench.gen_lag_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.layer_sum_frac", "ratio"},
};

std::vector<PoolQuery> MakeQueryPool(const ksp::KnowledgeBase& kb,
                                     uint64_t seed, size_t count) {
  static constexpr uint32_t kSizes[] = {1, 3, 5, 8, 10};
  constexpr size_t kNumSizes = sizeof(kSizes) / sizeof(kSizes[0]);
  const size_t per_size = (count + kNumSizes - 1) / kNumSizes;
  // One generator stream per |ψ|, all derived from the run seed. The
  // streams are independent, so they are generated side by side.
  std::vector<std::vector<ksp::KspQuery>> streams(kNumSizes);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kNumSizes; ++s) {
    threads.emplace_back([&, s] {
      ksp::QueryGenOptions options;
      options.num_keywords = kSizes[s];
      options.k = 5;
      options.seed = seed * 1000003ULL + kSizes[s];
      streams[s] = ksp::GenerateQueries(kb, ksp::QueryClass::kOriginal,
                                        options, per_size);
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<PoolQuery> pool;
  std::set<std::tuple<double, double, std::vector<ksp::TermId>>> seen;
  for (size_t i = 0; i < per_size * kNumSizes && pool.size() < count; ++i) {
    const std::vector<ksp::KspQuery>& stream = streams[i % kNumSizes];
    if (i / kNumSizes >= stream.size()) continue;
    const ksp::KspQuery& query = stream[i / kNumSizes];
    if (!seen.emplace(query.location.x, query.location.y, query.keywords)
             .second) {
      continue;
    }
    PoolQuery entry;
    entry.query = query;
    entry.algorithm =
        i % 2 == 0 ? ksp::KspAlgorithm::kSp : ksp::KspAlgorithm::kSpp;
    for (ksp::TermId t : query.keywords) {
      entry.keywords.push_back(kb.vocabulary().Term(t));
    }
    pool.push_back(std::move(entry));
  }
  return pool;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // The epsilon keeps q * n = 990 from rounding up to rank 991.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

namespace {
bool Near(double a, double b) {
  return a == b || std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a),
                                                        std::fabs(b));
}
}  // namespace

bool SameResult(const ksp::KspResult& got, const ksp::KspResult& want) {
  if (got.entries.size() != want.entries.size()) return false;
  for (size_t i = 0; i < got.entries.size(); ++i) {
    const ksp::KspResultEntry& a = got.entries[i];
    const ksp::KspResultEntry& b = want.entries[i];
    if (a.place != b.place || a.looseness != b.looseness ||
        !Near(a.score, b.score) ||
        !Near(a.spatial_distance, b.spatial_distance)) {
      return false;
    }
  }
  return true;
}

bool SameWireResult(const std::vector<ksp::WireResultEntry>& got,
                    const ksp::KspResult& want) {
  if (got.size() != want.entries.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const ksp::KspResultEntry& b = want.entries[i];
    if (got[i].place != b.place || got[i].looseness != b.looseness ||
        !Near(got[i].score, b.score) ||
        !Near(got[i].spatial_distance, b.spatial_distance)) {
      return false;
    }
  }
  return true;
}

bool SameWorkCounters(const ksp::QueryStats& got,
                      const ksp::QueryStats& want) {
  return got.tqsp_computations == want.tqsp_computations &&
         got.vertices_visited == want.vertices_visited &&
         got.rtree_nodes_accessed == want.rtree_nodes_accessed;
}

void LoadPhase::Merge(const LoadPhase& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  wall_s = std::max(wall_s, other.wall_s);
  lag_ms_sum += other.lag_ms_sum;
  lag_samples += other.lag_samples;
}

int64_t SpanLog::Add(const char* layer, uint64_t request,
                     Clock::time_point start, double duration_us,
                     int64_t parent) {
  spans_.push_back(Span{
      layer, request,
      std::chrono::duration<double, std::micro>(start - epoch_).count(),
      duration_us, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanLog::Add(const char* layer, uint64_t request,
                     Clock::time_point start, Clock::time_point end,
                     int64_t parent) {
  return Add(layer, request, start,
             std::chrono::duration<double, std::micro>(end - start).count(),
             parent);
}

void SpanLog::Append(const SpanLog& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  const double shift_us =
      std::chrono::duration<double, std::micro>(other.epoch_ - epoch_)
          .count();
  for (Span span : other.spans_) {
    span.start_us += shift_us;
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_us;
    if (spans_[i].parent >= 0) self[spans_[i].parent] -= spans_[i].duration_us;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self[i];
  }
  return by_layer;
}

std::map<std::string, double> SpanLog::TotalTimeUs() const {
  std::map<std::string, double> by_layer;
  for (const Span& span : spans_) by_layer[span.layer] += span.duration_us;
  return by_layer;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"layer\": \"%s\", \"request\": %llu, "
                 "\"start_us\": %.3f, \"duration_us\": %.3f, "
                 "\"parent\": %lld}",
                 i == 0 ? "" : ",", s.layer,
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.duration_us, static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n], \"self_us\": {");
  bool first = true;
  for (const auto& [layer, us] : SelfTimeUs()) {
    std::fprintf(f, "%s\"%s\": %.3f", first ? "" : ", ", layer.c_str(), us);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double ThreadCpuSeconds() {
  timespec ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace kspbench
