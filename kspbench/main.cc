// kspbench: runs one workload of the repository benchmark and prints its
// metrics. The last line of standard output is the JSON result object
// {"correct", "attempted", "failed", "metrics"}; a wrong answer or any
// failed operation makes "correct" false and the exit code 1.
//
//   kspbench --workload mem_mix|disk_smallpool|shard_k4|serve_zipf
//            --seed N --seconds S --trace 0|1 --work-dir DIR --source-id ID
//            [--scale X] [--corrupt-reference]
//
// --source-id names the engine and benchmark sources; it keys the
// reference answers cached in the work directory.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/logging.h"
#include "datagen/synthetic.h"
#include "harness.h"
#include "rdf/kb_io.h"

namespace {

using kspbench::Args;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         !args->source_id.empty() && args->seconds > 0 && args->scale > 0;
}

/// The dbpedia-like KB at `scale`. Generation is deterministic and does
/// not depend on the seed, so it is cached as a snapshot in the work
/// directory.
std::unique_ptr<ksp::KnowledgeBase> LoadKb(const Args& args) {
  const uint32_t vertices =
      std::max<uint32_t>(100, static_cast<uint32_t>(40000 * args.scale));
  const std::string path =
      args.work_dir + "/dbpedia-" + std::to_string(vertices) + ".kbsnap";
  if (auto cached = ksp::LoadKnowledgeBaseSnapshot(path); cached.ok()) {
    return std::move(*cached);
  }
  auto kb = ksp::GenerateKnowledgeBase(
      ksp::SyntheticProfile::DBpediaLike(vertices));
  KSP_CHECK(kb.ok()) << kb.status().ToString();
  if (ksp::Status st = ksp::SaveKnowledgeBase(**kb, path); !st.ok()) {
    std::fprintf(stderr, "KB snapshot not cached: %s\n",
                 st.ToString().c_str());
  }
  return std::move(*kb);
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kspbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --source-id ID [--scale X] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  using WorkloadFn = kspbench::WorkloadResult (*)(
      const Args&, const ksp::KnowledgeBase&,
      const std::vector<kspbench::PoolQuery>&);
  const std::map<std::string, WorkloadFn> workloads = {
      {"mem_mix", kspbench::RunMemMix},
      {"disk_smallpool", kspbench::RunDiskSmallPool},
      {"shard_k4", kspbench::RunShardK4},
      {"serve_zipf", kspbench::RunServeZipf},
  };
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  std::filesystem::create_directories(args.work_dir);
  args.scratch_dir = args.work_dir + "/run-" + std::to_string(getpid());
  std::filesystem::remove_all(args.scratch_dir);
  std::filesystem::create_directories(args.scratch_dir);

  const auto kb = LoadKb(args);
  const std::vector<kspbench::PoolQuery> pool =
      kspbench::MakeQueryPool(*kb, args.seed, kspbench::kPoolSize);
  KSP_CHECK(pool.size() >= 10) << "query generation produced too few queries";
  std::fprintf(stderr, "%s: %u vertices, %llu edges, %u places; %zu queries "
               "from seed %llu\n",
               args.workload.c_str(), kb->num_vertices(),
               static_cast<unsigned long long>(kb->num_edges()),
               kb->num_places(), pool.size(),
               static_cast<unsigned long long>(args.seed));

  kspbench::WorkloadResult result = workload->second(args, *kb, pool);
  std::filesystem::remove_all(args.scratch_dir);
  // The KB plus the workload's own target: reference paths run in a
  // forked child and never count here.
  if (!args.trace) result.metrics["peak_rss_mb"] = kspbench::PeakRssMb();

  // Run fingerprint: where and on what this was measured.
  std::string fingerprint =
      "{\"workload\": " + Quoted(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"host\": " + Quoted(HostName()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + Quoted(KSPBENCH_BUILD_TYPE) +
      ", \"source\": " + Quoted(args.source_id) +
      ", \"scale\": " + Number(args.scale) +
      ", \"vertices\": " + std::to_string(kb->num_vertices()) +
      ", \"edges\": " + std::to_string(kb->num_edges()) +
      ", \"places\": " + std::to_string(kb->num_places()) +
      ", \"pool_queries\": " + std::to_string(pool.size()) +
      ", \"seconds\": " + Number(args.seconds);
  for (const auto& [key, value] : result.fingerprint) {
    fingerprint += ", " + Quoted(key) + ": " + Number(value);
  }
  std::printf("fingerprint %s}\n", fingerprint.c_str());

  const auto& defs =
      args.trace ? kspbench::kPerLayerMetrics : kspbench::kEndToEndMetrics;
  bool finite = true;
  std::string metrics;
  for (const kspbench::MetricDef& def : defs) {
    const auto found = result.metrics.find(def.name);
    if (found == result.metrics.end() && !def.in_result) {
      std::printf("%-28s %18s %s\n", def.name, "n/a", def.unit);
      continue;
    }
    // A per-layer metric the workload does not touch reads 0.
    const double value = found == result.metrics.end() ? 0.0 : found->second;
    finite = finite && std::isfinite(value) &&
             (args.trace || found != result.metrics.end());
    std::printf("%-28s %18.6f %s\n", def.name, value, def.unit);
    if (!def.in_result) continue;
    metrics += std::string(metrics.empty() ? "" : ", ") + Quoted(def.name) +
               ": {\"value\": " + Number(std::isfinite(value) ? value : 0) +
               ", \"unit\": " + Quoted(def.unit) + "}";
  }
  std::printf("%-28s %18.6f (%llu of %llu operations)\n", "failed_frac",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  const bool correct =
      result.failed == 0 && result.attempted > 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
