// Table 4: storage cost of the R-tree, the native RDF graph, and the
// inverted index, for both datasets. The disk-resident inverted index is
// also materialized so its file size is reported alongside the in-memory
// footprint, and the checksummed (v2) save/load paths are timed next to
// raw CRC32C throughput to show what the integrity checks cost.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "text/inverted_index.h"

int main(int argc, char** argv) {
  using namespace ksp::bench;
  const BenchEnv env = BenchEnv::FromArgs(argc, argv);
  std::printf("=== Table 4: storage cost ===\n");
  std::printf("%-14s %14s %14s %16s %16s\n", "dataset", "R-tree",
              "RDF graph", "inv-index(mem)", "inv-index(disk)");

  for (bool dbpedia : {true, false}) {
    auto kb = MakeDataset(dbpedia, env.Scaled(dbpedia ? kDBpediaBaseVertices
                                                      : kYagoBaseVertices));
    ksp::KspDatabase db(kb.get());
    db.BuildRTree();

    std::string path = (std::filesystem::temp_directory_path() /
                        "ksp_table4_index.idx")
                           .string();
    uint64_t disk_bytes = 0;
    if (ksp::DiskInvertedIndex::Write(kb->inverted_index(), path).ok()) {
      auto opened = ksp::DiskInvertedIndex::Open(path);
      if (opened.ok()) disk_bytes = (*opened)->SizeBytes();
      std::remove(path.c_str());
    }

    std::printf("%-14s %14s %14s %16s %16s\n",
                dbpedia ? "dbpedia-like" : "yago-like",
                ksp::HumanBytes(db.rtree().MemoryUsageBytes()).c_str(),
                ksp::HumanBytes(kb->GraphMemoryBytes()).c_str(),
                ksp::HumanBytes(kb->InvertedIndexBytes()).c_str(),
                ksp::HumanBytes(disk_bytes).c_str());
  }
  std::printf(
      "\npaper (full-scale): DBpedia R-tree 50.54MB graph 607.95MB "
      "inv 1307.98MB; Yago R-tree 273.17MB graph 454.81MB inv 231.91MB\n");

  // --- Checksummed (CRC32C-framed, atomic rename) persistence timings,
  // plus raw CRC32C throughput. ---
  std::printf("\n=== Checksummed persistence (v2) ===\n");
  {
    ksp::Rng rng(4);
    std::string buf(64ull << 20, '\0');
    for (char& c : buf) c = static_cast<char>(rng.Next());
    ksp::Timer timer;
    timer.Start();
    uint32_t crc = ksp::Crc32c(buf);
    timer.Stop();
    std::printf("crc32c throughput: %.0f MB/s (64 MiB, crc=%08x)\n",
                static_cast<double>(buf.size()) / (1 << 20) /
                    timer.ElapsedSeconds(),
                crc);
  }

  std::printf("%-26s %12s\n", "operation", "v2 (ms)");
  {
    auto kb = MakeDataset(true, env.Scaled(kDBpediaBaseVertices));
    ksp::KspDatabase db(kb.get());
    db.BuildRTree();
    const std::string v2 = (std::filesystem::temp_directory_path() /
                            "ksp_table4_v2.bin")
                               .string();

    auto report = [](const char* op, auto&& fn) {
      ksp::Timer timer;
      timer.Start();
      fn();
      timer.Stop();
      std::printf("%-26s %12.2f\n", op, timer.ElapsedMillis());
    };
    report("rtree save", [&] { (void)db.rtree().Save(v2); });
    report("rtree load", [&] { (void)ksp::RTree::Load(v2); });
    report("inverted-index write", [&] {
      (void)ksp::DiskInvertedIndex::Write(kb->inverted_index(), v2);
    });
    report("inverted-index open",
           [&] { (void)ksp::DiskInvertedIndex::Open(v2); });
    std::remove(v2.c_str());
  }
  return ksp::bench::Finish();
}
