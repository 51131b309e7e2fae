// Command-line kSP query tool over any N-Triples file.
//
//   ksp_query_tool [options] <file.nt> <lat> <lon> <keyword> [keyword...]
//
// Options:
//   --algo=bsp|spp|sp|ta   algorithm (default sp)
//   --k=N                  number of results (default 3)
//   --alpha=N              α-radius for the SP bounds (default 3)
//   --undirected           follow edges in both directions (§8 variant)
//   --index-dir=DIR        cache indexes in DIR (load if present, save
//                          after building otherwise)
//   --stats                print dataset statistics before querying
//
// With no arguments it runs a demo on the bundled Montmajour dataset.
// Place coordinates are read from geo:lat/geo:long, georss:point, or WKT
// POINT literals in the input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"
#include "rdf/kb_stats.h"
#include "rdf/knowledge_base.h"

namespace {

struct ToolOptions {
  ksp::KspAlgorithm algorithm = ksp::KspAlgorithm::kSp;
  uint32_t k = 3;
  uint32_t alpha = 3;
  bool undirected = false;
  bool print_stats = false;
  std::string index_dir;
};

int RunQuery(const ksp::KnowledgeBase& kb, const ksp::KspDatabase& db,
             const ToolOptions& options, ksp::Point location,
             const std::vector<std::string>& keywords) {
  ksp::QueryExecutor executor(&db);
  ksp::KspQuery query = db.MakeQuery(location, keywords, options.k);
  ksp::QueryStats stats;
  auto result = executor.Execute(options.algorithm, query, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (result->entries.empty()) {
    std::printf("No qualified semantic place covers all keywords.\n");
    return 0;
  }
  for (size_t i = 0; i < result->entries.size(); ++i) {
    const auto& e = result->entries[i];
    std::printf("%zu. %s\n", i + 1,
                kb.VertexIri(kb.place_vertex(e.place)).c_str());
    std::printf("   score=%.4f looseness=%.0f distance=%.4f\n", e.score,
                e.looseness, e.spatial_distance);
    for (const auto& match : e.tree.matches) {
      std::printf("   '%s' covered by %s (%u hops:",
                  kb.vocabulary().Term(match.term).c_str(),
                  kb.VertexIri(match.vertex).c_str(), match.distance);
      for (ksp::VertexId v : match.path) {
        std::printf(" %s",
                    std::string(ksp::UriLocalName(kb.VertexIri(v))).c_str());
      }
      std::printf(")\n");
    }
  }
  std::printf(
      "[%s: %.2f ms, %llu TQSP computations, %llu R-tree nodes]\n",
      ksp::KspAlgorithmName(options.algorithm), stats.total_ms,
      static_cast<unsigned long long>(stats.tqsp_computations),
      static_cast<unsigned long long>(stats.rtree_nodes_accessed));
  return 0;
}

void PrepareDatabase(ksp::KspDatabase* db, const ToolOptions& options) {
  if (!options.index_dir.empty()) {
    if (db->LoadIndexes(options.index_dir).ok() &&
        db->alpha_index() != nullptr &&
        db->reachability_index() != nullptr &&
        db->alpha_index()->alpha() == options.alpha) {
      std::printf("(indexes loaded from %s)\n",
                  options.index_dir.c_str());
      return;
    }
  }
  db->PrepareAll(options.alpha);
  if (!options.index_dir.empty()) {
    if (db->SaveIndexes(options.index_dir).ok()) {
      std::printf("(indexes cached in %s)\n", options.index_dir.c_str());
    }
  }
}

bool ParseFlag(const char* arg, ToolOptions* options) {
  if (std::strncmp(arg, "--algo=", 7) == 0) {
    std::string name = arg + 7;
    if (name == "bsp") {
      options->algorithm = ksp::KspAlgorithm::kBsp;
    } else if (name == "spp") {
      options->algorithm = ksp::KspAlgorithm::kSpp;
    } else if (name == "sp") {
      options->algorithm = ksp::KspAlgorithm::kSp;
    } else if (name == "ta") {
      options->algorithm = ksp::KspAlgorithm::kTa;
    } else {
      std::fprintf(stderr, "unknown algorithm '%s'\n", name.c_str());
      return false;
    }
    return true;
  }
  if (std::strncmp(arg, "--k=", 4) == 0) {
    options->k = static_cast<uint32_t>(std::atoi(arg + 4));
    return true;
  }
  if (std::strncmp(arg, "--alpha=", 8) == 0) {
    options->alpha = static_cast<uint32_t>(std::atoi(arg + 8));
    return true;
  }
  if (std::strcmp(arg, "--undirected") == 0) {
    options->undirected = true;
    return true;
  }
  if (std::strncmp(arg, "--index-dir=", 12) == 0) {
    options->index_dir = arg + 12;
    return true;
  }
  if (std::strcmp(arg, "--stats") == 0) {
    options->print_stats = true;
    return true;
  }
  std::fprintf(stderr, "unknown flag '%s'\n", arg);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions options;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (!ParseFlag(argv[i], &options)) return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }

  if (positional.empty()) {
    std::printf("Demo mode (bundled Montmajour dataset).\n");
    std::printf(
        "Usage: %s [--algo=sp] [--k=3] [--alpha=3] [--undirected] "
        "[--index-dir=DIR] [--stats] <file.nt> <lat> <lon> <keyword>...\n\n",
        argv[0]);
    auto kb = ksp::LoadKnowledgeBaseFromString(ksp::MontmajourNTriples());
    if (!kb.ok()) return 1;
    ksp::KspDatabase db(kb->get());
    db.PrepareAll(3);
    options.k = 2;
    return RunQuery(**kb, db, options, ksp::kQ1,
                    {"ancient", "roman", "catholic", "history"});
  }
  if (positional.size() < 4) {
    std::fprintf(stderr,
                 "usage: %s [flags] <file.nt> <lat> <lon> <keyword>...\n",
                 argv[0]);
    return 2;
  }

  auto kb = ksp::LoadKnowledgeBaseFromFile(positional[0]);
  if (!kb.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", positional[0],
                 kb.status().ToString().c_str());
    return 1;
  }
  if (options.print_stats) {
    std::printf("%s\n\n",
                ksp::ComputeKnowledgeBaseStats(**kb).ToString().c_str());
  }
  if ((*kb)->num_places() == 0) {
    std::fprintf(stderr,
                 "no place vertices found (need geo:lat/long, "
                 "georss:point or WKT POINT literals)\n");
    return 1;
  }

  ksp::Point location{std::atof(positional[1]), std::atof(positional[2])};
  std::vector<std::string> keywords;
  for (size_t i = 3; i < positional.size(); ++i) {
    keywords.push_back(positional[i]);
  }

  ksp::KspOptions db_options;
  db_options.undirected_edges = options.undirected;
  ksp::KspDatabase db(kb->get(), db_options);
  PrepareDatabase(&db, options);
  return RunQuery(**kb, db, options, location, keywords);
}
