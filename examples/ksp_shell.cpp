// Interactive kSP shell: load a knowledge base once, then explore it with
// kSP queries, SPARQL, and dataset statistics.
//
//   ksp_shell [file.nt|file.ttl]        (bundled demo KB if omitted)
//
// Commands:
//   ksp <lat> <lon> <k> <keyword>...      top-k semantic places (SP)
//   kw <k> <keyword>...                   keyword-only search (no location)
//   sparql SELECT ... WHERE { ... }       mini-SPARQL (one line)
//   stats                                 dataset statistics
//   place <iri-or-local-name>             show a place and its document
//   help / quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"
#include "rdf/kb_stats.h"
#include "rdf/knowledge_base.h"
#include "sparql/evaluator.h"

namespace {

void PrintResult(const ksp::KnowledgeBase& kb, const ksp::KspResult& result,
                 const ksp::QueryStats& stats) {
  if (result.entries.empty()) {
    std::printf("no qualified semantic place\n");
    return;
  }
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const auto& e = result.entries[i];
    std::printf("%zu. %-40s score=%.3f L=%.0f S=%.3f\n", i + 1,
                kb.VertexIri(kb.place_vertex(e.place)).c_str(), e.score,
                e.looseness, e.spatial_distance);
    for (const auto& match : e.tree.matches) {
      std::printf("   %s @ %u hops (%s)\n",
                  kb.vocabulary().Term(match.term).c_str(), match.distance,
                  kb.VertexIri(match.vertex).c_str());
    }
  }
  std::printf("(%.2f ms, %llu TQSPs)\n", stats.total_ms,
              static_cast<unsigned long long>(stats.tqsp_computations));
}

void ShowPlace(const ksp::KnowledgeBase& kb, const std::string& name) {
  auto vertex = kb.FindVertex(name);
  if (!vertex.has_value()) {
    // Try suffix match over all vertices.
    for (ksp::VertexId v = 0; v < kb.num_vertices(); ++v) {
      if (ksp::EndsWith(kb.VertexIri(v), name)) {
        vertex = v;
        break;
      }
    }
  }
  if (!vertex.has_value()) {
    std::printf("no vertex matches '%s'\n", name.c_str());
    return;
  }
  std::printf("%s\n", kb.VertexIri(*vertex).c_str());
  ksp::PlaceId place = kb.place_of(*vertex);
  if (place != ksp::kInvalidPlace) {
    ksp::Point location = kb.place_location(place);
    std::printf("  place at (%.4f, %.4f)\n", location.x, location.y);
  } else {
    std::printf("  not a place (no coordinates)\n");
  }
  std::printf("  document:");
  for (ksp::TermId t : kb.documents().Terms(*vertex)) {
    std::printf(" %s", kb.vocabulary().Term(t).c_str());
  }
  std::printf("\n  out-edges:\n");
  auto targets = kb.graph().OutNeighbors(*vertex);
  auto preds = kb.graph().OutPredicates(*vertex);
  for (size_t i = 0; i < targets.size(); ++i) {
    std::printf("    --%s--> %s\n",
                kb.predicate_dictionary().Term(preds[i]).c_str(),
                kb.VertexIri(targets[i]).c_str());
  }
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  ksp <lat> <lon> <k> <keyword>...   top-k semantic places (SP)\n"
      "  kw <k> <keyword>...                keyword-only search\n"
      "  sparql <query>                     mini-SPARQL on one line\n"
      "  stats                              dataset statistics\n"
      "  place <iri-or-suffix>              inspect a vertex\n"
      "  help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto kb = [&]() {
    if (argc > 1) {
      return ksp::EndsWith(argv[1], ".ttl")
                 ? ksp::LoadKnowledgeBaseFromTurtleFile(argv[1])
                 : ksp::LoadKnowledgeBaseFromFile(argv[1]);
    }
    return ksp::LoadKnowledgeBaseFromString(ksp::MontmajourNTriples());
  }();
  if (!kb.ok()) {
    std::fprintf(stderr, "cannot load KB: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded: %u vertices, %llu edges, %u places\n",
              (*kb)->num_vertices(),
              static_cast<unsigned long long>((*kb)->num_edges()),
              (*kb)->num_places());

  ksp::KspDatabase db(kb->get());
  std::printf("building indexes (alpha=3)...\n");
  db.PrepareAll(3);
  ksp::QueryExecutor executor(&db);
  ksp::sparql::SparqlEvaluator sparql(kb->get());
  PrintHelp();

  std::string line;
  while (std::printf("ksp> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }
    if (command == "stats") {
      std::printf("%s\n",
                  ksp::ComputeKnowledgeBaseStats(**kb).ToString().c_str());
      continue;
    }
    if (command == "place") {
      std::string name;
      if (in >> name) ShowPlace(**kb, name);
      continue;
    }
    if (command == "sparql") {
      std::string query_text(ksp::TrimWhitespace(
          line.substr(std::string("sparql").size())));
      auto rows = sparql.ExecuteText(query_text);
      if (!rows.ok()) {
        std::printf("error: %s\n", rows.status().ToString().c_str());
      } else {
        std::printf("%s(%zu rows)\n", sparql.ToTable(*rows).c_str(),
                    rows->rows.size());
      }
      continue;
    }
    if (command == "ksp" || command == "kw") {
      double lat = 0;
      double lon = 0;
      int k = 0;
      bool spatial = command == "ksp";
      if (spatial && !(in >> lat >> lon)) {
        std::printf("usage: ksp <lat> <lon> <k> <keyword>...\n");
        continue;
      }
      if (!(in >> k) || k <= 0) {
        std::printf("usage: %s ... <k> <keyword>...\n", command.c_str());
        continue;
      }
      std::vector<std::string> keywords;
      std::string keyword;
      while (in >> keyword) keywords.push_back(keyword);
      if (keywords.empty()) {
        std::printf("need at least one keyword\n");
        continue;
      }
      ksp::KspQuery query = db.MakeQuery(
          ksp::Point{lat, lon}, keywords, static_cast<uint32_t>(k));
      ksp::QueryStats stats;
      auto result = executor.Execute(
          spatial ? ksp::KspAlgorithm::kSp : ksp::KspAlgorithm::kKeywordOnly,
          query, &stats);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        PrintResult(**kb, *result, stats);
      }
      continue;
    }
    std::printf("unknown command '%s' (try 'help')\n", command.c_str());
  }
  return 0;
}
