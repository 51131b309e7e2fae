// DESIGN.md §7's metric-name table is the contract dashboards key on.
// One query runs through every component that registers metrics —
// QueryExecutor, ShardedExecutor and a loopback KspServer — on one
// registry; every name its snapshot holds must have a row in the table,
// and every row must name a metric the code registers.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/trace.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "service/client.h"
#include "service/server.h"
#include "shard/partition.h"
#include "shard/sharded_database.h"
#include "shard/sharded_executor.h"

#ifndef KSP_DESIGN_MD
#error "KSP_DESIGN_MD must be the path to DESIGN.md"
#endif

namespace ksp {
namespace {

/// The text of DESIGN.md §7: from its "## 7." heading to the next one.
std::string MetricsSection() {
  std::ifstream in(KSP_DESIGN_MD);
  EXPECT_TRUE(in.good()) << "cannot read " << KSP_DESIGN_MD;
  std::string section;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      if (inside) break;
      inside = line.rfind("## 7.", 0) == 0;
    }
    if (inside) section += line + "\n";
  }
  return section;
}

/// Expands one table name: `a{x,y}b` into `axb` and `ayb`, and
/// `<phase>` into every trace-phase name.
std::vector<std::string> ExpandName(const std::string& name) {
  const size_t open = name.find('{');
  if (open != std::string::npos) {
    const size_t close = name.find('}', open);
    const std::string prefix = name.substr(0, open);
    const std::string suffix = name.substr(close + 1);
    std::vector<std::string> out;
    size_t start = open + 1;
    while (start <= close) {
      size_t end = name.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      for (const std::string& rest : ExpandName(suffix)) {
        out.push_back(prefix + name.substr(start, end - start) + rest);
      }
      start = end + 1;
    }
    return out;
  }
  const std::string kPhase = "<phase>";
  const size_t phase = name.find(kPhase);
  if (phase != std::string::npos) {
    std::vector<std::string> out;
    for (size_t p = 0; p < kNumTracePhases; ++p) {
      std::string expanded = name;
      expanded.replace(phase, kPhase.size(),
                       TracePhaseName(static_cast<TracePhase>(p)));
      out.push_back(std::move(expanded));
    }
    return out;
  }
  return {name};
}

/// The expanded first-column names of the section's metric table.
std::set<std::string> DocumentedNames(const std::string& section) {
  std::set<std::string> names;
  size_t pos = 0;
  const std::string kRow = "\n| `ksp_";
  while ((pos = section.find(kRow, pos)) != std::string::npos) {
    const size_t start = pos + 4;  // Past "\n| `".
    const size_t end = section.find('`', start);
    for (const std::string& name :
         ExpandName(section.substr(start, end - start))) {
      names.insert(name);
    }
    pos = end;
  }
  return names;
}

std::vector<std::string> KeywordStrings(const KnowledgeBase& kb,
                                        const KspQuery& query) {
  std::vector<std::string> out;
  for (TermId t : query.keywords) out.push_back(kb.vocabulary().Term(t));
  return out;
}

TEST(MetricRegistryTest, RegisteredNamesMatchDesignTable) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(400));
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  auto db = std::make_shared<KspDatabase>(kb->get());
  db->PrepareAll(/*alpha=*/3);
  QueryGenOptions qopt;
  qopt.num_keywords = 2;
  qopt.k = 3;
  qopt.seed = 7;
  const auto queries =
      GenerateQueries(**kb, QueryClass::kOriginal, qopt, 1);
  ASSERT_EQ(queries.size(), 1u);
  const KspQuery& query = queries[0];

  // The server's registry is the one registry all three share.
  ServerOptions server_options;
  server_options.num_workers = 1;
  KspServer server(kb->get(), KspOptions(), server_options);
  ASSERT_TRUE(server.ServeDatabase(db).ok());
  ASSERT_TRUE(server.Start().ok());
  MetricsRegistry* registry = server.metrics();

  QueryExecutor executor(db.get());
  executor.set_metrics(registry);
  ASSERT_TRUE(executor.ExecuteSp(query, nullptr).ok());

  auto sharded = ShardedKspDatabase::Build(kb->get(), KspOptions(),
                                           StrPartition(**kb, 2),
                                           /*alpha=*/3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ShardedExecutor sharded_executor(sharded->get());
  sharded_executor.set_metrics(registry);
  ASSERT_TRUE(sharded_executor.Execute(KspAlgorithm::kSp, query).ok());

  auto client = KspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client->Query(KspAlgorithm::kSp, query.location,
                                KeywordStrings(**kb, query), query.k);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << response->message;
  server.Stop();

  const MetricsSnapshot snapshot = registry->Snapshot();
  std::set<std::string> registered;
  for (const auto& [name, value] : snapshot.counters) registered.insert(name);
  for (const auto& [name, value] : snapshot.gauges) registered.insert(name);
  for (const auto& [name, value] : snapshot.histograms) {
    registered.insert(name);
  }
  ASSERT_TRUE(registered.count("ksp_queries_total"));
  ASSERT_TRUE(registered.count("ksp_shard_queries_total"));
  ASSERT_TRUE(registered.count("ksp_server_requests_total"));

  const std::string section = MetricsSection();
  const std::set<std::string> documented = DocumentedNames(section);
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name))
        << name << " is registered but has no row in DESIGN.md §7";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(registered.count(name))
        << "DESIGN.md §7 lists " << name << ", which nothing registers";
  }
  // The taxonomy that `<phase>` stands for names every phase.
  for (size_t p = 0; p < kNumTracePhases; ++p) {
    const std::string phase =
        std::string("`") + TracePhaseName(static_cast<TracePhase>(p)) + "`";
    EXPECT_NE(section.find(phase), std::string::npos)
        << "trace phase " << phase << " is not named in DESIGN.md §7";
  }
}

}  // namespace
}  // namespace ksp
