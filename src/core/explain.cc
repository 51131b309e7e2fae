#include "core/explain.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "core/executor.h"
#include "rdf/knowledge_base.h"

namespace ksp {

namespace {

/// Compact fixed notation: EXPLAIN values are scores/distances where six
/// significant digits are plenty and "inf" must render readably.
std::string Num(double value) {
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// JSON variant: infinities become null (JSON has no Inf literal).
std::string JsonNum(double value) {
  if (std::isinf(value) || std::isnan(value)) return "null";
  return Num(value);
}

}  // namespace

const char* CandidateOutcomeName(CandidateOutcome outcome) {
  switch (outcome) {
    case CandidateOutcome::kInTopK:
      return "in_topk";
    case CandidateOutcome::kComputed:
      return "computed";
    case CandidateOutcome::kUnqualified:
      return "unqualified";
    case CandidateOutcome::kPrunedRule1:
      return "pruned_rule1";
    case CandidateOutcome::kPrunedRule2:
      return "pruned_rule2";
    case CandidateOutcome::kPrunedRule3:
      return "pruned_rule3";
    case CandidateOutcome::kPrunedRule4:
      return "pruned_rule4";
  }
  return "?";
}

std::string ExplainReport::ToText(const KnowledgeBase* kb) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "EXPLAIN %s k=%u location=(%.6g, %.6g) keywords=%zu\n",
                KspAlgorithmName(algorithm), query.k, query.location.x,
                query.location.y, query.keywords.size());
  out += line;
  std::snprintf(line, sizeof(line), "%5s  %-5s %-6s %10s %10s %10s %10s  %s\n",
                "order", "kind", "id", "spatial", "theta", "looseness",
                "score", "outcome");
  out += line;
  for (const ExplainCandidate& c : candidates) {
    std::snprintf(line, sizeof(line),
                  "%5u  %-5s %-6" PRIu64 " %10s %10s %10s %10s  %s\n",
                  c.order, c.is_node ? "node" : "place",
                  c.is_node ? static_cast<uint64_t>(c.node_id)
                            : static_cast<uint64_t>(c.place),
                  Num(c.spatial_distance).c_str(), Num(c.threshold).c_str(),
                  Num(c.looseness).c_str(),
                  c.outcome == CandidateOutcome::kInTopK ||
                          c.outcome == CandidateOutcome::kComputed
                      ? Num(c.score).c_str()
                      : "-",
                  CandidateOutcomeName(c.outcome));
    out += line;
  }
  out += "terminated: " + termination + "\n";
  if (!storage_backend.ok()) {
    out += "storage backend: " + storage_backend.ToString() + "\n";
  }
  std::snprintf(line, sizeof(line),
                "counters: tqsp=%" PRIu64 " rtree_nodes=%" PRIu64
                " reach=%" PRIu64 " pruned r1=%" PRIu64 " r2=%" PRIu64
                " r3=%" PRIu64 " r4=%" PRIu64 "\n",
                stats.tqsp_computations, stats.rtree_nodes_accessed,
                stats.reachability_queries, stats.pruned_unqualified,
                stats.pruned_dynamic_bound, stats.pruned_alpha_place,
                stats.pruned_alpha_node);
  out += line;
  out += "result:\n";
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const KspResultEntry& entry = result.entries[i];
    std::snprintf(line, sizeof(line),
                  "  %zu. place %u%s%s L=%s S=%s f=%s\n", i + 1,
                  entry.place, kb != nullptr ? " " : "",
                  kb != nullptr
                      ? kb->VertexIri(kb->place_vertex(entry.place)).c_str()
                      : "",
                  Num(entry.looseness).c_str(),
                  Num(entry.spatial_distance).c_str(),
                  Num(entry.score).c_str());
    out += line;
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{\"algorithm\": \"";
  out += KspAlgorithmName(algorithm);
  out += "\", \"k\": " + std::to_string(query.k);
  out += ", \"location\": [" + Num(query.location.x) + ", " +
         Num(query.location.y) + "]";
  out += ", \"num_keywords\": " + std::to_string(query.keywords.size());
  out += ", \"candidates\": [";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const ExplainCandidate& c = candidates[i];
    if (i > 0) out += ", ";
    out += "{\"order\": " + std::to_string(c.order);
    out += ", \"kind\": \"";
    out += c.is_node ? "node" : "place";
    out += "\", \"id\": " +
           std::to_string(c.is_node ? static_cast<uint64_t>(c.node_id)
                                    : static_cast<uint64_t>(c.place));
    out += ", \"spatial\": " + JsonNum(c.spatial_distance);
    out += ", \"threshold\": " + JsonNum(c.threshold);
    out += ", \"score_bound\": " + JsonNum(c.score_bound);
    out += ", \"looseness\": " + JsonNum(c.looseness);
    out += ", \"score\": " + JsonNum(c.score);
    out += ", \"outcome\": \"";
    out += CandidateOutcomeName(c.outcome);
    out += "\"}";
  }
  out += "], \"termination\": \"" + termination + "\"";
  out += ", \"storage_backend\": \"" +
         JsonEscape(storage_backend.ok() ? "ok" : storage_backend.ToString()) +
         "\"";
  out += ", \"result\": [";
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const KspResultEntry& entry = result.entries[i];
    if (i > 0) out += ", ";
    out += "{\"place\": " + std::to_string(entry.place);
    out += ", \"looseness\": " + JsonNum(entry.looseness);
    out += ", \"spatial\": " + JsonNum(entry.spatial_distance);
    out += ", \"score\": " + JsonNum(entry.score) + "}";
  }
  out += "]}";
  return out;
}

Result<ExplainReport> QueryExecutor::Explain(const KspQuery& query,
                                             KspAlgorithm algorithm) {
  if (algorithm != KspAlgorithm::kBsp && algorithm != KspAlgorithm::kSpp &&
      algorithm != KspAlgorithm::kSp) {
    return Status::Unimplemented(
        "EXPLAIN covers the place-at-a-time algorithms (BSP, SPP, SP); "
        "the TA baseline's merged streams have no per-candidate decision "
        "sequence");
  }
  ExplainReport report;
  report.algorithm = algorithm;
  report.query = query;
  report.termination = "exhausted";
  report.storage_backend = db_->storage_backend_status();
  if (!report.storage_backend.ok()) {
    // The query would be rejected by CheckPrepared; report the backend
    // error as the (only) finding instead of failing the EXPLAIN itself.
    report.termination = "storage_backend_error";
    return report;
  }

  // The report doubles as the collector: the Execute* loops append
  // candidate rows while explain_ is set.
  explain_ = &report;
  explain_order_ = 0;
  Result<KspResult> result = Execute(algorithm, query, &report.stats);
  explain_ = nullptr;
  if (!result.ok()) return result.status();
  report.result = std::move(*result);

  // Promote the candidates that made the final top-k.
  for (const KspResultEntry& entry : report.result.entries) {
    for (ExplainCandidate& c : report.candidates) {
      if (!c.is_node && c.place == entry.place &&
          c.outcome == CandidateOutcome::kComputed) {
        c.outcome = CandidateOutcome::kInTopK;
      }
    }
  }
  return report;
}

}  // namespace ksp
