#ifndef KSP_CORE_QUERY_H_
#define KSP_CORE_QUERY_H_

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "spatial/geometry.h"

namespace ksp {

/// Which kSP algorithm evaluates a query; QueryExecutor::Execute
/// dispatches on it.
enum class KspAlgorithm { kBsp, kSpp, kSp, kTa, kKeywordOnly };

/// Short stable name: "BSP", "SPP", "SP", "TA", "KW".
inline const char* KspAlgorithmName(KspAlgorithm algorithm) {
  switch (algorithm) {
    case KspAlgorithm::kBsp:
      return "BSP";
    case KspAlgorithm::kSpp:
      return "SPP";
    case KspAlgorithm::kSp:
      return "SP";
    case KspAlgorithm::kTa:
      return "TA";
    case KspAlgorithm::kKeywordOnly:
      return "KW";
  }
  return "?";
}

/// Most distinct keywords one query may carry: the TQSP construction
/// keeps a query's covered keywords in one 64-bit mask.
inline constexpr size_t kMaxQueryKeywords = 64;

/// A top-k relevant Semantic Place query q = (q.λ, q.ψ, k) (Definition 3).
struct KspQuery {
  /// q.λ — the query location.
  Point location;
  /// q.ψ — the query keywords as TermIds of the target KB's vocabulary.
  /// A kInvalidTerm entry (keyword missing from the vocabulary) makes the
  /// query unanswerable: no qualified semantic place exists.
  std::vector<TermId> keywords;
  /// Number of requested semantic places.
  uint32_t k = 1;
};

/// InvalidArgument unless both coordinates of q.λ are finite. A NaN or
/// infinite location makes every spatial distance NaN or infinite, so
/// no ranking over it means anything.
inline Status CheckQueryLocation(const Point& location) {
  if (std::isfinite(location.x) && std::isfinite(location.y)) {
    return Status::OK();
  }
  return Status::InvalidArgument("query location must be finite");
}

}  // namespace ksp

#endif  // KSP_CORE_QUERY_H_
