#include "alpha/alpha_index.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/io_util.h"
#include "core/database.h"
#include "core/executor.h"
#include "datagen/fixtures.h"
#include "datagen/synthetic.h"
#include "shard/partition.h"

namespace ksp {
namespace {

/// Each term's expected (entry, distance) list, sorted by entry.
using TermLists = std::vector<std::vector<std::pair<uint32_t, uint32_t>>>;

/// The α-radius WN of place `p` by plain BFS: the depth of every vertex
/// within α out-edges, then each term's minimum depth.
std::map<TermId, uint32_t> BruteForcePlaceWn(const KnowledgeBase& kb,
                                             PlaceId p, uint32_t alpha) {
  std::map<VertexId, uint32_t> depth{{kb.place_vertex(p), 0}};
  std::deque<VertexId> queue{kb.place_vertex(p)};
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    const uint32_t d = depth[v];
    if (d == alpha) continue;
    for (VertexId w : kb.graph().OutNeighbors(v)) {
      if (depth.emplace(w, d + 1).second) queue.push_back(w);
    }
  }
  std::map<TermId, uint32_t> wn;
  for (const auto& [v, d] : depth) {
    for (TermId t : kb.documents().Terms(v)) {
      auto [it, inserted] = wn.emplace(t, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
  }
  return wn;
}

/// The oracle for AlphaIndex::Build: a bounded BFS per place the R-tree
/// holds, and for every node the term-wise minimum over all the places
/// in its subtree (not over its children, as Build merges).
TermLists BruteForcePostings(const KnowledgeBase& kb, const RTree& rtree,
                             uint32_t alpha) {
  const uint32_t num_places = kb.num_places();
  std::vector<std::map<TermId, uint32_t>> wns(num_places +
                                              rtree.num_nodes());
  std::function<std::vector<PlaceId>(uint32_t)> visit =
      [&](uint32_t node_id) {
        const RTree::Node& node = rtree.node(node_id);
        std::vector<PlaceId> places;
        for (const RTree::Entry& e : node.entries) {
          if (node.is_leaf) {
            const PlaceId p = static_cast<PlaceId>(e.id);
            wns[p] = BruteForcePlaceWn(kb, p, alpha);
            places.push_back(p);
          } else {
            for (PlaceId p : visit(static_cast<uint32_t>(e.id))) {
              places.push_back(p);
            }
          }
        }
        std::map<TermId, uint32_t>& node_wn = wns[num_places + node_id];
        for (PlaceId p : places) {
          for (const auto& [t, d] : wns[p]) {
            auto [it, inserted] = node_wn.emplace(t, d);
            if (!inserted) it->second = std::min(it->second, d);
          }
        }
        return places;
      };
  if (!rtree.empty()) visit(rtree.root());

  TermLists want(kb.num_terms());
  for (uint32_t entry = 0; entry < wns.size(); ++entry) {
    for (const auto& [t, d] : wns[entry]) want[t].emplace_back(entry, d);
  }
  return want;
}

void ExpectPostingsEqual(const AlphaIndex& alpha, const TermLists& want,
                         const std::string& label) {
  ASSERT_EQ(alpha.num_terms(), want.size()) << label;
  uint64_t total = 0;
  for (TermId t = 0; t < want.size(); ++t) {
    std::vector<std::pair<uint32_t, uint32_t>> got;
    for (const AlphaIndex::Posting& posting : alpha.TermPostings(t)) {
      got.emplace_back(posting.entry, posting.distance);
    }
    ASSERT_EQ(got, want[t]) << label << ": term " << t;
    total += got.size();
  }
  EXPECT_EQ(alpha.TotalEntries(), total) << label;
}

TEST(AlphaIndexTest, Figure1Table3Neighborhoods) {
  // Table 3 (α = 1): dg(p1, ancient) = 1, dg(p1, catholic) = 1,
  // dg(p1, roman) = 1, history not within radius 1 of p1;
  // dg(p2, catholic) = 0, dg(p2, roman) = 0, dg(p2, history) = 1,
  // ancient not within radius 1 of p2. Node N over {p1, p2} takes the
  // term-wise minima.
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  AlphaIndex alpha = AlphaIndex::Build(**kb, db.rtree(), 1);

  auto terms = (*kb)->LookupTerms(Figure1QueryKeywords());
  const TermId ancient = terms[0];
  const TermId roman = terms[1];
  const TermId catholic = terms[2];
  const TermId history = terms[3];

  const PlaceId p1 =
      (*kb)->place_of(*(*kb)->FindVertex("http://example.org/Montmajour_Abbey"));
  const PlaceId p2 = (*kb)->place_of(*(*kb)->FindVertex(
      "http://example.org/Roman_Catholic_Diocese_of_Frejus_Toulon"));

  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p1), ancient), 1u);
  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p1), catholic), 1u);
  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p1), roman), 1u);
  EXPECT_FALSE(
      alpha.EntryTermDistance(alpha.PlaceEntry(p1), history).has_value());

  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p2), catholic), 0u);
  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p2), roman), 0u);
  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p2), history), 1u);
  EXPECT_FALSE(
      alpha.EntryTermDistance(alpha.PlaceEntry(p2), ancient).has_value());

  // Root node word neighborhood = min over both places ("abbey" at 0 via
  // p1, catholic/roman at 0 via p2, history at 1, ancient at 1).
  const uint32_t root_entry = alpha.NodeEntry(db.rtree().root());
  EXPECT_EQ(alpha.EntryTermDistance(root_entry, ancient), 1u);
  EXPECT_EQ(alpha.EntryTermDistance(root_entry, catholic), 0u);
  EXPECT_EQ(alpha.EntryTermDistance(root_entry, roman), 0u);
  EXPECT_EQ(alpha.EntryTermDistance(root_entry, history), 1u);
  TermId abbey = (*kb)->LookupTerms({"abbey"})[0];
  EXPECT_EQ(alpha.EntryTermDistance(root_entry, abbey), 0u);
}

TEST(AlphaIndexTest, LargerAlphaCoversHistoryAtP1) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  AlphaIndex alpha = AlphaIndex::Build(**kb, db.rtree(), 2);
  TermId history = (*kb)->LookupTerms({"history"})[0];
  const PlaceId p1 =
      (*kb)->place_of(*(*kb)->FindVertex("http://example.org/Montmajour_Abbey"));
  EXPECT_EQ(alpha.EntryTermDistance(alpha.PlaceEntry(p1), history), 2u);
}

TEST(AlphaIndexTest, SizeGrowsWithAlpha) {
  // Table 6's trend: the WN inverted file grows with α.
  auto profile = SyntheticProfile::DBpediaLike(2000);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  uint64_t last = 0;
  for (uint32_t a : {1u, 2u, 3u}) {
    AlphaIndex alpha = AlphaIndex::Build(**kb, db.rtree(), a);
    EXPECT_GE(alpha.TotalEntries(), last) << "alpha " << a;
    last = alpha.TotalEntries();
    EXPECT_GT(alpha.SizeBytes(), 0u);
  }
}

TEST(AlphaIndexTest, BoundsAreValidLowerBounds) {
  // Property (Lemmas 2 and 4): for random queries, the α-bound of a place
  // never exceeds its true TQSP looseness, and a node's bound never
  // exceeds any enclosed place's bound.
  auto profile = SyntheticProfile::YagoLike(1500);
  auto kb = GenerateKnowledgeBase(profile);
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  QueryExecutor executor(&db);
  const uint32_t a = 2;
  AlphaIndex alpha = AlphaIndex::Build(**kb, db.rtree(), a);

  // A fixed handful of frequent terms as the query.
  std::vector<TermId> terms = {0, 1, 2};
  auto bound_of = [&](uint32_t entry) {
    double b = 1.0;
    for (TermId t : terms) {
      auto d = alpha.EntryTermDistance(entry, t);
      b += d.has_value() ? static_cast<double>(*d)
                         : static_cast<double>(a + 1);
    }
    return b;
  };

  KspQuery query;
  query.keywords = terms;
  query.k = 1;
  const uint32_t num_places = (*kb)->num_places();
  for (PlaceId p = 0; p < std::min<uint32_t>(num_places, 200); ++p) {
    auto tree = executor.ComputeTqspForPlace(p, query);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree->IsQualified()) {
      EXPECT_LE(bound_of(alpha.PlaceEntry(p)), tree->looseness)
          << "place " << p;
    }
  }

  // Node bound <= min over children bounds.
  const RTree& rtree = db.rtree();
  for (uint32_t node_id = 0; node_id < rtree.num_nodes(); ++node_id) {
    const RTree::Node& node = rtree.node(node_id);
    double node_bound = bound_of(alpha.NodeEntry(node_id));
    for (const RTree::Entry& e : node.entries) {
      uint32_t child_entry =
          node.is_leaf ? alpha.PlaceEntry(static_cast<PlaceId>(e.id))
                       : alpha.NodeEntry(static_cast<uint32_t>(e.id));
      EXPECT_LE(node_bound, bound_of(child_entry) + 1e-12);
    }
  }
}

// Build against an independent oracle, for α = 1, 2, 3 over the whole
// KB's R-tree and over one STR K = 4 tile's, before and after a save and
// load. The saved file holds exactly its framing, 8 bytes per term
// offset and 5 per posting: no struct padding reaches the disk.
TEST(AlphaIndexTest, PostingsMatchBruteForce) {
  auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(1500));
  ASSERT_TRUE(kb.ok());
  KspDatabase whole(kb->get());
  whole.BuildRTree();
  KspOptions tile_options;
  tile_options.place_subset = StrPartition(**kb, 4).tiles[0];
  KspDatabase tile(kb->get(), tile_options);
  tile.BuildRTree();
  ASSERT_GT(tile.rtree().size(), 0u);
  ASSERT_LT(tile.rtree().size(), whole.rtree().size());

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksp_alpha_oracle_" + std::to_string(::getpid()) + ".bin"))
          .string();
  // [container magic] + header, meta and three vector sections, each a
  // u64 length and a u32 CRC around its payload; vector payloads also
  // open with a u64 count.
  constexpr uint64_t kFraming = 4 + (8 + 8 + 4) + (8 + 12 + 4) + 3 * 20;
  const uint64_t num_terms = (*kb)->num_terms();
  for (const auto& [name, db] :
       {std::pair{"whole KB", &whole}, std::pair{"STR tile 0 of 4", &tile}}) {
    for (uint32_t a : {1u, 2u, 3u}) {
      const std::string label =
          std::string(name) + ", alpha " + std::to_string(a);
      const TermLists want = BruteForcePostings(**kb, db->rtree(), a);
      AlphaIndex alpha = AlphaIndex::Build(**kb, db->rtree(), a);
      ExpectPostingsEqual(alpha, want, label);
      EXPECT_EQ(alpha.SizeBytes(),
                8 * (num_terms + 1) + 5 * alpha.TotalEntries())
          << label;

      ASSERT_TRUE(alpha.Save(path).ok()) << label;
      EXPECT_EQ(std::filesystem::file_size(path),
                kFraming + 8 * (num_terms + 1) + 5 * alpha.TotalEntries())
          << label;
      auto loaded = AlphaIndex::Load(path);
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded->alpha(), a);
      ExpectPostingsEqual(*loaded, want, label + " after load");
    }
  }
  std::filesystem::remove(path);
}

// Format v2 stored postings as padded 8-byte structs in one section. It
// has no reader any more: such a file is Corruption naming its path.
TEST(AlphaIndexTest, RefusesFormatV2File) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksp_alpha_v2_" + std::to_string(::getpid()) + ".bin"))
          .string();
  struct PaddedPosting {
    uint32_t entry;
    uint8_t distance;
  };
  const Status written = WriteArtifactAtomically(
      DefaultFileSystem(), path, /*"KSPA"*/ 0x4B535041u, /*version=*/2,
      [](ChecksummedWriter* w) -> Status {
        std::string meta;
        AppendPod<uint32_t>(&meta, 1);  // alpha
        AppendPod<uint32_t>(&meta, 1);  // num_places
        AppendPod<uint32_t>(&meta, 1);  // num_nodes
        KSP_RETURN_NOT_OK(w->WriteSection(meta));
        KSP_RETURN_NOT_OK(
            w->WritePodVectorSection(std::vector<uint64_t>{0, 1}));
        return w->WritePodVectorSection(
            std::vector<PaddedPosting>{{0, 0}});
      });
  ASSERT_TRUE(written.ok()) << written.ToString();
  auto loaded = AlphaIndex::Load(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("format version 2"),
            std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST(AlphaIndexTest, EmptyPostingsForUnknownTerm) {
  auto kb = BuildFigure1KnowledgeBase();
  ASSERT_TRUE(kb.ok());
  KspDatabase db(kb->get());
  db.BuildRTree();
  AlphaIndex alpha = AlphaIndex::Build(**kb, db.rtree(), 1);
  EXPECT_TRUE(alpha.TermPostings(999999).empty());
  EXPECT_FALSE(alpha.EntryTermDistance(0, 999999).has_value());
}

}  // namespace
}  // namespace ksp
