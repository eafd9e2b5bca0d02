// Tests for the COO tensor container: construction, sorting, coalescing,
// distinct-tuple counting, norms, validation and the memoised content id.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "io/generate.hpp"
#include "tensor/coo.hpp"
#include "util/prng.hpp"

namespace ust {
namespace {

CooTensor small_tensor() {
  CooTensor t({2, 3, 4});
  const std::vector<std::vector<index_t>> coords{
      {1, 2, 3}, {0, 0, 0}, {1, 0, 2}, {0, 2, 1}, {1, 2, 0}};
  float v = 1.0f;
  for (const auto& c : coords) t.push_back(c, v++);
  return t;
}

TEST(Coo, ConstructionAndAccessors) {
  const CooTensor t = small_tensor();
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_EQ(t.nnz(), 5u);
  EXPECT_NEAR(t.density(), 5.0 / 24.0, 1e-12);
  EXPECT_EQ(t.index(0, 1), 2u);
  EXPECT_FLOAT_EQ(t.value(0), 1.0f);
}

TEST(Coo, PushBackRejectsOutOfBounds) {
  CooTensor t({2, 2});
  const std::vector<index_t> bad{2, 0};
  EXPECT_THROW(t.push_back(bad, 1.0f), ContractViolation);
  const std::vector<index_t> wrong_arity{0};
  EXPECT_THROW(t.push_back(wrong_arity, 1.0f), ContractViolation);
}

TEST(Coo, SortByModesLexicographic) {
  CooTensor t = small_tensor();
  const std::vector<int> order{0, 1, 2};
  t.sort_by_modes(order);
  EXPECT_TRUE(t.is_sorted_by(order));
  for (nnz_t x = 1; x < t.nnz(); ++x) {
    const bool le = std::tuple(t.index(x - 1, 0), t.index(x - 1, 1), t.index(x - 1, 2)) <=
                    std::tuple(t.index(x, 0), t.index(x, 1), t.index(x, 2));
    EXPECT_TRUE(le);
  }
}

TEST(Coo, SortByPermutedModeOrder) {
  CooTensor t = small_tensor();
  const std::vector<int> order{2, 0, 1};
  t.sort_by_modes(order);
  EXPECT_TRUE(t.is_sorted_by(order));
  const std::vector<int> natural{0, 1, 2};
  EXPECT_FALSE(t.is_sorted_by(natural));  // for this data
}

TEST(Coo, SortPreservesIndexValuePairs) {
  CooTensor t = small_tensor();
  const std::vector<int> order{1, 2, 0};
  t.sort_by_modes(order);
  // (1,2,3) had value 1; find it again.
  bool found = false;
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    if (t.index(x, 0) == 1 && t.index(x, 1) == 2 && t.index(x, 2) == 3) {
      EXPECT_FLOAT_EQ(t.value(x), 1.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Coo, CoalesceSumsDuplicatesAndDropsZeros) {
  CooTensor t({2, 2});
  const std::vector<index_t> a{0, 1};
  const std::vector<index_t> b{1, 1};
  t.push_back(a, 2.0f);
  t.push_back(a, 3.0f);
  t.push_back(b, 1.0f);
  t.push_back(b, -1.0f);  // cancels to zero
  const std::vector<int> order{0, 1};
  t.sort_by_modes(order);
  const nnz_t removed = t.coalesce();
  EXPECT_EQ(removed, 3u);
  ASSERT_EQ(t.nnz(), 1u);
  EXPECT_EQ(t.index(0, 0), 0u);
  EXPECT_EQ(t.index(0, 1), 1u);
  EXPECT_FLOAT_EQ(t.value(0), 5.0f);
}

TEST(Coo, CoalesceEmptyTensor) {
  CooTensor t({3, 3});
  EXPECT_EQ(t.coalesce(), 0u);
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(Coo, CountDistinctTuples) {
  const CooTensor t = small_tensor();
  const std::vector<int> mode0{0};
  EXPECT_EQ(t.count_distinct(mode0), 2u);  // i in {0,1}
  const std::vector<int> modes01{0, 1};
  EXPECT_EQ(t.count_distinct(modes01), 4u);  // (1,2),(0,0),(1,0),(0,2)
}

TEST(Coo, FrobeniusNorm) {
  CooTensor t({2, 2});
  const std::vector<index_t> a{0, 0};
  const std::vector<index_t> b{1, 1};
  t.push_back(a, 3.0f);
  t.push_back(b, 4.0f);
  EXPECT_NEAR(t.frobenius_norm(), 5.0, 1e-12);
}

TEST(Coo, StorageBytesMatchesTable2CooRow) {
  // Table II: COO of a 3-order tensor costs 16 bytes per non-zero.
  const CooTensor t = small_tensor();
  EXPECT_EQ(t.storage_bytes(), t.nnz() * 16);
}

TEST(Coo, DescribeMentionsShapeAndNnz) {
  const CooTensor t = small_tensor();
  const std::string d = t.describe();
  EXPECT_NE(d.find("2 x 3 x 4"), std::string::npos);
  EXPECT_NE(d.find("nnz=5"), std::string::npos);
}

TEST(Coo, ValidatePassesOnWellFormed) {
  const CooTensor t = small_tensor();
  EXPECT_NO_THROW(t.validate());
}

TEST(Coo, ModesFrontBuildsSortOrders) {
  const std::vector<int> front{2};
  const auto order = modes_front(3, front);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  const std::vector<int> front2{1, 0};
  EXPECT_EQ(modes_front(3, front2), (std::vector<int>{1, 0, 2}));
  const std::vector<int> dup{1, 1};
  EXPECT_THROW(modes_front(3, dup), ContractViolation);
}

// Property: sorting by any permutation then coalescing yields the same
// multiset of (coordinate, summed value).
TEST(Coo, SortOrderDoesNotAffectCoalescedContent) {
  const CooTensor base = io::generate_uniform({7, 5, 6}, 80, 99);
  auto canonical = [](CooTensor t) {
    const std::vector<int> order{0, 1, 2};
    t.sort_by_modes(order);
    t.coalesce();
    return t;
  };
  const CooTensor ref = canonical(base);
  for (const std::vector<int>& perm :
       {std::vector<int>{1, 2, 0}, std::vector<int>{2, 1, 0}}) {
    CooTensor t = base;
    t.sort_by_modes(perm);
    t.coalesce();
    const CooTensor norm = canonical(t);
    ASSERT_EQ(norm.nnz(), ref.nnz());
    for (nnz_t x = 0; x < ref.nnz(); ++x) {
      for (int m = 0; m < 3; ++m) EXPECT_EQ(norm.index(x, m), ref.index(x, m));
      EXPECT_FLOAT_EQ(norm.value(x), ref.value(x));
    }
  }
}

TEST(Coo, ContentIdIsMemoisedAndTracksContent) {
  const CooTensor t = small_tensor();
  EXPECT_FALSE(t.has_content_id());
  const std::uint64_t id = t.content_id();
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(t.has_content_id());
  EXPECT_EQ(t.content_id(), id);
  // Equal content built separately hashes equal; any changed value, index
  // or shape hashes differently.
  EXPECT_EQ(small_tensor().content_id(), id);
  CooTensor v = small_tensor();
  v.values()[4] += 1.0f;
  EXPECT_NE(v.content_id(), id);
  CooTensor i = small_tensor();
  i.mode_indices(2)[0] = 2;
  EXPECT_NE(i.content_id(), id);
  CooTensor d({2, 3, 5});
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    const std::vector<index_t> c{t.index(x, 0), t.index(x, 1), t.index(x, 2)};
    d.push_back(c, t.value(x));
  }
  EXPECT_NE(d.content_id(), id);
}

TEST(Coo, EveryMutatorClearsContentId) {
  const std::vector<int> order{2, 0, 1};
  const std::vector<std::pair<const char*, std::function<void(CooTensor&)>>> mutators{
      {"push_back", [](CooTensor& t) { t.push_back(std::vector<index_t>{0, 1, 1}, 9.0f); }},
      {"reserve", [](CooTensor& t) { t.reserve(64); }},
      {"sort_by_modes", [&](CooTensor& t) { t.sort_by_modes(order); }},
      {"coalesce",
       [&](CooTensor& t) {
         t.sort_by_modes(order);
         (void)t.content_id();
         t.coalesce();
       }},
      {"mode_indices", [](CooTensor& t) { (void)t.mode_indices(1); }},
      {"values", [](CooTensor& t) { (void)t.values(); }},
  };
  for (const auto& [name, mutate] : mutators) {
    CooTensor t = small_tensor();
    (void)t.content_id();
    ASSERT_TRUE(t.has_content_id()) << name;
    mutate(t);
    EXPECT_FALSE(t.has_content_id()) << name;
  }
  // Const access never clears.
  const CooTensor t = small_tensor();
  (void)t.content_id();
  (void)t.values();
  (void)t.mode_indices(0);
  EXPECT_TRUE(t.has_content_id());
}

TEST(Coo, CopyKeepsContentIdAndMovedFromRecomputes) {
  const CooTensor src = small_tensor();
  const std::uint64_t id = src.content_id();

  const CooTensor copy = src;
  EXPECT_TRUE(copy.has_content_id());
  EXPECT_EQ(copy.content_id(), id);
  CooTensor assigned(std::vector<index_t>{1});
  assigned = src;
  EXPECT_TRUE(assigned.has_content_id());
  EXPECT_EQ(assigned.content_id(), id);

  CooTensor from = src;
  const CooTensor moved = std::move(from);
  EXPECT_TRUE(moved.has_content_id());
  EXPECT_EQ(moved.content_id(), id);
  // The moved-from tensor lost its content along with its id: its id is
  // recomputed from what it holds now.
  EXPECT_FALSE(from.has_content_id());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(from.content_id(), CooTensor().content_id());

  CooTensor from2 = src;
  CooTensor target = small_tensor();
  target.values()[0] = 42.0f;
  (void)target.content_id();
  target = std::move(from2);
  EXPECT_EQ(target.content_id(), id);
  EXPECT_FALSE(from2.has_content_id());  // NOLINT(bugprone-use-after-move)
}

// Concurrent const readers may race to compute the memo; every racer must
// see the same id (and the tsan preset must stay clean).
TEST(Coo, ConcurrentConstReadersAgreeOnContentId) {
  const CooTensor base = io::generate_uniform({60, 70, 80}, 50000, 77);
  const std::uint64_t want = CooTensor(base).content_id();
  for (int round = 0; round < 4; ++round) {
    const CooTensor t = io::generate_uniform({60, 70, 80}, 50000, 77);
    ASSERT_FALSE(t.has_content_id());
    std::uint64_t a = 0, b = 0;
    std::thread ta([&] { a = t.content_id(); });
    std::thread tb([&] { b = t.content_id(); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, want);
    EXPECT_EQ(b, want);
    EXPECT_EQ(t.content_id(), want);
  }
}

}  // namespace
}  // namespace ust
