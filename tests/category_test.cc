// Tests for the category registry (sim/category.h) and for the ledger's
// independence from id order: ids depend on which thread interned a name
// first, so every rendering of a MessageStats must sort by name.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/category.h"
#include "sim/stats.h"

namespace elink {
namespace {

TEST(CategoryRegistryTest, EmptyNameIsIdZero) {
  EXPECT_EQ(InternCategory(""), 0u);
  EXPECT_TRUE(CategoryName(0).empty());
  EXPECT_FALSE(FindCategory("category_test_never_interned").has_value());
}

TEST(CategoryRegistryTest, RetxAndAckDeriveOncePerCategory) {
  const CategoryId data = InternCategory("category_test_data");
  const CategoryId retx = RetxCategory(data);
  EXPECT_EQ(CategoryName(retx), "category_test_data.retx");
  EXPECT_EQ(CategoryName(AckCategory(data)), "category_test_data.ack");
  // A retransmitted copy acks as its original.
  EXPECT_EQ(AckCategory(retx), AckCategory(data));
  EXPECT_EQ(RetxCategory(data), retx);
}

TEST(CategoryRegistryTest, ConcurrentInternsAgreeOnOneIdPerName) {
  constexpr int kThreads = 4;
  constexpr int kNames = 64;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("category_test_concurrent_" + std::to_string(i));
  }
  std::vector<std::vector<CategoryId>> ids(kThreads,
                                           std::vector<CategoryId>(kNames));
  std::vector<std::vector<CategoryId>> acks = ids;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different name; odd threads walk backwards.
      for (int k = 0; k < kNames; ++k) {
        const int step = t % 2 == 0 ? k : kNames - 1 - k;
        const int i = (step + 16 * t) % kNames;
        ids[t][i] = InternCategory(names[i]);
        EXPECT_EQ(CategoryName(ids[t][i]), names[i]);
        acks[t][i] = AckCategory(RetxCategory(ids[t][i]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::set<CategoryId> distinct;
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]) << names[i];
      EXPECT_EQ(acks[t][i], acks[0][i]) << names[i];
    }
    EXPECT_EQ(CategoryName(ids[0][i]), names[i]);
    EXPECT_EQ(FindCategory(names[i]), ids[0][i]);
    EXPECT_EQ(CategoryName(acks[0][i]), names[i] + ".ack");
    distinct.insert(ids[0][i]);
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kNames));
}

std::string Render(const std::vector<MessageStats::CategorySnapshot>& rows) {
  std::string out;
  for (const MessageStats::CategorySnapshot& c : rows) {
    out += c.category + ":" + std::to_string(c.units) + "/" +
           std::to_string(c.sends) + "/" + std::to_string(c.bytes) + "/" +
           std::to_string(c.dropped_units) + "/" +
           std::to_string(c.dropped_sends) + "/" +
           std::to_string(c.dropped_bytes) + "/" +
           std::to_string(c.decode_errors) + ";";
  }
  return out;
}

TEST(MessageStatsTest, RenderingsSortByNameWhateverTheIdOrder) {
  // The alphabetically later name is interned first, so it gets the lower id.
  const CategoryId zulu = InternCategory("category_test_zulu");
  const CategoryId alpha = InternCategory("category_test_alpha");
  ASSERT_LT(zulu, alpha);

  MessageStats a;
  a.Record(zulu, 3, 30);
  a.Record(alpha, 1, 10);
  a.RecordDropped(zulu, 2, 20);
  a.RecordDropped(alpha, 4, 40);
  a.RecordDecodeError(alpha);
  MessageStats b;  // The same charges in the opposite order.
  b.RecordDecodeError(alpha);
  b.RecordDropped(alpha, 4, 40);
  b.RecordDropped(zulu, 2, 20);
  b.Record(alpha, 1, 10);
  b.Record(zulu, 3, 30);

  EXPECT_EQ(a.ToString(),
            "sends=2 units=4 (category_test_alpha=1, category_test_zulu=3) "
            "dropped=2/6 decode_errors=1");
  EXPECT_EQ(b.ToString(), a.ToString());
  EXPECT_EQ(Render(a.Snapshot()),
            "category_test_alpha:1/1/10/4/1/40/1;"
            "category_test_zulu:3/1/30/2/1/20/0;");
  EXPECT_EQ(Render(b.Snapshot()), Render(a.Snapshot()));
  EXPECT_EQ(a.units_by_category(),
            (std::map<std::string, uint64_t>{{"category_test_alpha", 1},
                                             {"category_test_zulu", 3}}));
  EXPECT_EQ(b.units_by_category(), a.units_by_category());
  EXPECT_EQ(a.dropped_by_category(),
            (std::map<std::string, uint64_t>{{"category_test_alpha", 4},
                                             {"category_test_zulu", 2}}));
  EXPECT_EQ(b.dropped_by_category(), a.dropped_by_category());

  MessageStats ab = a;
  ab.Merge(b);
  MessageStats ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.ToString(),
            "sends=4 units=8 (category_test_alpha=2, category_test_zulu=6) "
            "dropped=4/12 decode_errors=2");
  EXPECT_EQ(ba.ToString(), ab.ToString());
  EXPECT_EQ(Render(ba.Snapshot()), Render(ab.Snapshot()));
}

}  // namespace
}  // namespace elink
