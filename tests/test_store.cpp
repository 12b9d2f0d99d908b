#include "kvstore/store.hpp"

#include <gtest/gtest.h>

#include "hash/hashes.hpp"

namespace memfss::kvstore {
namespace {

Blob bytes_blob(std::string_view s) {
  return Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

TEST(Blob, MaterializedProperties) {
  auto b = bytes_blob("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_FALSE(b.is_ghost());
  EXPECT_EQ(bytes_blob("hello").checksum(), b.checksum());
  EXPECT_NE(bytes_blob("hellp").checksum(), b.checksum());
}

TEST(Blob, GhostProperties) {
  auto g = Blob::ghost(1 << 20, 42);
  EXPECT_EQ(g.size(), 1u << 20);
  EXPECT_TRUE(g.is_ghost());
  EXPECT_EQ(Blob::ghost(1 << 20, 42), g);
  EXPECT_FALSE(Blob::ghost(1 << 20, 43) == g);
}

TEST(Blob, MaterializedChecksumIsCrc32cOfTheBytes) {
  // The one payload checksum, zero-extended into the u64 field; ghosts
  // keep their size/tag mix.
  EXPECT_EQ(bytes_blob("123456789").checksum(), 0xE3069283u);
  EXPECT_EQ(bytes_blob("").checksum(), 0u);
  std::vector<std::uint8_t> shard(16 * 1024);
  for (std::size_t i = 0; i < shard.size(); ++i)
    shard[i] = std::uint8_t(i * 37 + 101);
  const auto b = Blob::materialized(shard);
  EXPECT_EQ(b.checksum(), hash::crc32c(shard.data(), shard.size()));
  EXPECT_TRUE(b.verify());
  EXPECT_EQ(Blob::ghost(1000, 5).checksum(), hash::mix64(1000, 5));
}

// --- the share contract ------------------------------------------------------

TEST(Blob, ACopySharesItsBytes) {
  const Blob b = bytes_blob("shared bytes");
  Blob c = b;
  EXPECT_EQ(c.bytes().data(), b.bytes().data());
  EXPECT_EQ(c, b);
  EXPECT_TRUE(c.verify());
  // Moving a share moves it; the bytes stay where they are.
  const Blob d = std::move(c);
  EXPECT_EQ(d.bytes().data(), b.bytes().data());
}

TEST(Blob, OverwriteOfASharedResidentReplacesItAndKeepsTheShare) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "k", bytes_blob("aaaa")).ok());
  const Bytes used = st.used();
  const Blob held = st.get("t", "k").value();
  const auto* resident = st.peek("k")->bytes().data();
  EXPECT_EQ(held.bytes().data(), resident);
  ASSERT_TRUE(st.put("t", "k", bytes_blob("bbbb")).ok());
  // The store now holds the new value in another buffer; the share
  // still sees the bytes it was handed.
  EXPECT_NE(st.peek("k")->bytes().data(), resident);
  EXPECT_EQ(*st.peek("k"), bytes_blob("bbbb"));
  EXPECT_EQ(held.bytes().data(), resident);
  EXPECT_EQ(held, bytes_blob("aaaa"));
  EXPECT_TRUE(held.verify());
  EXPECT_EQ(st.used(), used);  // charged per key, not per buffer
}

TEST(Blob, OverwriteOfASoleResidentWritesInPlace) {
  Blob a = bytes_blob("aaaa");
  const auto* p = a.bytes().data();
  EXPECT_TRUE(a.overwrite_same_size(bytes_blob("bbbb")));
  EXPECT_EQ(a.bytes().data(), p);
  EXPECT_EQ(a, bytes_blob("bbbb"));
  EXPECT_TRUE(a.verify());
  {
    const Blob share = a;
    EXPECT_FALSE(a.overwrite_same_size(bytes_blob("cccc")));
    EXPECT_EQ(a, bytes_blob("bbbb"));
    EXPECT_EQ(share, bytes_blob("bbbb"));
  }
  // The only share again: in place once more.
  EXPECT_TRUE(a.overwrite_same_size(bytes_blob("cccc")));
  EXPECT_EQ(a.bytes().data(), p);
  EXPECT_EQ(a, bytes_blob("cccc"));
  // Not the same size, or a ghost on either side: never in place.
  EXPECT_FALSE(a.overwrite_same_size(bytes_blob("ddddd")));
  EXPECT_FALSE(a.overwrite_same_size(Blob::ghost(4, 1)));
  Blob g = Blob::ghost(4, 1);
  EXPECT_FALSE(g.overwrite_same_size(bytes_blob("eeee")));
}

TEST(Blob, CorruptingOneShareLeavesTheOthersVerifying) {
  const Blob a = bytes_blob("payload");
  Blob b = a;
  const Blob c = a;
  b.corrupt_for_test();
  EXPECT_FALSE(b.verify());
  EXPECT_NE(b.bytes().data(), a.bytes().data());  // cloned before the flip
  EXPECT_TRUE(a.verify());
  EXPECT_TRUE(c.verify());
  EXPECT_EQ(a, bytes_blob("payload"));
  EXPECT_EQ(c.bytes().data(), a.bytes().data());
  // The sole share of a buffer is flipped where it is.
  Blob d = bytes_blob("payload");
  const auto* p = d.bytes().data();
  d.corrupt_for_test();
  EXPECT_EQ(d.bytes().data(), p);
  EXPECT_FALSE(d.verify());
}

TEST(Blob, EqualityAndVerifyCompareBytes) {
  // Equal bytes in two buffers compare equal.
  const Blob a = bytes_blob("same"), b = bytes_blob("same");
  EXPECT_NE(a.bytes().data(), b.bytes().data());
  EXPECT_EQ(a, b);
  // Same size and checksum but other bytes: not equal, and the flipped
  // one no longer verifies against its checksum.
  Blob c = a;
  c.corrupt_for_test();
  EXPECT_EQ(c.size(), a.size());
  EXPECT_EQ(c.checksum(), a.checksum());
  EXPECT_FALSE(c == a);
  EXPECT_FALSE(c.verify());
  EXPECT_TRUE(a.verify());
  // A ghost never equals the materialized value of its size.
  EXPECT_FALSE(Blob::ghost(4, 0) == a);
}

TEST(Store, PutGetRoundtrip) {
  Store st(1 << 20, "tok");
  ASSERT_TRUE(st.put("tok", "k", bytes_blob("v")).ok());
  auto r = st.get("tok", "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes_blob("v"));
  EXPECT_EQ(st.key_count(), 1u);
}

TEST(Store, GetMissingIsNotFound) {
  Store st(1 << 20, "tok");
  EXPECT_EQ(st.get("tok", "nope").code(), Errc::not_found);
  EXPECT_EQ(st.stats().misses, 1u);
}

TEST(Store, AuthRejectsBadToken) {
  Store st(1 << 20, "secret");
  EXPECT_EQ(st.put("wrong", "k", bytes_blob("v")).code(), Errc::permission);
  EXPECT_EQ(st.get("wrong", "k").code(), Errc::permission);
  EXPECT_EQ(st.stats().auth_failures, 2u);
}

TEST(Store, EmptyTokenDisablesAuth) {
  Store st(1 << 20);
  EXPECT_TRUE(st.put("anything", "k", bytes_blob("v")).ok());
}

TEST(Store, CapacityEnforced) {
  Store st(Store::kPerKeyOverhead + 10, "t");
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  EXPECT_EQ(st.put("t", "b", Blob::ghost(1)).code(), Errc::out_of_memory);
  EXPECT_EQ(st.key_count(), 1u);
}

TEST(Store, OverwriteReusesSpace) {
  Store st(Store::kPerKeyOverhead + 10, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  // Same key, same size: allowed even though the store is full.
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(4)).ok());
  EXPECT_EQ(st.used(), Store::kPerKeyOverhead + 4);
}

// A same-size overwrite of a materialized value copies into the
// resident buffer: the bytes stay where they were first allocated.
TEST(Store, SameSizeOverwriteReusesResidentBuffer) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "k", bytes_blob("aaaa")).ok());
  const auto* resident = st.peek("k")->bytes().data();
  const Bytes used = st.used();
  ASSERT_TRUE(st.put("t", "k", bytes_blob("bbbb")).ok());
  const Blob* now = st.peek("k");
  EXPECT_EQ(now->bytes().data(), resident);
  EXPECT_EQ(*now, bytes_blob("bbbb"));  // size, checksum and bytes
  EXPECT_TRUE(now->verify());
  EXPECT_EQ(st.used(), used);
  EXPECT_EQ(st.key_count(), 1u);
  EXPECT_EQ(st.stats().puts, 2u);
  EXPECT_EQ(st.stats().bytes_in, 8u);
  EXPECT_EQ(st.get("t", "k").value(), bytes_blob("bbbb"));

  // restore() takes the same path.
  ASSERT_TRUE(st.restore("k", bytes_blob("cccc")).ok());
  EXPECT_EQ(st.peek("k")->bytes().data(), resident);
  EXPECT_EQ(*st.peek("k"), bytes_blob("cccc"));
  EXPECT_EQ(st.used(), used);
}

TEST(Store, OtherOverwritesReplaceTheValue) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "k", bytes_blob("aaaa")).ok());
  // Different size.
  ASSERT_TRUE(st.put("t", "k", bytes_blob("bbbbbb")).ok());
  EXPECT_EQ(*st.peek("k"), bytes_blob("bbbbbb"));
  EXPECT_EQ(st.used(), Store::kPerKeyOverhead + 6);
  // Materialized -> ghost of the same size.
  ASSERT_TRUE(st.put("t", "k", Blob::ghost(6, 1)).ok());
  EXPECT_TRUE(st.peek("k")->is_ghost());
  EXPECT_EQ(*st.peek("k"), Blob::ghost(6, 1));
  // Ghost -> ghost, then ghost -> materialized, both of the same size.
  ASSERT_TRUE(st.put("t", "k", Blob::ghost(6, 2)).ok());
  EXPECT_EQ(*st.peek("k"), Blob::ghost(6, 2));
  ASSERT_TRUE(st.restore("k", bytes_blob("cccccc")).ok());
  EXPECT_FALSE(st.peek("k")->is_ghost());
  EXPECT_EQ(*st.peek("k"), bytes_blob("cccccc"));
  EXPECT_EQ(st.used(), Store::kPerKeyOverhead + 6);
}

TEST(Store, CorruptedValuesOverwriteAsBefore) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "k", bytes_blob("aaaa")).ok());
  ASSERT_TRUE(st.corrupt_for_test("k").ok());
  EXPECT_FALSE(st.peek("k")->verify());
  // A good same-size value heals the key.
  ASSERT_TRUE(st.put("t", "k", bytes_blob("bbbb")).ok());
  EXPECT_TRUE(st.peek("k")->verify());
  EXPECT_EQ(*st.peek("k"), bytes_blob("bbbb"));
  // A corrupted same-size value stays detectably corrupt.
  Blob bad = bytes_blob("cccc");
  bad.corrupt_for_test();
  ASSERT_TRUE(st.put("t", "k", bad).ok());
  EXPECT_FALSE(st.peek("k")->verify());
  EXPECT_EQ(*st.peek("k"), bad);
  // Corrupted ghosts keep failing verify() across a ghost overwrite.
  Blob ghost = Blob::ghost(4, 3);
  ghost.corrupt_for_test();
  ASSERT_TRUE(st.put("t", "k", ghost).ok());
  EXPECT_FALSE(st.peek("k")->verify());
}

TEST(Store, DeleteFreesSpace) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(100)).ok());
  const auto used = st.used();
  EXPECT_GT(used, 100u);
  ASSERT_TRUE(st.del("t", "a").ok());
  EXPECT_EQ(st.used(), 0u);
  EXPECT_EQ(st.del("t", "a").code(), Errc::not_found);
}

TEST(Store, ExistsAndValueSize) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(77)).ok());
  EXPECT_TRUE(st.exists("t", "a").value());
  EXPECT_FALSE(st.exists("t", "b").value());
  EXPECT_EQ(st.value_size("t", "a").value(), 77u);
  EXPECT_EQ(st.value_size("t", "b").code(), Errc::not_found);
}

TEST(Store, KeysListsEverything) {
  Store st(1 << 20, "t");
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(st.put("t", "k" + std::to_string(i), Blob::ghost(1)).ok());
  auto keys = st.keys();
  EXPECT_EQ(keys.size(), 5u);
}

TEST(Store, CloseMakesUnavailableButDrainable) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", bytes_blob("data")).ok());
  st.close();
  EXPECT_EQ(st.get("t", "a").code(), Errc::unavailable);
  EXPECT_EQ(st.put("t", "b", Blob::ghost(1)).code(), Errc::unavailable);
  auto drained = st.drain("a");
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(*drained, bytes_blob("data"));
  EXPECT_EQ(st.used(), 0u);
  EXPECT_FALSE(st.drain("a").has_value());
}

TEST(Store, ClearReturnsAccountedBytes) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(100)).ok());
  ASSERT_TRUE(st.put("t", "b", Blob::ghost(50)).ok());
  const auto freed = st.clear();
  EXPECT_EQ(freed, 150u + 2 * Store::kPerKeyOverhead);
  EXPECT_EQ(st.used(), 0u);
  EXPECT_EQ(st.key_count(), 0u);
}

// Every mutation reports what it charged and released and whose bytes it
// dropped; quote_put predicts put's report without writing.
TEST(Store, MutationsReportTheirDelta) {
  constexpr Bytes kOv = Store::kPerKeyOverhead;
  Store st(1 << 20, "t");
  const auto fresh = st.quote_put("k", 100);
  EXPECT_EQ(fresh.charged, Store::charge(100));
  EXPECT_EQ(fresh.released, 0u);
  Store::Delta d;
  ASSERT_TRUE(st.put("t", "k", Blob::ghost(100), 7, &d).ok());
  EXPECT_EQ(d.charged, fresh.charged);
  EXPECT_EQ(d.released, 0u);

  const auto over = st.quote_put("k", 40);
  ASSERT_TRUE(st.put("t", "k", Blob::ghost(40), 9, &d).ok());
  EXPECT_EQ(d.charged, 40 + kOv);
  EXPECT_EQ(d.released, 100 + kOv);
  EXPECT_EQ(d.prev_owner, 7u);
  EXPECT_EQ(over.charged, d.charged);
  EXPECT_EQ(over.released, d.released);
  EXPECT_EQ(over.prev_owner, d.prev_owner);
  EXPECT_EQ(st.used(), 40 + kOv);

  // A refused put reports nothing and changes nothing.
  Store::Delta untouched{1, 2, 3};
  EXPECT_EQ(st.put("t", "big", Blob::ghost(1 << 20), 1, &untouched).code(),
            Errc::out_of_memory);
  EXPECT_EQ(untouched.charged, 1u);
  EXPECT_EQ(st.used(), 40 + kOv);

  ASSERT_TRUE(st.drain("k", &d).has_value());
  EXPECT_EQ(d.charged, 0u);
  EXPECT_EQ(d.released, 40 + kOv);
  EXPECT_EQ(d.prev_owner, 9u);
  ASSERT_TRUE(st.restore("k", Blob::ghost(40), &d).ok());
  EXPECT_EQ(d.charged, 40 + kOv);
  EXPECT_EQ(d.released, 0u);
  ASSERT_TRUE(st.del("t", "k", &d).ok());
  EXPECT_EQ(d.released, 40 + kOv);
  EXPECT_EQ(d.prev_owner, 0u);  // restore writes owner tag 0
  EXPECT_EQ(st.used(), 0u);
}

TEST(Store, StatsAccumulate) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  (void)st.get("t", "a");
  (void)st.get("t", "zzz");
  EXPECT_EQ(st.stats().puts, 1u);
  EXPECT_EQ(st.stats().gets, 2u);
  EXPECT_EQ(st.stats().hits, 1u);
  EXPECT_EQ(st.stats().misses, 1u);
  EXPECT_EQ(st.stats().bytes_in, 10u);
  EXPECT_EQ(st.stats().bytes_out, 10u);
}

}  // namespace
}  // namespace memfss::kvstore
