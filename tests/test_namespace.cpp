#include "fs/namespace.hpp"

#include <gtest/gtest.h>

namespace memfss::fs {
namespace {

FileAttr attr(Bytes stripe = 4096) {
  FileAttr a;
  a.stripe_size = stripe;
  return a;
}

TEST(Namespace, FreshHasOnlyRoot) {
  Namespace ns;
  EXPECT_EQ(ns.dir_count(), 1u);
  EXPECT_EQ(ns.file_count(), 0u);
  EXPECT_TRUE(ns.readdir("/").value().empty());
}

TEST(Namespace, MkdirAndReaddir) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.mkdir("/a/b").ok());
  EXPECT_EQ(ns.readdir("/").value(), (std::vector<std::string>{"a"}));
  EXPECT_EQ(ns.readdir("/a").value(), (std::vector<std::string>{"b"}));
}

TEST(Namespace, MkdirRequiresParent) {
  Namespace ns;
  EXPECT_EQ(ns.mkdir("/x/y").code(), Errc::not_found);
  EXPECT_TRUE(ns.mkdirs("/x/y/z").ok());
  EXPECT_TRUE(ns.exists("/x/y/z"));
}

TEST(Namespace, MkdirsIdempotent) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/a/b").ok());
  EXPECT_TRUE(ns.mkdirs("/a/b").ok());
  EXPECT_EQ(ns.dir_count(), 3u);
}

TEST(Namespace, MkdirDuplicateFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  EXPECT_EQ(ns.mkdir("/a").code(), Errc::already_exists);
}

TEST(Namespace, CreateAndStat) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/d").ok());
  auto ino = ns.create("/d/f", attr(100));
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ns.set_size(ino.value(), 250).ok());
  auto st = ns.stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st.value().is_directory);
  EXPECT_EQ(st.value().attr.size, 250u);
  EXPECT_EQ(st.value().stripe_count, 3u);
  EXPECT_EQ(st.value().inode, ino.value());
}

TEST(Namespace, CreateRejectsBadInputs) {
  Namespace ns;
  EXPECT_EQ(ns.create("/f", FileAttr{}).code(), Errc::invalid_argument);
  EXPECT_EQ(ns.create("/no/parent", attr()).code(), Errc::not_found);
  ASSERT_TRUE(ns.create("/f", attr()).ok());
  EXPECT_EQ(ns.create("/f", attr()).code(), Errc::already_exists);
}

TEST(Namespace, FileAsDirectoryComponentFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create("/f", attr()).ok());
  EXPECT_EQ(ns.create("/f/sub", attr()).code(), Errc::not_a_directory);
  EXPECT_EQ(ns.readdir("/f").code(), Errc::not_a_directory);
}

TEST(Namespace, UnlinkReturnsStatAndRemoves) {
  Namespace ns;
  auto ino = ns.create("/f", attr(10));
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ns.set_size(ino.value(), 95).ok());
  auto removed = ns.unlink("/f");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value().stripe_count, 10u);
  EXPECT_FALSE(ns.exists("/f"));
  EXPECT_EQ(ns.unlink("/f").code(), Errc::not_found);
  EXPECT_EQ(ns.file_count(), 0u);
}

TEST(Namespace, UnlinkDirectoryFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.unlink("/d").code(), Errc::is_a_directory);
}

TEST(Namespace, RmdirOnlyEmpty) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/d/e").ok());
  EXPECT_EQ(ns.rmdir("/d").code(), Errc::not_empty);
  ASSERT_TRUE(ns.rmdir("/d/e").ok());
  ASSERT_TRUE(ns.rmdir("/d").ok());
  EXPECT_EQ(ns.rmdir("/").code(), Errc::invalid_argument);
}

TEST(Namespace, RenameFileKeepsInode) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/a").ok());
  ASSERT_TRUE(ns.mkdirs("/b").ok());
  auto ino = ns.create("/a/f", attr());
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(ns.rename("/a/f", "/b/g").ok());
  EXPECT_FALSE(ns.exists("/a/f"));
  auto st = ns.stat("/b/g");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().inode, ino.value());
}

TEST(Namespace, RenameDirectoryMovesSubtree) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/a/sub").ok());
  ASSERT_TRUE(ns.create("/a/sub/f", attr()).ok());
  ASSERT_TRUE(ns.rename("/a", "/renamed").ok());
  EXPECT_TRUE(ns.exists("/renamed/sub/f"));
}

TEST(Namespace, RenameRejectsBadMoves) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdirs("/a/b").ok());
  ASSERT_TRUE(ns.mkdir("/c").ok());
  EXPECT_EQ(ns.rename("/a", "/a/b/inside").code(), Errc::invalid_argument);
  EXPECT_EQ(ns.rename("/missing", "/x").code(), Errc::not_found);
  EXPECT_EQ(ns.rename("/a", "/c").code(), Errc::already_exists);
}

TEST(Namespace, StripeCountMath) {
  EXPECT_EQ(Namespace::stripe_count(0, 100), 0u);
  EXPECT_EQ(Namespace::stripe_count(1, 100), 1u);
  EXPECT_EQ(Namespace::stripe_count(100, 100), 1u);
  EXPECT_EQ(Namespace::stripe_count(101, 100), 2u);
}

TEST(Namespace, StripeKeyIsInodeBased) {
  EXPECT_EQ(Namespace::stripe_key(7, 3), "i7:3");
  EXPECT_NE(Namespace::stripe_key(7, 3), Namespace::stripe_key(8, 3));
}

TEST(Namespace, ParseStripeKeyRoundTripsStripeKeys) {
  const auto ref = Namespace::parse_stripe_key(Namespace::stripe_key(7, 3));
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->inode, 7u);
  EXPECT_EQ(ref->stripe, 3u);
  EXPECT_FALSE(ref->is_shard);
}

TEST(Namespace, ParseStripeKeyRoundTripsShardKeys) {
  EXPECT_EQ(Namespace::shard_key("i12:40", 5), "i12:40.s5");
  const auto ref = Namespace::parse_stripe_key(
      Namespace::shard_key(Namespace::stripe_key(12, 40), 5));
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->inode, 12u);
  EXPECT_EQ(ref->stripe, 40u);
  EXPECT_TRUE(ref->is_shard);
  EXPECT_EQ(ref->shard, 5u);
}

TEST(Namespace, ParseStripeKeyRejectsMalformedKeys) {
  for (const char* key : {"", "i1:", "i1:2.s", "i1:2.x3", "x1:2", "i:2",
                          "i1:2.s3x"})
    EXPECT_FALSE(Namespace::parse_stripe_key(key).has_value()) << key;
}

TEST(Namespace, ReaddirIsSorted) {
  Namespace ns;
  for (const char* name : {"/zeta", "/alpha", "/mid"})
    ASSERT_TRUE(ns.create(name, attr()).ok());
  EXPECT_EQ(ns.readdir("/").value(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(Namespace, StatByUnknownInode) {
  Namespace ns;
  EXPECT_EQ(ns.stat(InodeId{999}).code(), Errc::not_found);
}

}  // namespace
}  // namespace memfss::fs
