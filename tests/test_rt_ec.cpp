// Erasure-coded storage over ShardedStore (rt/ec.hpp, DESIGN.md §14):
// sibling layout, roundtrips, reconstruction after evictions, sweep
// semantics, the RuntimeServer dispatch for EC tenants, and concurrent
// EC traffic (this file carries the `concurrency` ctest label so the
// TSan pass covers the multi-sibling composite ops).
#include "rt/ec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hash/hashes.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {
namespace {

kvstore::Blob payload_blob(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = std::uint8_t(rng.next_u64());
  return kvstore::Blob::materialized(std::move(v));
}

kvstore::Blob bytes_blob(std::string_view s) {
  return kvstore::Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

ShardedStore::Options store_opts(Bytes capacity = 64 * units::MiB) {
  return {8, capacity, "tok"};
}

// --- manifest codec ---------------------------------------------------------

TEST(RtEcManifest, RoundtripsAllFields) {
  const ec::Manifest mf{8, 3, 123456789, 0xfeedfacecafebeefull};
  const auto blob = ec::encode_manifest(mf);
  const auto back = ec::parse_manifest(blob.bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->k, 8u);
  EXPECT_EQ(back->m, 3u);
  EXPECT_EQ(back->len, 123456789u);
  EXPECT_EQ(back->checksum, 0xfeedfacecafebeefull);
}

TEST(RtEcManifest, RejectsGarbage) {
  EXPECT_FALSE(ec::parse_manifest({}).has_value());
  std::vector<std::uint8_t> junk(24, 0xAB);
  EXPECT_FALSE(ec::parse_manifest(junk).has_value());
  auto good = ec::encode_manifest({4, 2, 10, 1});
  std::vector<std::uint8_t> short_buf(good.bytes().begin(),
                                      good.bytes().end() - 1);
  EXPECT_FALSE(ec::parse_manifest(short_buf).has_value());
  // k == 0 is structurally invalid even with good magic.
  auto zero_k = ec::encode_manifest({0, 2, 10, 1});
  EXPECT_FALSE(ec::parse_manifest(zero_k.bytes()).has_value());
}

TEST(RtEcManifest, SiblingKeyNamesAreDistinct) {
  EXPECT_NE(ec::shard_key("k", 0), ec::shard_key("k", 1));
  EXPECT_NE(ec::shard_key("k", 0), ec::manifest_key("k"));
  EXPECT_NE(ec::manifest_key("k"), ec::manifest_key("k2"));
  // Sibling names of different logical keys never collide.
  EXPECT_NE(ec::shard_key("k", 12), ec::shard_key("k1", 2));
}

// --- put / get / del over the store -----------------------------------------

TEST(RtEc, PutGetRoundtripVariousSizes) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4096}, std::size_t{100001}}) {
    const std::string key = "obj-" + std::to_string(len);
    const auto value = payload_blob(len, 7 + len);
    ASSERT_TRUE(ec::put(store, "tok", key, value, rs).ok()) << len;
    bool reconstructed = true;
    auto got = ec::get(store, "tok", key, nullptr, &reconstructed);
    ASSERT_TRUE(got.ok()) << len;
    EXPECT_EQ(got.value().bytes().size(), len);
    EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                           got.value().bytes().begin()))
        << len;
    EXPECT_FALSE(reconstructed) << len;  // nothing lost: fast path
  }
}

TEST(RtEc, ManifestChecksumIsPayloadCrc32cAndBytesArePinned) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  std::vector<std::uint8_t> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = std::uint8_t(i * 31 + 7);
  ASSERT_TRUE(ec::put(store, "tok", "obj",
                      kvstore::Blob::materialized(bytes), rs).ok());
  auto raw = store.get("tok", ec::manifest_key("obj"));
  ASSERT_TRUE(raw.ok());
  const auto mf = ec::parse_manifest(raw.value().bytes());
  ASSERT_TRUE(mf.has_value());
  EXPECT_EQ(mf->checksum, hash::crc32c(bytes.data(), bytes.size()));
  // Magic, version 2, k, m, pad, little-endian length, little-endian
  // CRC32C zero-extended to 64 bits (captured from an independent
  // bit-at-a-time CRC32C).
  const std::vector<std::uint8_t> want{
      'M',  'F',  'R',  'S',  2,    4,    2,    0,
      0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x97, 0xee, 0x52, 0xff, 0x00, 0x00, 0x00, 0x00};
  EXPECT_TRUE(std::equal(want.begin(), want.end(),
                         raw.value().bytes().begin(),
                         raw.value().bytes().end()));

  // An empty value's manifest holds CRC32C of no bytes: 0.
  ASSERT_TRUE(ec::put(store, "tok", "empty", kvstore::Blob{}, rs).ok());
  const auto empty =
      ec::parse_manifest(store.get("tok", ec::manifest_key("empty"))
                             .value().bytes());
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->checksum, 0u);

  // A version-1 (FNV-1a) manifest is not read as version 2.
  auto v1 = want;
  v1[4] = 1;
  EXPECT_FALSE(ec::parse_manifest(v1).has_value());
}

TEST(RtEc, PutOfGhostValueIsInvalidArgument) {
  // A ghost has a size but no bytes; striping it would store a 0-byte
  // value that reads back in place of the ghost's 1000.
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  EXPECT_EQ(ec::put(store, "tok", "ghost", kvstore::Blob::ghost(1000, 3), rs)
                .code(),
            Errc::invalid_argument);
  EXPECT_EQ(store.key_count(), 0u);
  EXPECT_EQ(ec::get(store, "tok", "ghost").code(), Errc::not_found);
}

TEST(RtEc, PutOfValueWithStaleChecksumReadsBackAsCorruption) {
  // The manifest records the value's own checksum instead of rehashing
  // the bytes, so a value whose bytes no longer match it is stored as
  // given and every later read reports corruption rather than serving
  // the damaged bytes as good.
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  auto value = payload_blob(5000, 59);
  value.corrupt_for_test();  // flips a byte, keeps the checksum
  ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs).ok());
  EXPECT_EQ(ec::get(store, "tok", "obj").code(), Errc::corruption);
  // Also when the read has to reconstruct.
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 1)).has_value());
  EXPECT_EQ(ec::get(store, "tok", "obj").code(), Errc::corruption);
}

TEST(RtEc, StripeLayoutAndOverhead) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  const std::size_t len = 40000;
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(len, 11), rs).ok());
  // Exactly k+m shard siblings plus the manifest; no plain key.
  EXPECT_EQ(store.key_count(), 7u);
  EXPECT_FALSE(store.exists("tok", "obj").value());
  EXPECT_TRUE(store.exists("tok", ec::manifest_key("obj")).value());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(store.exists("tok", ec::shard_key("obj", i)).value()) << i;
  EXPECT_FALSE(store.exists("tok", ec::shard_key("obj", 6)).value());
  // Stored payload bytes are len * (k+m)/k: the m/k EC overhead the
  // paper trades against full replication.
  std::size_t shard_bytes = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    auto s = store.get("tok", ec::shard_key("obj", i));
    ASSERT_TRUE(s.ok()) << i;
    shard_bytes += s.value().bytes().size();
  }
  EXPECT_EQ(shard_bytes, len * 6 / 4);
}

TEST(RtEc, GetReconstructsAfterDataShardEviction) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  const auto value = payload_blob(9999, 13);
  ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs).ok());
  // Evict two data siblings -- within the parity budget.
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 0)).has_value());
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 2)).has_value());
  bool reconstructed = false;
  auto got = ec::get(store, "tok", "obj", nullptr, &reconstructed);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(reconstructed);
  EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                         got.value().bytes().begin()));
}

// A degraded get decodes with the caller's coder when the stripe's
// (k, m) matches it, and with a coder for the stripe's own policy when
// it does not (a stripe written before the tenant's policy changed).
TEST(RtEc, DegradedGetDecodesWithTheStripesOwnPolicy) {
  const auto value = payload_blob(9999, 17);
  const erasure::ReedSolomon rs42(4, 2), rs32(3, 2);
  for (const erasure::ReedSolomon* coder : {&rs42, &rs32}) {
    ShardedStore store(store_opts());
    ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs42).ok());
    ASSERT_TRUE(store.evict(ec::shard_key("obj", 1)).has_value());
    bool reconstructed = false;
    auto got = ec::get(store, "tok", "obj", nullptr, &reconstructed, coder);
    ASSERT_TRUE(got.ok()) << coder->data_shards();
    EXPECT_TRUE(reconstructed);
    EXPECT_EQ(got.value(), value) << coder->data_shards();
  }
}

TEST(RtEc, GetReconstructsEveryLossPatternAtOddSizes) {
  // Sizes whose last data siblings end in padding (5 bytes over k = 4
  // leaves sibling 3 all padding), every pattern of one or two lost
  // data siblings.
  const erasure::ReedSolomon rs(4, 2);
  for (std::size_t len : {std::size_t{1}, std::size_t{5}, std::size_t{7},
                          std::size_t{4097}, std::size_t{9999}}) {
    const auto value = payload_blob(len, 29 + len);
    for (unsigned lost = 1; lost < 16; ++lost) {
      if (__builtin_popcount(lost) > 2) continue;
      ShardedStore store(store_opts());
      ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs).ok());
      for (std::size_t i = 0; i < 4; ++i) {
        if (lost & (1u << i)) {
          ASSERT_TRUE(store.evict(ec::shard_key("obj", i)).has_value());
        }
      }
      bool reconstructed = false;
      auto got = ec::get(store, "tok", "obj", nullptr, &reconstructed);
      ASSERT_TRUE(got.ok()) << len << " lost=" << lost;
      EXPECT_TRUE(reconstructed);
      EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                             got.value().bytes().begin(),
                             got.value().bytes().end()))
          << len << " lost=" << lost;
    }
  }
}

TEST(RtEc, GetReadsEachSiblingOnce) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(65536, 31), rs).ok());
  auto gets = [&] { return store.stats().gets; };
  // Clean: the manifest and the k data siblings.
  auto before = gets();
  ASSERT_TRUE(ec::get(store, "tok", "obj").ok());
  EXPECT_EQ(gets() - before, 1u + 4u);
  // One data sibling evicted: the survivors already read are reused,
  // so the parity siblings are the only extra reads.
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 1)).has_value());
  before = gets();
  bool reconstructed = false;
  ASSERT_TRUE(ec::get(store, "tok", "obj", nullptr, &reconstructed).ok());
  EXPECT_TRUE(reconstructed);
  EXPECT_EQ(gets() - before, 1u + 4u + 2u);
}

TEST(RtEc, ForgedManifestLengthIsCorruptionNotACrash) {
  // A client can write sibling keys directly. A manifest claiming
  // 2^64 - 1 bytes over k = 4 with four empty data siblings must not
  // wrap the shard size to 0 (which the empty siblings would match) and
  // then try to reserve 2^64 - 1 bytes.
  ShardedStore store(store_opts());
  ASSERT_TRUE(store.put("tok", ec::manifest_key("obj"),
                        ec::encode_manifest({4, 2, ~std::uint64_t{0}, 0}))
                  .ok());
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(
        store.put("tok", ec::shard_key("obj", i), kvstore::Blob::materialized({}))
            .ok());
  auto got = ec::get(store, "tok", "obj");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), Errc::corruption);
}

TEST(RtEc, GetSurvivesParityEvictionWithoutReconstruct) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  const auto value = payload_blob(5000, 17);
  ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs).ok());
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 4)).has_value());
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 5)).has_value());
  bool reconstructed = true;
  auto got = ec::get(store, "tok", "obj", nullptr, &reconstructed);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(reconstructed);  // all data siblings intact: fast path
}

TEST(RtEc, GetFailsBeyondParityBudget) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(5000, 19), rs).ok());
  for (std::size_t i : {0, 1, 2})  // 3 losses > m = 2
    ASSERT_TRUE(store.evict(ec::shard_key("obj", i)).has_value());
  auto got = ec::get(store, "tok", "obj");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), Errc::corruption);
}

TEST(RtEc, DelSweepsEverySiblingAndAccounting) {
  TenantRegistry tenants;
  auto opts = store_opts();
  opts.tenants = &tenants;
  ShardedStore store(opts);
  const erasure::ReedSolomon rs(4, 2);
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(8192, 23), rs,
                      nullptr, 0).ok());
  EXPECT_GT(store.used(), 0u);
  EXPECT_GT(tenants.memory_used(0), 0u);
  std::uint64_t seq = 0;
  ASSERT_TRUE(ec::del(store, "tok", "obj", &seq).ok());
  EXPECT_GT(seq, 0u);
  EXPECT_EQ(store.key_count(), 0u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_EQ(tenants.memory_used(0), 0u);
  // Second delete: nothing left.
  EXPECT_EQ(ec::del(store, "tok", "obj").code(), Errc::not_found);
}

TEST(RtEc, ExistsSeesStripesAndPlainKeys) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  EXPECT_FALSE(ec::exists(store, "tok", "obj").value());
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(100, 29), rs).ok());
  EXPECT_TRUE(ec::exists(store, "tok", "obj").value());
  ASSERT_TRUE(store.put("tok", "plain", bytes_blob("v")).ok());
  EXPECT_TRUE(ec::exists(store, "tok", "plain").value());
}

TEST(RtEc, GetFallsBackToPlainPrePolicyKeys) {
  // Keys written before the tenant's policy was enabled have no
  // manifest; get must serve them verbatim.
  ShardedStore store(store_opts());
  ASSERT_TRUE(store.put("tok", "old", bytes_blob("legacy-value")).ok());
  auto got = ec::get(store, "tok", "old");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), bytes_blob("legacy-value"));
}

TEST(RtEc, OverwriteReplacesStripeAndSweepsWiderStale) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon wide(6, 3), narrow(2, 1);
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(6000, 31), wide).ok());
  EXPECT_EQ(store.key_count(), 10u);  // 9 shards + manifest
  const auto value = payload_blob(500, 37);
  ASSERT_TRUE(ec::put(store, "tok", "obj", value, narrow).ok());
  // Old stripe's siblings beyond the new width are swept.
  EXPECT_EQ(store.key_count(), 4u);  // 3 shards + manifest
  for (std::size_t i = 3; i < 9; ++i)
    EXPECT_FALSE(store.exists("tok", ec::shard_key("obj", i)).value()) << i;
  auto got = ec::get(store, "tok", "obj");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                         got.value().bytes().begin()));
}

TEST(RtEc, PutReplacesPlainValueUnderSameKey) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  ASSERT_TRUE(store.put("tok", "obj", bytes_blob("plain-old")).ok());
  const auto value = payload_blob(1000, 41);
  ASSERT_TRUE(ec::put(store, "tok", "obj", value, rs).ok());
  EXPECT_FALSE(store.exists("tok", "obj").value());  // plain copy gone
  auto got = ec::get(store, "tok", "obj");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                         got.value().bytes().begin()));
}

TEST(RtEc, FailedPutRollsBackPartialStripe) {
  // Capacity fits only part of the stripe: the put must fail with
  // out_of_memory and leave no sibling behind.
  const erasure::ReedSolomon rs(4, 2);
  const std::size_t len = 64 * 1024;
  ShardedStore store(store_opts(3 * rs.shard_size(len)));
  auto st = ec::put(store, "tok", "obj", payload_blob(len, 43), rs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::out_of_memory);
  EXPECT_EQ(store.key_count(), 0u);
  EXPECT_EQ(store.used(), 0u);
  EXPECT_FALSE(ec::exists(store, "tok", "obj").value());
}

TEST(RtEc, BadTokenIsPermissionEverywhere) {
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  ASSERT_TRUE(ec::put(store, "tok", "obj", payload_blob(100, 47), rs).ok());
  EXPECT_EQ(ec::put(store, "bad", "obj", payload_blob(100, 47), rs).code(),
            Errc::permission);
  EXPECT_EQ(ec::get(store, "bad", "obj").code(), Errc::permission);
  EXPECT_EQ(ec::del(store, "bad", "obj").code(), Errc::permission);
  EXPECT_EQ(ec::exists(store, "bad", "obj").code(), Errc::permission);
}

// --- RuntimeServer dispatch -------------------------------------------------

TEST(RtEc, ServerRoutesEcTenantThroughStripes) {
  TenantRegistry tenants;
  TenantConfig cfg;
  cfg.name = "ec-tenant";
  cfg.rs = {4, 2};
  const auto id = tenants.register_tenant(cfg);
  ASSERT_TRUE(id.ok());

  auto opts = store_opts();
  opts.tenants = &tenants;
  ShardedStore store(opts);
  RuntimeServer::Options sopt;
  sopt.threads = 2;
  sopt.tenants = &tenants;
  RuntimeServer server(store, sopt);

  const auto value = payload_blob(10000, 53);
  Op put{Op::Type::put, "obj", value, id.value()};
  auto pr = server.submit("tok", std::move(put)).get();
  ASSERT_EQ(pr.code, Errc::ok);
  ASSERT_TRUE(pr.seq.has_value());

  // The stripe, not the plain key, landed in the store.
  EXPECT_FALSE(store.exists("tok", "obj").value());
  EXPECT_TRUE(store.exists("tok", ec::manifest_key("obj")).value());

  // Knock out a data sibling; the EC get still serves the bytes.
  ASSERT_TRUE(store.evict(ec::shard_key("obj", 1)).has_value());
  auto gr = server.submit("tok", Op{Op::Type::get, "obj", {}, id.value()})
                .get();
  ASSERT_EQ(gr.code, Errc::ok);
  EXPECT_TRUE(std::equal(value.bytes().begin(), value.bytes().end(),
                         gr.value.bytes().begin()));

  auto er = server.submit("tok", Op{Op::Type::exists, "obj", {}, id.value()})
                .get();
  EXPECT_EQ(er.code, Errc::ok);
  EXPECT_TRUE(er.found);

  auto dr = server.submit("tok", Op{Op::Type::del, "obj", {}, id.value()})
                .get();
  EXPECT_EQ(dr.code, Errc::ok);
  EXPECT_EQ(store.key_count(), 0u);
}

TEST(RtEc, ServerGhostPutsBypassCoding) {
  // Ghost blobs carry no bytes to code; EC tenants store them plainly.
  TenantRegistry tenants;
  TenantConfig cfg;
  cfg.name = "ec";
  cfg.rs = {4, 2};
  const auto id = tenants.register_tenant(cfg);
  ASSERT_TRUE(id.ok());
  auto opts = store_opts();
  opts.tenants = &tenants;
  ShardedStore store(opts);
  RuntimeServer::Options sopt;
  sopt.tenants = &tenants;
  RuntimeServer server(store, sopt);

  auto pr = server
                .submit("tok", Op{Op::Type::put, "ghost",
                                  kvstore::Blob::ghost(4096, 9), id.value()})
                .get();
  ASSERT_EQ(pr.code, Errc::ok);
  EXPECT_TRUE(store.exists("tok", "ghost").value());
  EXPECT_FALSE(store.exists("tok", ec::manifest_key("ghost")).value());
}

TEST(RtEc, RegistryRejectsHalfOrOversizedPolicies) {
  TenantRegistry tenants;
  TenantConfig half;
  half.rs = {4, 0};
  EXPECT_EQ(tenants.register_tenant(half).code(), Errc::invalid_argument);
  half.rs = {0, 2};
  EXPECT_EQ(tenants.register_tenant(half).code(), Errc::invalid_argument);
  TenantConfig big;
  big.rs = {250, 6};  // k + m > 255
  EXPECT_EQ(tenants.register_tenant(big).code(), Errc::invalid_argument);
  TenantConfig ok;
  ok.name = "ec";
  ok.rs = {4, 2};
  auto id = tenants.register_tenant(ok);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(tenants.rs_coder(id.value()), nullptr);
  EXPECT_EQ(tenants.rs_coder(0), nullptr);  // default tenant stays plain
}

// --- concurrency (the TSan target) ------------------------------------------

TEST(RtEc, ConcurrentPutGetDelDistinctKeys) {
  // Distinct logical keys from many threads: composite ops interleave
  // across shards; every thread must read back exactly what it wrote.
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  constexpr int kThreads = 4, kKeysPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-k" + std::to_string(i);
        const auto value = payload_blob(512 + 97 * i, 59 + t * 1000 + i);
        if (!ec::put(store, "tok", key, value, rs).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto got = ec::get(store, "tok", key);
        if (!got.ok() ||
            !std::equal(value.bytes().begin(), value.bytes().end(),
                        got.value().bytes().begin())) {
          failures.fetch_add(1);
          continue;
        }
        if (i % 2 == 0 && !ec::del(store, "tok", key).ok())
          failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Odd-indexed keys survive; all even ones were deleted.
  EXPECT_EQ(store.key_count(),
            std::size_t(kThreads) * (kKeysPerThread / 2) * 7);
}

TEST(RtEc, ConcurrentSameKeyReadersSeeCoherentGenerations) {
  // Writers overwrite one logical key while readers hammer it: every
  // successful read must return exactly one writer's generation, never
  // a torn mix (the manifest checksum is what enforces this).
  ShardedStore store(store_opts());
  const erasure::ReedSolomon rs(4, 2);
  constexpr std::size_t kLen = 2048;
  auto generation_value = [](int g) {
    std::vector<std::uint8_t> v(kLen, std::uint8_t(g));
    return kvstore::Blob::materialized(std::move(v));
  };
  ASSERT_TRUE(ec::put(store, "tok", "hot", generation_value(0), rs).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int g = 1; g <= 60; ++g)
      (void)ec::put(store, "tok", "hot", generation_value(g % 250), rs);
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto got = ec::get(store, "tok", "hot");
        // Failed reads (torn race detected and retries exhausted) are
        // legal under concurrent overwrite; *mixed-generation bytes*
        // are not.
        if (!got.ok()) continue;
        const auto b = got.value().bytes();
        if (b.size() != kLen) {
          torn.fetch_add(1);
          continue;
        }
        for (std::size_t i = 1; i < b.size(); ++i) {
          if (b[i] != b[0]) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(RtEc, ConcurrentServerTrafficMixedTenants) {
  // EC tenant and plain tenant traffic through the full server stack at
  // once -- the TSan surface for the dispatch path.
  TenantRegistry tenants;
  TenantConfig cfg;
  cfg.name = "ec";
  cfg.rs = {3, 2};
  const auto ec_id = tenants.register_tenant(cfg);
  ASSERT_TRUE(ec_id.ok());
  auto opts = store_opts();
  opts.tenants = &tenants;
  ShardedStore store(opts);
  RuntimeServer::Options sopt;
  sopt.threads = 3;
  sopt.tenants = &tenants;
  RuntimeServer server(store, sopt);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::uint32_t tid = c % 2 == 0 ? ec_id.value() : 0;
      for (int i = 0; i < 24; ++i) {
        const std::string key =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        const auto value = payload_blob(300 + i, 61 + c * 100 + i);
        auto pr =
            server.submit("tok", Op{Op::Type::put, key, value, tid}).get();
        if (pr.code != Errc::ok) {
          failures.fetch_add(1);
          continue;
        }
        auto gr = server.submit("tok", Op{Op::Type::get, key, {}, tid}).get();
        if (gr.code != Errc::ok ||
            !std::equal(value.bytes().begin(), value.bytes().end(),
                        gr.value.bytes().begin()))
          failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace memfss::rt
