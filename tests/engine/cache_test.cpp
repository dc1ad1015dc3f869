#include "engine/cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace ilp::engine {
namespace {

// Unique scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    const auto base = std::filesystem::temp_directory_path() /
                      ("ilp_cache_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter()++));
    std::filesystem::create_directories(base);
    path = base.string();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

TEST(Fnv1a, MatchesPublishedVectors) {
  // Reference digests of the 64-bit FNV-1a specification.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(HashStream, FieldDelimitingPreventsConcatenationCollisions) {
  const auto h1 = HashStream().str("ab").str("c").digest();
  const auto h2 = HashStream().str("a").str("bc").digest();
  EXPECT_NE(h1, h2);
  const auto h3 = HashStream().u64(1).u64(2).digest();
  const auto h4 = HashStream().u64(2).u64(1).digest();
  EXPECT_NE(h3, h4);
}

TEST(ResultCache, MemoryTierRoundTrip) {
  ResultCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());
  cache.store(42, "payload-42");
  const auto got = cache.lookup(42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload-42");
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ResultCache, DiskTierSurvivesProcessRestart) {
  TempDir dir;
  {
    ResultCache writer(dir.path);
    writer.store(7, "persisted");
  }
  // A fresh instance (fresh memory tier) models a new process.
  ResultCache reader(dir.path);
  const auto got = reader.lookup(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "persisted");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // The disk hit was promoted: second lookup is a memory hit.
  ASSERT_TRUE(reader.lookup(7).has_value());
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(ResultCache, InvalidateEvictsBothTiersAndCorrectsStats) {
  TempDir dir;
  ResultCache cache(dir.path);
  cache.store(9, "garbage the caller will reject");
  ASSERT_TRUE(cache.lookup(9).has_value());
  cache.invalidate(9);
  // The poisoned entry is gone from memory and disk: next lookup is a miss.
  EXPECT_FALSE(cache.lookup(9).has_value());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.invalid, 1u);
  EXPECT_EQ(s.total_hits(), 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
}

TEST(ResultCache, UnwritableDirDegradesToMemoryOnly) {
  ResultCache cache("/proc/definitely/not/writable");
  cache.store(1, "x");
  const auto got = cache.lookup(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "x");
}

TEST(ResultCache, ConcurrentStoreLookupIsRaceFree) {
  TempDir dir;
  ResultCache cache(dir.path);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 100; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(i % 25);
        cache.store(key, "v" + std::to_string(i % 25));
        const auto got = cache.lookup(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, "v" + std::to_string(i % 25));
      }
      (void)t;
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(), 25u);
}

// Heavy contention on one on-disk tier, including the cross-process shape:
// two ResultCache instances share the directory (as ilpd and a bench binary
// would), and every thread mixes stores, lookups and invalidations over a
// small key set.  Every observed payload must decode to a complete value —
// a torn read here means the write-then-rename publish or the tmp-file
// naming is broken — and the stats must balance exactly.
TEST(ResultCache, ContendedDiskTierNeverServesTornEntries) {
  TempDir dir;
  ResultCache shared_a(dir.path);
  ResultCache shared_b(dir.path);  // same disk tier, separate memory tier

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr std::uint64_t kKeys = 7;
  // Payloads are "v<key> <body>" with a length-checkable body so partial
  // file contents cannot decode as valid.
  auto payload_for = [](std::uint64_t key) {
    std::string body(128, static_cast<char>('a' + key));
    return "v" + std::to_string(key) + " " + body;
  };

  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ResultCache& cache = (t % 2 == 0) ? shared_a : shared_b;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((t + i)) % kKeys;
        switch (i % 4) {
          case 0:
            cache.store(key, payload_for(key));
            break;
          case 3:
            if (t % 4 == 1 && i % 64 == 3) {
              cache.invalidate(key);
              break;
            }
            [[fallthrough]];
          default: {
            const auto got = cache.lookup(key);
            if (got && *got != payload_for(key))
              torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0u);

  // Hit accounting balances under contention: every lookup was classified
  // exactly once, and no tier invented hits it never served.
  for (const ResultCache* cache : {&shared_a, &shared_b}) {
    const CacheStats s = cache->stats();
    EXPECT_EQ(s.lookups(), s.hits + s.disk_hits + s.misses);
    EXPECT_LE(s.invalid, s.hits + s.disk_hits);
    EXPECT_LE(s.total_hits(), s.lookups());
    EXPECT_GT(s.stores, 0u);
    EXPECT_GT(s.lookups(), 0u);
  }

  // Whatever survived on disk is readable and whole from a fresh instance.
  ResultCache fresh(dir.path);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto got = fresh.lookup(key);
    if (got) {
      EXPECT_EQ(*got, payload_for(key)) << "key " << key;
    }
  }
}

}  // namespace
}  // namespace ilp::engine
