// Unit tests for the support substrate: BitVector, Rng, string utilities,
// ThreadPool, and error types.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "support/bitvec.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/thread_pool.h"

namespace jpg {
namespace {

TEST(BitVector, StartsZeroed) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.num_words(), 4u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bv.get(i));
  }
  EXPECT_EQ(bv.popcount(), 0u);
}

TEST(BitVector, SetGetRoundtrip) {
  BitVector bv(70);
  bv.set(0, true);
  bv.set(31, true);
  bv.set(32, true);
  bv.set(69, true);
  EXPECT_TRUE(bv.get(0));
  EXPECT_TRUE(bv.get(31));
  EXPECT_TRUE(bv.get(32));
  EXPECT_TRUE(bv.get(69));
  EXPECT_FALSE(bv.get(1));
  EXPECT_EQ(bv.popcount(), 4u);
  bv.set(31, false);
  EXPECT_FALSE(bv.get(31));
  EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVector, FieldAccess) {
  BitVector bv(64);
  bv.set_field(3, 7, 0b1011001);
  EXPECT_EQ(bv.get_field(3, 7), 0b1011001u);
  EXPECT_FALSE(bv.get(2));
  EXPECT_FALSE(bv.get(10));
  // Field spanning a word boundary.
  bv.set_field(28, 8, 0xA5);
  EXPECT_EQ(bv.get_field(28, 8), 0xA5u);
}

TEST(BitVector, WordAccessMasksTail) {
  BitVector bv(40);  // 8 tail bits in word 1
  bv.set_word(1, 0xFFFFFFFFu);
  EXPECT_EQ(bv.word(1), 0xFFu);
  EXPECT_EQ(bv.popcount(), 8u);
}

TEST(BitVector, EqualityAndDiff) {
  BitVector a(50), b(50);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.differs_from(b));
  b.set(17, true);
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.differs_from(b));
}

// Reference BitVector filled with reproducible noise.
BitVector noise_vector(std::size_t nbits, std::uint64_t seed) {
  BitVector bv(nbits);
  Rng rng(seed);
  for (std::size_t w = 0; w < bv.num_words(); ++w) {
    bv.set_word(w, static_cast<std::uint32_t>(rng.next()));
  }
  return bv;
}

TEST(BitVector, CopyRangeExhaustiveBoundaries) {
  // All alignments 0..63 x lengths crossing one, two and three word
  // boundaries, verified bit-for-bit against a get/set reference —
  // including that bits outside the range stay untouched.
  constexpr std::size_t kBits = 64 + 3 * 32 + 64;  // headroom on both sides
  const BitVector src = noise_vector(kBits, 1);
  const BitVector dst0 = noise_vector(kBits, 2);
  for (std::size_t pos = 0; pos < 64; ++pos) {
    for (std::size_t len = 1; pos + len <= kBits && len <= 3 * 32 + 2;
         ++len) {
      BitVector got = dst0;
      got.copy_range(src, pos, len);
      BitVector want = dst0;
      for (std::size_t i = pos; i < pos + len; ++i) {
        want.set(i, src.get(i));
      }
      ASSERT_EQ(got, want) << "pos " << pos << " len " << len;
    }
  }
}

TEST(BitVector, CopyRangeRelocatingExhaustiveBoundaries) {
  constexpr std::size_t kBits = 256;
  const BitVector src = noise_vector(kBits, 3);
  const BitVector dst0 = noise_vector(kBits, 4);
  for (std::size_t sp = 0; sp < 40; ++sp) {
    for (std::size_t dp = 0; dp < 40; ++dp) {
      for (const std::size_t len : {1u, 17u, 31u, 32u, 33u, 64u, 65u, 97u}) {
        BitVector got = dst0;
        got.copy_range(src, sp, dp, len);
        BitVector want = dst0;
        for (std::size_t i = 0; i < len; ++i) {
          want.set(dp + i, src.get(sp + i));
        }
        ASSERT_EQ(got, want) << "sp " << sp << " dp " << dp << " len " << len;
      }
    }
  }
}

TEST(BitVector, CopyRangeZeroLengthIsNoop) {
  const BitVector src = noise_vector(96, 5);
  const BitVector dst0 = noise_vector(96, 6);
  BitVector got = dst0;
  got.copy_range(src, 40, 0);
  EXPECT_EQ(got, dst0);
  got.copy_range(src, 17, 55, 0);
  EXPECT_EQ(got, dst0);
}

TEST(BitVector, DiffInRangeExhaustiveBoundaries) {
  constexpr std::size_t kBits = 64 + 3 * 32 + 64;
  const BitVector a = noise_vector(kBits, 7);
  for (std::size_t pos = 0; pos < 64; ++pos) {
    for (const std::size_t len : {1u, 2u, 31u, 32u, 33u, 63u, 64u, 65u,
                                  95u, 96u, 97u}) {
      if (pos + len > kBits) continue;
      BitVector b = a;
      EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
      // A flipped bit just outside either edge must not register; one on
      // each edge and in the middle must.
      if (pos > 0) {
        b.set(pos - 1, !a.get(pos - 1));
        EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
        b = a;
      }
      if (pos + len < kBits) {
        b.set(pos + len, !a.get(pos + len));
        EXPECT_FALSE(a.diff_in_range(b, pos, len)) << pos << "+" << len;
        b = a;
      }
      for (const std::size_t at : {pos, pos + len / 2, pos + len - 1}) {
        b.set(at, !a.get(at));
        EXPECT_TRUE(a.diff_in_range(b, pos, len))
            << pos << "+" << len << " flip " << at;
        b = a;
      }
    }
  }
  EXPECT_FALSE(a.diff_in_range(a, 10, 0));
}

// The short-range boundary sweeps above never reach the word kernels' block
// paths (8-word XOR-OR reduction, memcpy middles, 64-bit popcount pairs);
// these long-range tests do, at deliberately ragged offsets and tails.

TEST(BitVector, CopyRangeLongMiddleUnalignedEdges) {
  constexpr std::size_t kBits = 41 * 32 + 13;  // ragged final word
  const BitVector src = noise_vector(kBits, 11);
  const BitVector dst0 = noise_vector(kBits, 12);
  for (const std::size_t pos : {0u, 1u, 13u, 31u, 32u, 45u}) {
    for (const std::size_t len : {std::size_t{257}, std::size_t{512},
                                  std::size_t{1024}, kBits - 64, kBits - pos}) {
      if (pos + len > kBits) continue;
      BitVector got = dst0;
      got.copy_range(src, pos, len);
      BitVector want = dst0;
      for (std::size_t i = pos; i < pos + len; ++i) want.set(i, src.get(i));
      ASSERT_EQ(got, want) << "pos " << pos << " len " << len;
    }
  }
}

TEST(BitVector, CopyRangeRelocatingLongCoAlignedAndMisaligned) {
  constexpr std::size_t kBits = 64 * 32;
  const BitVector src = noise_vector(kBits, 13);
  const BitVector dst0 = noise_vector(kBits, 14);
  // Co-aligned pairs (sp % 32 == dp % 32) ride the word-blit fast path even
  // when both offsets are odd; misaligned pairs take the funnel-shift
  // fallback. Both must match the bit-by-bit reference over many words.
  struct Case {
    std::size_t sp, dp;
  };
  for (const Case c : {Case{5, 5 + 3 * 32}, Case{29, 29 + 32}, Case{0, 64},
                       Case{31, 31 + 17 * 32},  // co-aligned
                       Case{5, 18}, Case{29, 32}, Case{0, 63},
                       Case{31, 1}}) {  // misaligned
    for (const std::size_t len :
         {std::size_t{300}, std::size_t{1000}, kBits / 2}) {
      if (c.sp + len > kBits || c.dp + len > kBits) continue;
      BitVector got = dst0;
      got.copy_range(src, c.sp, c.dp, len);
      BitVector want = dst0;
      for (std::size_t i = 0; i < len; ++i) {
        want.set(c.dp + i, src.get(c.sp + i));
      }
      ASSERT_EQ(got, want)
          << "sp " << c.sp << " dp " << c.dp << " len " << len;
    }
  }
}

TEST(BitVector, DiffInRangeLongBlocksFindEveryFlipPosition) {
  // One flipped bit per word of a >8-word middle must always register —
  // catches any lane dropped by the 8-wide reduction — and a flip just
  // outside the ragged edges must not.
  constexpr std::size_t kBits = 24 * 32 + 7;
  const BitVector a = noise_vector(kBits, 15);
  const std::size_t pos = 19;
  const std::size_t len = kBits - 40;
  BitVector b = a;
  EXPECT_FALSE(a.diff_in_range(b, pos, len));
  for (std::size_t at = pos; at < pos + len; at += 29) {  // every word, odd lanes
    b.set(at, !a.get(at));
    EXPECT_TRUE(a.diff_in_range(b, pos, len)) << "flip " << at;
    b = a;
  }
  b.set(pos - 1, !a.get(pos - 1));
  b.set(pos + len, !a.get(pos + len));
  EXPECT_FALSE(a.diff_in_range(b, pos, len));
}

TEST(BitVector, PopcountMatchesBitLoopOnRaggedSizes) {
  // Odd word counts exercise the 64-bit pair chunks plus the 32-bit tail.
  for (const std::size_t nbits : {0u, 1u, 31u, 32u, 33u, 64u, 65u,
                                  9u * 32u + 13u, 41u * 32u + 1u}) {
    const BitVector v = noise_vector(nbits, 16 + nbits);
    std::size_t want = 0;
    for (std::size_t i = 0; i < nbits; ++i) want += v.get(i) ? 1 : 0;
    EXPECT_EQ(v.popcount(), want) << "nbits " << nbits;
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit over 1000 draws
}

TEST(Rng, RangeInclusive) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngSplit, DeterministicAndOrderIndependent) {
  // split(i) is a pure function of (parent state, i): any call order, any
  // number of other splits, same child stream.
  const Rng parent(42);
  Rng c3a = parent.split(3);
  Rng c7 = parent.split(7);
  Rng c3b = parent.split(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c3a.next(), c3b.next());
  }
  bool differs = false;
  Rng c3c = parent.split(3);
  for (int i = 0; i < 100; ++i) {
    if (c3c.next() != c7.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngSplit, DoesNotConsumeParentState) {
  Rng a(123), b(123);
  (void)a.split(0);
  (void)a.split(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // And advancing the parent changes what split() derives.
  Rng p1(5), p2(5);
  (void)p2.next();
  Rng c1 = p1.split(1);
  Rng c2 = p2.split(1);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (c1.next() != c2.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngSplit, ChildStreamsAreStatisticallyIndependent) {
  // Statistical smoke test over 256 sibling streams: per-stream bit balance
  // stays near 0.5, and adjacent siblings agree on their low bits about
  // half the time (correlated streams — e.g. seed+i naive derivation —
  // fail the agreement bound badly).
  const Rng parent(2026);
  constexpr int kStreams = 256;
  constexpr int kDraws = 64;
  std::vector<std::vector<std::uint64_t>> draws(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    Rng child = parent.split(static_cast<std::uint64_t>(s));
    for (int i = 0; i < kDraws; ++i) draws[s].push_back(child.next());
  }
  // Bit balance: over 64*64 = 4096 bits per stream, expect ~0.5.
  for (int s = 0; s < kStreams; ++s) {
    int ones = 0;
    for (const std::uint64_t v : draws[s]) ones += std::popcount(v);
    const double frac = static_cast<double>(ones) / (64.0 * kDraws);
    EXPECT_GT(frac, 0.45) << "stream " << s;
    EXPECT_LT(frac, 0.55) << "stream " << s;
  }
  // Pairwise agreement between adjacent streams: per-bit match rate ~0.5.
  for (int s = 0; s + 1 < kStreams; ++s) {
    int agree = 0;
    for (int i = 0; i < kDraws; ++i) {
      agree += std::popcount(~(draws[s][i] ^ draws[s + 1][i]));
    }
    const double frac = static_cast<double>(agree) / (64.0 * kDraws);
    EXPECT_GT(frac, 0.45) << "streams " << s << "," << s + 1;
    EXPECT_LT(frac, 0.55) << "streams " << s << "," << s + 1;
  }
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtil, Split) {
  const auto v = split("a,b,,c", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "");
  EXPECT_EQ(v[3], "c");
}

TEST(StringUtil, SplitWs) {
  const auto v = split_ws("  foo\t bar baz ");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "foo");
  EXPECT_EQ(v[2], "baz");
}

TEST(StringUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("XCV50", "xcv50"));
  EXPECT_FALSE(iequals("XCV50", "XCV100"));
}

TEST(StringUtil, ParseUint) {
  EXPECT_EQ(parse_uint("123"), 123u);
  EXPECT_EQ(parse_uint("0x1F"), 31u);
  EXPECT_EQ(parse_uint(" 7 "), 7u);
  EXPECT_FALSE(parse_uint("12a").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("-3").has_value());
  EXPECT_FALSE(parse_uint("99999999999999999999999").has_value());
}

TEST(StringUtil, WildcardMatch) {
  EXPECT_TRUE(wildcard_match("u1/*", "u1/nrz"));
  EXPECT_TRUE(wildcard_match("*", "anything"));
  EXPECT_TRUE(wildcard_match("u*/ff*", "u12/ff3"));
  EXPECT_FALSE(wildcard_match("u1/*", "u2/nrz"));
  EXPECT_TRUE(wildcard_match("abc", "abc"));
  EXPECT_FALSE(wildcard_match("abc", "abcd"));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw JpgError("boom");
                        }),
      JpgError);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

// Regression: before the inline-on-worker fix, a task submitting to its own
// pool and waiting on the future deadlocked whenever no other worker was
// free — guaranteed on this 1-worker pool (a service/batch worker that
// submits to its own pool and waits).
TEST(ThreadPool, NestedSubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(1);
  std::thread::id inner_tid;
  std::future<void> outer = pool.submit([&] {
    std::future<void> inner =
        pool.submit([&] { inner_tid = std::this_thread::get_id(); });
    inner.get();  // deadlocked here before the fix
  });
  ASSERT_EQ(outer.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  outer.get();
  // The nested task ran inline on the submitting worker, not on the caller.
  EXPECT_NE(inner_tid, std::this_thread::get_id());
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, NestedSubmitRunsInlineAndPropagatesExceptions) {
  ThreadPool pool(1);
  std::thread::id outer_tid, inner_tid;
  pool.submit([&] {
        outer_tid = std::this_thread::get_id();
        EXPECT_TRUE(pool.on_worker_thread());
        std::future<void> inner =
            pool.submit([&] { inner_tid = std::this_thread::get_id(); });
        // Inline execution: ready before get(), on the same worker thread.
        EXPECT_EQ(inner.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        std::future<void> boom = pool.submit([] { throw JpgError("boom"); });
        EXPECT_THROW(boom.get(), JpgError);
      })
      .get();
  EXPECT_EQ(outer_tid, inner_tid);
  // A foreign pool's workers are not "this pool's" context: submitting
  // there still enqueues (and must not be inlined onto the wrong pool).
  ThreadPool other(1);
  pool.submit([&] { EXPECT_FALSE(other.on_worker_thread()); }).get();
}

// Regression: sized() used to cache one pool per distinct width forever, so
// a daemon sizing pools per request leaked threads without bound. The LRU
// cap keeps the cached worker population bounded over any width sequence.
TEST(ThreadPool, SizedCacheStaysBoundedOverWidthSweep) {
  const auto before = ThreadPool::sized_cache_stats();
  constexpr std::size_t kMaxWidth = 24;
  for (std::size_t w = 1; w <= kMaxWidth; ++w) {
    const std::shared_ptr<ThreadPool> lease = ThreadPool::sized(w);
    ASSERT_EQ(lease->size(), w);
    // Use the pool so eviction is exercised against live-then-idle pools.
    std::atomic<int> n{0};
    lease->parallel_for(8, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
  }
  const auto after = ThreadPool::sized_cache_stats();
  EXPECT_LE(after.pools, ThreadPool::kMaxSizedPools);
  // The cached population is at most the cap's worth of the widest pools.
  EXPECT_LE(after.total_workers, ThreadPool::kMaxSizedPools * kMaxWidth);
  EXPECT_GE(after.evictions, before.evictions + kMaxWidth -
                                 ThreadPool::kMaxSizedPools);
}

TEST(ThreadPool, SizedCacheReusesPoolsAndPinsLeased) {
  // Same width twice -> the same pool object (a cache hit, not a respawn).
  const auto s0 = ThreadPool::sized_cache_stats();
  const std::shared_ptr<ThreadPool> a = ThreadPool::sized(3);
  const std::shared_ptr<ThreadPool> b = ThreadPool::sized(3);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(ThreadPool::sized_cache_stats().hits, s0.hits + 1);

  // A leased pool survives any amount of width churn past the cap.
  for (std::size_t w = 30; w < 30 + 3 * ThreadPool::kMaxSizedPools; ++w) {
    (void)ThreadPool::sized(w);
  }
  std::atomic<int> n{0};
  a->parallel_for(5, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 5);
  EXPECT_EQ(a->size(), 3u);

  // Width 0 leases the process-global pool without owning it.
  const std::shared_ptr<ThreadPool> g = ThreadPool::sized(0);
  EXPECT_EQ(g.get(), &ThreadPool::global());
}

TEST(Errors, ParseErrorCarriesLocation) {
  const ParseError e("design.xdl", 12, "unexpected token");
  EXPECT_EQ(e.file(), "design.xdl");
  EXPECT_EQ(e.line(), 12);
  EXPECT_NE(std::string(e.what()).find("design.xdl:12"), std::string::npos);
}

TEST(Errors, RequireThrowsJpgError) {
  EXPECT_THROW(JPG_REQUIRE(false, "must hold"), JpgError);
  EXPECT_NO_THROW(JPG_REQUIRE(true, "must hold"));
}

}  // namespace
}  // namespace jpg
