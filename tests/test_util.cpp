#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <cstdint>

#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/scratch_arena.h"
#include "util/stopwatch.h"

namespace fedsu::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(11);
  for (double shape : {0.5, 1.0, 3.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.1 * shape + 0.03) << "shape=" << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(12);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const auto v = rng.dirichlet(alpha, 10);
    ASSERT_EQ(v.size(), 10u);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletConcentrationControlsSkew) {
  Rng rng(13);
  // Small alpha -> spiky mixtures; large alpha -> flat mixtures.
  double max_small = 0.0, max_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto s = rng.dirichlet(0.05, 10);
    const auto l = rng.dirichlet(100.0, 10);
    max_small += *std::max_element(s.begin(), s.end());
    max_large += *std::max_element(l.begin(), l.end());
  }
  EXPECT_GT(max_small / 200, 0.7);
  EXPECT_LT(max_large / 200, 0.2);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(14);
  const auto perm = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (auto i : perm) {
    ASSERT_LT(i, 257u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Rng, ForkStreamsAreIndependentAndStable) {
  Rng parent(99);
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(1);
  Rng c1_again = Rng(99).fork(0);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliRate) {
  Rng rng(22);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SkipNormalsLeavesTheStateThatDrawingThemDoes) {
  // Every count from an empty and from a full Box-Muller cache, odd counts
  // included (they leave a value cached): all seven state words, and the
  // draws that follow, match calling normal() that many times.
  for (const bool cached : {false, true}) {
    for (std::size_t count = 0; count < 12; ++count) {
      Rng drawn(99), skipped(99);
      if (cached) {
        drawn.normal();
        skipped.normal();
      }
      for (std::size_t i = 0; i < count; ++i) drawn.normal();
      skipped.skip_normals(count);
      EXPECT_EQ(drawn.state_words(), skipped.state_words())
          << "count " << count << (cached ? " after a cached draw" : "");
      for (int i = 0; i < 3; ++i) {
        const double a = drawn.normal(), b = skipped.normal();
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "count " << count;
      }
    }
  }
}

TEST(Flags, ParsesAllTypes) {
  Flags flags;
  flags.add_int("rounds", 10, "rounds")
      .add_double("lr", 0.1, "learning rate")
      .add_string("model", "cnn", "arch")
      .add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--rounds", "25",      "--lr=0.5",
                        "--model", "mlp",    "--verbose"};
  ASSERT_TRUE(flags.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("rounds"), 25);
  EXPECT_DOUBLE_EQ(flags.get_double("lr"), 0.5);
  EXPECT_EQ(flags.get_string("model"), "mlp");
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, DefaultsSurviveEmptyArgv) {
  Flags flags;
  flags.add_int("n", 3, "n");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 3);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  flags.add_int("n", 3, "n");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(flags.parse(3, const_cast<char**>(argv)), std::runtime_error);
}

TEST(Flags, BadValueThrows) {
  Flags flags;
  flags.add_int("n", 3, "n")
      .add_double("lr", 0.1, "learning rate")
      .add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n", "notanint"};
  EXPECT_THROW(flags.parse(3, const_cast<char**>(argv)), std::runtime_error);
  // A value is accepted only if the whole token parses: a numeric prefix
  // ("12abc", an int's "1e3", "0.5x") or an unknown bool word is an error.
  // A bool takes its value after '=' only.
  for (const char* arg : {"--n=12abc", "--n=1e3", "--n=", "--lr=0.5x",
                          "--verbose=maybe"}) {
    const char* args[] = {"prog", arg};
    EXPECT_THROW(flags.parse(2, const_cast<char**>(args)), std::runtime_error)
        << arg;
  }
}

TEST(Flags, BoolAcceptsOnlyKnownWords) {
  Flags flags;
  flags.add_bool("verbose", false, "verbosity");
  const std::pair<const char*, bool> words[] = {
      {"1", true},  {"true", true},   {"yes", true},
      {"0", false}, {"false", false}, {"no", false}};
  for (const auto& [word, value] : words) {
    const std::string arg = std::string("--verbose=") + word;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv))) << word;
    EXPECT_EQ(flags.get_bool("verbose"), value) << word;
    // The same word as the next token, starting from the opposite value.
    const char* flip[] = {"prog", value ? "--verbose=0" : "--verbose=1"};
    ASSERT_TRUE(flags.parse(2, const_cast<char**>(flip)));
    const char* spaced[] = {"prog", "--verbose", word};
    ASSERT_TRUE(flags.parse(3, const_cast<char**>(spaced))) << word;
    EXPECT_EQ(flags.get_bool("verbose"), value) << word;
  }
  const char* unknown_word[] = {"prog", "--verbose", "maybe"};
  EXPECT_THROW(flags.parse(3, const_cast<char**>(unknown_word)),
               std::runtime_error);
  // A bare boolean followed by another flag still means true.
  flags.add_int("n", 3, "n");
  const char* bare[] = {"prog", "--verbose=0", "--verbose", "--n", "4"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(bare)));
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_int("n"), 4);
}

TEST(Flags, GivenTellsACommandLineValueFromTheDefault) {
  Flags flags;
  flags.add_int("rounds", 10, "rounds")
      .add_double("lr", 0.1, "learning rate")
      .add_bool("verbose", false, "verbosity");
  const char* none[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(none)));
  EXPECT_FALSE(flags.given("rounds"));
  EXPECT_FALSE(flags.given("lr"));
  EXPECT_FALSE(flags.given("verbose"));
  // Given at its default value still counts, and a bare bool counts.
  const char* argv[] = {"prog", "--rounds", "10", "--verbose"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.given("rounds"));
  EXPECT_FALSE(flags.given("lr"));
  EXPECT_TRUE(flags.given("verbose"));
  EXPECT_THROW(flags.given("bogus"), std::runtime_error);
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags;
  flags.add_int("n", 3, "n");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Csv, WritesAndEscapes) {
  const std::string path = ::testing::TempDir() + "/fedsu_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c", "d\"e"});
    csv.write_row({CsvWriter::field(1.5), CsvWriter::field(7LL)});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1.5,7");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(Stopwatch, ElapsedIsMonotonicNonNegative) {
  Stopwatch sw;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = sw.elapsed_seconds();
    EXPECT_GE(now, prev);  // steady_clock: readings never go backwards
    prev = now;
  }
}

TEST(Stopwatch, LapsPartitionElapsedTime) {
  Stopwatch sw;
  double lap_sum = 0.0;
  for (int i = 0; i < 5; ++i) {
    volatile double sink = 0.0;
    for (int k = 0; k < 10000; ++k) sink = sink + std::sqrt(double(k));
    const double lap = sw.lap();
    EXPECT_GE(lap, 0.0);
    lap_sum += lap;
  }
  // The laps are consecutive disjoint intervals starting at construction,
  // so their sum can never exceed the total elapsed time.
  EXPECT_LE(lap_sum, sw.elapsed_seconds());
  EXPECT_GT(lap_sum, 0.0);
}

TEST(Stopwatch, ResetRestartsLapMarker) {
  Stopwatch sw;
  (void)sw.lap();
  sw.reset();
  const double lap = sw.lap();
  EXPECT_GE(lap, 0.0);
  EXPECT_LE(lap, sw.elapsed_seconds() + 1e-9);
}

TEST(CsvWriter, FlushMakesRowsVisibleBeforeDestruction) {
  const std::string path = ::testing::TempDir() + "/fedsu_csv_flush_test.csv";
  CsvWriter csv(path);
  csv.write_row({"a", "b"});
  csv.write_row({"1", "2"});
  csv.flush();
  // Read back while the writer is still alive: the rows must be on disk.
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(ScratchArena, ReturnsAlignedDistinctBuffers) {
  ScratchArena arena;
  ScratchArena::Frame frame(arena);
  float* a = arena.floats(100);
  float* b = arena.floats(1);
  float* c = arena.floats(0);  // zero-count still yields a valid pointer
  EXPECT_NE(a, nullptr);
  EXPECT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  // Buffers in the same frame never overlap.
  EXPECT_GE(b, a + 100);
  a[99] = 1.0f;
  b[0] = 2.0f;
  EXPECT_EQ(a[99], 1.0f);
}

TEST(ScratchArena, FrameRewindReusesSpaceWithoutGrowth) {
  ScratchArena arena;
  float* first = nullptr;
  {
    ScratchArena::Frame frame(arena);
    first = arena.floats(512);
  }
  const std::size_t grown = arena.grow_count();
  for (int repeat = 0; repeat < 100; ++repeat) {
    ScratchArena::Frame frame(arena);
    // Same request pattern lands on the same memory, allocation-free.
    EXPECT_EQ(arena.floats(512), first);
  }
  EXPECT_EQ(arena.grow_count(), grown);
}

TEST(ScratchArena, NestedFramesRestoreLifo) {
  ScratchArena arena;
  ScratchArena::Frame outer(arena);
  float* outer_buf = arena.floats(64);
  outer_buf[0] = 42.0f;
  float* inner_buf = nullptr;
  {
    ScratchArena::Frame inner(arena);
    inner_buf = arena.floats(64);
    EXPECT_GE(inner_buf, outer_buf + 64);  // outer allocation untouched
  }
  // After the inner frame pops, its space is handed out again...
  EXPECT_EQ(arena.floats(64), inner_buf);
  // ...and the outer allocation survived both the frame and the reuse.
  EXPECT_EQ(outer_buf[0], 42.0f);
}

TEST(ScratchArena, GrowsAcrossBlocksAndRetainsCapacity) {
  ScratchArena arena;
  {
    ScratchArena::Frame frame(arena);
    // Force several growths: each request exceeds everything so far.
    arena.floats(1 << 14);
    arena.floats(1 << 16);
    arena.floats(1 << 18);
  }
  const std::size_t capacity = arena.capacity_bytes();
  const std::size_t grown = arena.grow_count();
  EXPECT_GE(capacity, (std::size_t{1} << 18) * sizeof(float));
  {
    ScratchArena::Frame frame(arena);
    // Repeating the peak pattern fits in retained capacity.
    arena.floats(1 << 14);
    arena.floats(1 << 16);
    arena.floats(1 << 18);
  }
  EXPECT_EQ(arena.capacity_bytes(), capacity);
  EXPECT_EQ(arena.grow_count(), grown);
}

TEST(ScratchArena, LocalIsPerThread) {
  ScratchArena* main_arena = &ScratchArena::local();
  EXPECT_EQ(main_arena, &ScratchArena::local());
  ScratchArena* other = nullptr;
  std::thread t([&] { other = &ScratchArena::local(); });
  t.join();
  EXPECT_NE(other, nullptr);
  EXPECT_NE(other, main_arena);
}

}  // namespace
}  // namespace fedsu::util
