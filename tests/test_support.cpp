#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "support/common.h"
#include "support/io.h"
#include "support/numeric.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace perfdojo {
namespace {

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Rng, UniformRealIn01) {
  Rng r(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(3);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, WeightedIndexBias) {
  Rng r(4);
  std::vector<double> w = {1.0, 3.0};
  int hits = 0;
  for (int i = 0; i < 4000; ++i)
    if (r.weightedIndex(w) == 1) ++hits;
  EXPECT_NEAR(hits / 4000.0, 0.75, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto s = v;
  r.shuffle(s);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, v);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({8.0}), 8.0);
  EXPECT_THROW(geomean({1.0, -1.0}), Error);
  EXPECT_THROW(geomean({}), Error);
}

TEST(Stats, MeanMedianStd) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_NEAR(stddev({2, 2, 2}), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

TEST(Strings, SplitTrimJoin) {
  EXPECT_EQ(splitTokens("a  b c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_TRUE(startsWith("buffer x", "buffer"));
  EXPECT_TRUE(endsWith("a.cpp", ".cpp"));
  EXPECT_EQ(splitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
}

TEST(Table, RendersAllCells) {
  Table t({"k", "v"});
  t.addRow({"alpha", "1"});
  t.addRow("beta", {2.5});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

TEST(Table, BarChart) {
  const std::string s =
      Table::barChart({{"a", 1.0}, {"b", 2.0}}, "x");
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("##"), std::string::npos);
}

TEST(Hash, Fnv1aStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

TEST(Numeric, ParseInt64IsStrict) {
  std::int64_t v = 0;
  EXPECT_TRUE(parseInt64("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parseInt64("-17", v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(parseInt64("+5", v));
  EXPECT_EQ(v, 5);
  // Everything std::atoi silently mangles must be rejected outright.
  EXPECT_FALSE(parseInt64("", v));
  EXPECT_FALSE(parseInt64("abc", v));
  EXPECT_FALSE(parseInt64("12abc", v));
  EXPECT_FALSE(parseInt64("12 ", v));
  EXPECT_FALSE(parseInt64(" 12", v));
  EXPECT_FALSE(parseInt64("1.5", v));
  EXPECT_FALSE(parseInt64("99999999999999999999999", v));  // overflow
}

TEST(Numeric, ParseUint64RejectsNegatives) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parseUint64("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  EXPECT_FALSE(parseUint64("-1", v));
  EXPECT_FALSE(parseUint64("18446744073709551616", v));
  EXPECT_FALSE(parseUint64("", v));
}

TEST(Numeric, ParseDoubleIsStrictAndLocaleFree) {
  double v = 0;
  EXPECT_TRUE(parseDouble("1.5e-3", v));
  EXPECT_DOUBLE_EQ(v, 1.5e-3);
  EXPECT_TRUE(parseDouble("-0.25", v));
  EXPECT_DOUBLE_EQ(v, -0.25);
  EXPECT_FALSE(parseDouble("", v));
  EXPECT_FALSE(parseDouble("1,5", v));  // comma-decimal never accepted
  EXPECT_FALSE(parseDouble("1.5x", v));
  EXPECT_FALSE(parseDouble("nanx", v));
}

TEST(Numeric, ParseDoublePrefixConsumesLongestValidRun) {
  const std::string s = "6.02e23, rest";
  double v = 0;
  EXPECT_EQ(parseDoublePrefix(s.data(), s.data() + s.size(), v), 7u);
  EXPECT_DOUBLE_EQ(v, 6.02e23);
  const std::string bad = "xyz";
  EXPECT_EQ(parseDoublePrefix(bad.data(), bad.data() + bad.size(), v), 0u);
}

TEST(Numeric, FormatDoubleRoundTripsShortest) {
  for (const double x : {0.1, 1.0 / 3.0, 6.1541e-05, -2.5, 0.0, 1e308}) {
    double back = 0;
    ASSERT_TRUE(parseDouble(formatDouble(x), back)) << formatDouble(x);
    EXPECT_EQ(back, x);
  }
  EXPECT_EQ(formatDouble(0.1), "0.1");  // shortest form, not %.17g noise
  EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(formatDouble(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(Numeric, Hex64RoundTrip) {
  EXPECT_EQ(formatHex64(0), "0000000000000000");
  EXPECT_EQ(formatHex64(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
  std::uint64_t v = 0;
  ASSERT_TRUE(parseHex64("deadbeefcafef00d", v));
  EXPECT_EQ(v, 0xdeadbeefcafef00dULL);
  EXPECT_FALSE(parseHex64("", v));
  EXPECT_FALSE(parseHex64("xyz", v));
  EXPECT_FALSE(parseHex64("11112222333344445", v));  // > 16 digits
}

TEST(IoWrite, ReportsStreamFailures) {
  const std::string dir = ::testing::TempDir() + "/pd_io_test";
  writeTextFile(dir + "_file.txt", "hello\n");  // plain file path works
  EXPECT_EQ(readTextFile(dir + "_file.txt"), "hello\n");
  // Unopenable path (a directory) must throw, not silently succeed.
  EXPECT_THROW(writeTextFile("/", "x"), Error);
  // A write that opens fine but cannot complete must also throw: /dev/full
  // accepts the open and fails the flush.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(writeTextFile("/dev/full", std::string(1 << 20, 'x')), Error);
  }
}

TEST(IoWrite, AtomicWriteSurvivesConcurrentWriters) {
  // Several writers replacing one file at once (two servers compacting one
  // shard, two tools saving one model) must never throw, and the file must
  // end up holding exactly one writer's content, with no temp file left.
  const std::string dir = ::testing::TempDir() + "/pd_io_atomic_race";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/target.txt";
  auto content = [](int t, int i) {
    return std::string(static_cast<std::size_t>(1000 + 7 * t + i),
                       static_cast<char>('a' + t)) +
           std::to_string(i) + "\n";
  };
  std::atomic<int> threw{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        try {
          writeTextFileAtomic(path, content(t, i));
        } catch (const Error&) {
          ++threw;
        }
      }
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(threw.load(), 0);
  const std::string final_text = readTextFile(path);
  bool matches = false;
  for (int t = 0; t < 4 && !matches; ++t)
    for (int i = 0; i < 100 && !matches; ++i)
      matches = final_text == content(t, i);
  EXPECT_TRUE(matches) << "torn file of " << final_text.size() << " bytes";
  int files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

}  // namespace
}  // namespace perfdojo
