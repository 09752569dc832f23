#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/hilbert.h"
#include "util/rng.h"
#include "util/table.h"

namespace movd {
namespace {

TEST(RngTest, DeterministicSequences) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= a2.NextU64() != c.NextU64();
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, NextBelowIsUnbiasedEnough) {
  Rng rng(6);
  int counts[10] = {};
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBelow(10)];
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(FlagsTest, ParsesValuesAndDefaults) {
  const char* argv[] = {"prog", "--size=100",   "--epsilon=0.5",
                        "--on", "--off=false", "positional"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("size", 1), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 1.0), 0.5);
  EXPECT_TRUE(flags.GetBool("on", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_TRUE(flags.Has("size"));
  EXPECT_FALSE(flags.Has("nope"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, MalformedNumbersFallBackToDefault) {
  const char* argv[] = {"prog", "--size=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("size", 3), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("size", 2.5), 2.5);
}

TEST(FlagsTest, MalformedValuesAreRecordedAndNamed) {
  const char* argv[] = {"prog",         "--threads=four", "--epsilon=1.2.3",
                        "--audit=yes",  "--count=",       "--ints=12abc",
                        "--huge=99999999999999999999",    "--seed"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("threads", 1), 1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 0.5), 0.5);
  EXPECT_FALSE(flags.GetBool("audit", false));
  EXPECT_EQ(flags.GetInt("count", 9), 9);
  EXPECT_EQ(flags.GetInt("ints", 3), 3);
  EXPECT_EQ(flags.GetInt("huge", 4), 4);
  EXPECT_EQ(flags.GetInt("seed", 5), 5);  // a bare flag is not a number
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(flags.ReportMalformed(sink), 7);
  std::rewind(sink);
  std::string report;
  char line[256];
  while (std::fgets(line, sizeof(line), sink) != nullptr) report += line;
  std::fclose(sink);
  EXPECT_NE(report.find("--threads=four is not an integer"),
            std::string::npos);
  EXPECT_NE(report.find("--epsilon=1.2.3 is not a number"),
            std::string::npos);
  EXPECT_NE(report.find("--audit=yes is not true, false, 1 or 0"),
            std::string::npos);
}

TEST(FlagsTest, ListsParseEveryElementOrAreMalformed) {
  const char* argv[] = {"prog",          "--sizes=16,32", "--eps=1e-2,0.5",
                        "--bad=16,3x",   "--gap=16,,32",  "--neg=4,-1",
                        "--trail=1e-3,", "--empty="};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetSizeList("sizes", "1"), (std::vector<size_t>{16, 32}));
  EXPECT_EQ(flags.GetDoubleList("eps", "1"),
            (std::vector<double>{1e-2, 0.5}));
  EXPECT_EQ(flags.GetSizeList("absent", "8,9"), (std::vector<size_t>{8, 9}));
  EXPECT_EQ(flags.ReportMalformed(stderr), 0);
  // A malformed list is never read as its well-formed prefix or as zeros:
  // it falls back to the default and is recorded under its flag name.
  EXPECT_EQ(flags.GetSizeList("bad", "8"), (std::vector<size_t>{8}));
  EXPECT_EQ(flags.GetSizeList("gap", "8"), (std::vector<size_t>{8}));
  EXPECT_EQ(flags.GetSizeList("neg", "8"), (std::vector<size_t>{8}));
  EXPECT_EQ(flags.GetDoubleList("trail", "0.25"),
            (std::vector<double>{0.25}));
  EXPECT_EQ(flags.GetSizeList("empty", "8"), (std::vector<size_t>{8}));
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(flags.ReportMalformed(sink), 5);
  std::rewind(sink);
  std::string report;
  char line[256];
  while (std::fgets(line, sizeof(line), sink) != nullptr) report += line;
  std::fclose(sink);
  EXPECT_NE(report.find("--bad=16,3x is not a list of non-negative integers"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("--trail=1e-3, is not a list of numbers"),
            std::string::npos)
      << report;
}

TEST(FlagsTest, WellFormedSpellingsAreNotMalformed) {
  // Bare booleans, true/false/1/0, and the numeric spellings the CI
  // workflow, tools/run_perf_suite.sh and perfbench/run.py pass.
  const char* argv[] = {"prog",           "--tiny",        "--on=true",
                        "--off=false",    "--one=1",       "--zero=0",
                        "--threads=2",    "--seed=42",     "--seconds=30",
                        "--epsilon=1e-3", "--world=10000", "--neg=-3",
                        "--trace=1",      "--admit_delay_ms=0.5"};
  Flags flags(14, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("tiny", false));
  EXPECT_TRUE(flags.GetBool("on", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_TRUE(flags.GetBool("one", false));
  EXPECT_FALSE(flags.GetBool("zero", true));
  EXPECT_EQ(flags.GetInt("threads", 1), 2);
  EXPECT_EQ(flags.GetInt("seed", 1), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("seconds", 10), 30.0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("epsilon", 1.0), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("world", 1.0), 10000.0);
  EXPECT_EQ(flags.GetInt("neg", 0), -3);
  EXPECT_TRUE(flags.GetBool("trace", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("admit_delay_ms", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("absent", 6), 6);
  EXPECT_EQ(flags.ReportMalformed(stderr), 0);
}

TEST(FlagsTest, WarnUnusedReportsOnlyUnqueriedFlags) {
  const char* argv[] = {"prog", "--size=100", "--typod_flag=1", "--other"};
  Flags flags(4, const_cast<char**>(argv));
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  // Nothing queried yet: every flag is "unused".
  EXPECT_EQ(flags.WarnUnused(sink), 3);
  // Querying (even via Has, even for a flag that is absent) marks names.
  EXPECT_EQ(flags.GetInt("size", 1), 100);
  EXPECT_FALSE(flags.Has("absent"));
  EXPECT_EQ(flags.WarnUnused(sink), 2);
  flags.GetBool("other", false);
  flags.GetInt("typod_flag", 0);
  EXPECT_EQ(flags.WarnUnused(sink), 0);
  std::fclose(sink);
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  // Render to a temp file and check content.
  const std::string path = ::testing::TempDir() + "/table.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "r");
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "name    value\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(TableTest, FmtRounds) {
  EXPECT_EQ(Table::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Fmt(1.235, 2), "1.24");  // round half up (to even digit)
  EXPECT_EQ(Table::Fmt(10.0, 0), "10");
}

TEST(HilbertTest, BijectiveOnSmallGrid) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      seen.insert(HilbertIndex(4, x, y));
    }
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 255u);
}

TEST(HilbertTest, AdjacentIndicesAreAdjacentCells) {
  // The Hilbert property: consecutive curve positions are grid neighbours.
  std::vector<std::pair<uint32_t, uint32_t>> by_index(256);
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      by_index[HilbertIndex(4, x, y)] = {x, y};
    }
  }
  for (size_t i = 1; i < by_index.size(); ++i) {
    const auto [x0, y0] = by_index[i - 1];
    const auto [x1, y1] = by_index[i];
    const uint32_t manhattan = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(manhattan, 1u) << "at index " << i;
  }
}

}  // namespace
}  // namespace movd
