// The CLI exit codes are a contract with every script that branches on
// them — the CI jobs first among them.  This test pins the numeric values:
// a renumbering (as opposed to an append) must fail loudly here, not
// silently flip a script's error handling.  It also pins where the bench
// binaries' flag parser uses them.
#include "tools/exit_codes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace cgs::tools {
namespace {

TEST(ExitCodes, ValuesArePinned) {
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitVerifyFailed, 1);
  EXPECT_EQ(kExitUsage, 2);
  EXPECT_EQ(kExitJobsFailed, 3);
  EXPECT_EQ(kExitInterrupted, 4);
  EXPECT_EQ(kExitJournalMismatch, 5);
}

TEST(ExitCodes, ValuesAreDistinct) {
  const int codes[] = {kExitOk,          kExitVerifyFailed,
                       kExitUsage,       kExitJobsFailed,
                       kExitInterrupted, kExitJournalMismatch};
  for (std::size_t i = 0; i < std::size(codes); ++i) {
    for (std::size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_NE(codes[i], codes[j]) << "codes " << i << " and " << j;
    }
  }
}

TEST(ExitCodes, WholeArgAcceptsDecimalTokensInRange) {
  EXPECT_EQ(whole_arg("--runs", "1", 1, 100), 1u);
  EXPECT_EQ(whole_arg("--runs", "100", 1, 100), 100u);
  EXPECT_EQ(whole_arg("--threads", "0", 0, 100), 0u);
  EXPECT_EQ(whole_arg("--seed", "18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(real_arg("--job-timeout", "0"), 0.0);
  EXPECT_EQ(real_arg("--job-timeout", "2"), 2.0);
  EXPECT_EQ(real_arg("--job-mem", "0.5"), 0.5);
}

TEST(ExitCodesDeathTest, WholeArgRejectsAnythingElseAsUsage) {
  for (const char* bad : {"0", "abc", "", "-1", "+3", " 3", "3x", "101",
                          "99999999999999999999"}) {
    EXPECT_EXIT(whole_arg("--runs", bad, 1, 100),
                ::testing::ExitedWithCode(kExitUsage), "invalid --runs value")
        << "'" << bad << "'";
  }
  for (const char* bad : {"abc", "", "-1", "2s", "nan", "inf"}) {
    EXPECT_EXIT(real_arg("--job-timeout", bad),
                ::testing::ExitedWithCode(kExitUsage),
                "invalid --job-timeout value")
        << "'" << bad << "'";
  }
}

/// bench::parse_args over `flags`, as a bench binary named "fig" sees them.
bench::CommonArgs parse_bench_flags(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "fig");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return bench::parse_args(int(argv.size()), argv.data(), "fig");
}

TEST(BenchArgsDeathTest, UnknownFlagIsUsage) {
  const bench::CommonArgs a = parse_bench_flags(
      {"--runs=15", "--threads=2", "--csv", "--no-color", "--seed=7"});
  EXPECT_EQ(a.runs, 15);
  EXPECT_EQ(a.threads, 2);
  EXPECT_TRUE(a.csv);
  EXPECT_FALSE(a.color);
  EXPECT_EQ(a.seed, 7u);
  // A misspelt flag or a value without '=' must not run at the defaults.
  const std::vector<std::vector<std::string>> bad_flags = {
      {"--bogus"}, {"--runs=1", "--thread=2"}, {"--runs", "15"}};
  for (const std::vector<std::string>& bad : bad_flags) {
    EXPECT_EXIT(parse_bench_flags(bad), ::testing::ExitedWithCode(kExitUsage),
                "usage: fig ")
        << bad.back();
  }
  EXPECT_EXIT(parse_bench_flags({"--help"}),
              ::testing::ExitedWithCode(kExitOk), "");
}

}  // namespace
}  // namespace cgs::tools
