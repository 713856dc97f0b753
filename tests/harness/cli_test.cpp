// CLI hardening for the bench drivers: strict numeric parsing, typed
// rejection (exit code 2) of malformed / zero / negative count flags and of
// flags a bench would ignore, and the one output-file writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.h"

namespace fl::harness {
namespace {

// -- parse_cli_u64: the strict parser itself --------------------------------

TEST(CliParseTest, AcceptsPlainDigits) {
    EXPECT_EQ(parse_cli_u64("0"), std::uint64_t{0});
    EXPECT_EQ(parse_cli_u64("1"), std::uint64_t{1});
    EXPECT_EQ(parse_cli_u64("123456789"), std::uint64_t{123456789});
    EXPECT_EQ(parse_cli_u64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(CliParseTest, RejectsSignsWhitespaceAndGarbage) {
    EXPECT_EQ(parse_cli_u64("-1"), std::nullopt);   // strtoull would wrap this
    EXPECT_EQ(parse_cli_u64("+1"), std::nullopt);
    EXPECT_EQ(parse_cli_u64(" 1"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("1 "), std::nullopt);
    EXPECT_EQ(parse_cli_u64("12abc"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("abc"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("0x10"), std::nullopt);
    EXPECT_EQ(parse_cli_u64("1.5"), std::nullopt);
    EXPECT_EQ(parse_cli_u64(""), std::nullopt);
    EXPECT_EQ(parse_cli_u64(nullptr), std::nullopt);
}

TEST(CliParseTest, RejectsOverflow) {
    EXPECT_EQ(parse_cli_u64("18446744073709551616"), std::nullopt);  // 2^64
    EXPECT_EQ(parse_cli_u64("99999999999999999999999"), std::nullopt);
}

// -- parse_sweep_cli: rejection paths exit with code 2 -----------------------

SweepCli parse(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bench");
    return parse_sweep_cli(static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()), 42, "cli_test");
}

TEST(CliDeathTest, ZeroTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, NegativeTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "-5"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MalformedTxsRejected) {
    EXPECT_EXIT(parse({"--txs", "12abc"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroRunsRejected) {
    EXPECT_EXIT(parse({"--runs", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, NegativeRunsRejected) {
    EXPECT_EXIT(parse({"--runs", "-1"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroThreadsRejected) {
    EXPECT_EXIT(parse({"--threads", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, MalformedThreadsRejected) {
    EXPECT_EXIT(parse({"--threads", "two"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MalformedSeedRejected) {
    EXPECT_EXIT(parse({"--seed", "0x10"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, MissingValueRejected) {
    EXPECT_EXIT(parse({"--txs"}), ::testing::ExitedWithCode(2), "missing value");
}

// -- FAIRLEDGER_RUNS / FAIRLEDGER_TOTAL_TXS: same contract as the flags -------

// Death tests run the statement in a child process, so these settings do
// not leak into other tests.
unsigned runs_with(const char* value) {
    setenv("FAIRLEDGER_RUNS", value, 1);
    return runs_from_env(3);
}

std::uint64_t txs_with(const char* value) {
    setenv("FAIRLEDGER_TOTAL_TXS", value, 1);
    return total_txs_from_env(100);
}

TEST(CliDeathTest, MalformedRunsEnvRejected) {
    EXPECT_EXIT(runs_with("abc"), ::testing::ExitedWithCode(2),
                "FAIRLEDGER_RUNS: not a non-negative integer: abc");
}

TEST(CliDeathTest, TrailingGarbageRunsEnvRejected) {
    EXPECT_EXIT(runs_with("2x"), ::testing::ExitedWithCode(2),
                "FAIRLEDGER_RUNS: not a non-negative integer: 2x");
}

TEST(CliDeathTest, NegativeTxsEnvRejected) {
    EXPECT_EXIT(txs_with("-5"), ::testing::ExitedWithCode(2),
                "FAIRLEDGER_TOTAL_TXS: not a non-negative integer: -5");
}

TEST(CliDeathTest, ZeroTxsEnvRejected) {
    EXPECT_EXIT(txs_with("0"), ::testing::ExitedWithCode(2),
                "FAIRLEDGER_TOTAL_TXS: must be >= 1");
}

TEST(CliParseTest, EnvCountsParseOrFallBack) {
    unsetenv("FAIRLEDGER_RUNS");
    EXPECT_EQ(runs_from_env(3), 3u);
    EXPECT_EQ(runs_with("7"), 7u);
    EXPECT_EQ(runs_with(""), 3u);  // empty reads as unset
    unsetenv("FAIRLEDGER_RUNS");
}

// -- bench-specific flags (BenchFlag) ----------------------------------------

struct BenchParse {
    BenchFlag accounts{"--accounts", "account count", 1'000'000, true};
    BenchFlag shards{"--shards", "shard count", 0, true, 256};
    BenchFlag zipf{"--zipf", "skew hundredths", 99, false, 99};
    SweepCli cli;

    explicit BenchParse(std::vector<const char*> argv) {
        argv.insert(argv.begin(), "bench");
        cli = parse_sweep_cli(static_cast<int>(argv.size()),
                              const_cast<char**>(argv.data()), 42, "cli_test",
                              {&accounts, &shards, &zipf});
    }
};

TEST(CliParseTest, BenchFlagsKeepDefaultsWhenAbsent) {
    const BenchParse p({"--txs", "10"});
    EXPECT_EQ(p.accounts.value, 1'000'000u);
    EXPECT_FALSE(p.accounts.seen);
    EXPECT_EQ(p.shards.value, 0u);
    EXPECT_FALSE(p.shards.seen);
    EXPECT_EQ(p.zipf.value, 99u);
}

TEST(CliParseTest, BenchFlagsParseAlongsideSharedFlags) {
    const BenchParse p({"--accounts", "5000", "--threads", "2", "--shards",
                        "8", "--zipf", "0"});
    EXPECT_EQ(p.accounts.value, 5000u);
    EXPECT_TRUE(p.accounts.seen);
    EXPECT_EQ(p.shards.value, 8u);
    EXPECT_TRUE(p.shards.seen);
    EXPECT_EQ(p.zipf.value, 0u);  // positive=false: zero allowed
    EXPECT_TRUE(p.zipf.seen);
    EXPECT_EQ(p.cli.threads, 2u);
}

TEST(CliDeathTest, MalformedBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--accounts", "1e6"}),
                ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeathTest, NegativeBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--accounts", "-3"}),
                ::testing::ExitedWithCode(2), "not a non-negative integer");
}

TEST(CliDeathTest, ZeroPositiveBenchFlagRejected) {
    EXPECT_EXIT(BenchParse({"--shards", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

TEST(CliDeathTest, BenchFlagAboveMaxRejected) {
    EXPECT_EXIT(BenchParse({"--zipf", "100"}), ::testing::ExitedWithCode(2),
                "must be <= 99");
    EXPECT_EXIT(BenchParse({"--shards", "257"}), ::testing::ExitedWithCode(2),
                "must be <= 256");
}

TEST(CliDeathTest, BenchFlagMissingValueRejected) {
    EXPECT_EXIT(BenchParse({"--accounts"}), ::testing::ExitedWithCode(2),
                "missing value");
}

TEST(CliDeathTest, UnknownFlagStillRejectedWithBenchFlags) {
    EXPECT_EXIT(BenchParse({"--nope", "1"}), ::testing::ExitedWithCode(2),
                "unknown option");
}

// -- accepted values round-trip ---------------------------------------------

TEST(CliParseTest, ValidFlagsParse) {
    const SweepCli cli =
        parse({"--txs", "1000", "--runs", "3", "--threads", "4", "--seed", "7"});
    ASSERT_TRUE(cli.total_txs.has_value());
    EXPECT_EQ(*cli.total_txs, 1000u);
    ASSERT_TRUE(cli.runs.has_value());
    EXPECT_EQ(*cli.runs, 3u);
    EXPECT_EQ(cli.threads, 4u);
    EXPECT_EQ(cli.base_seed, 7u);
}

TEST(CliParseTest, SeedZeroIsAllowed) {
    // --seed is a raw u64, not a count: 0 is a legitimate seed.
    EXPECT_EQ(parse({"--seed", "0"}).base_seed, 0u);
}

// -- fairness-audit flags -----------------------------------------------------

TEST(CliParseTest, AuditFlagsDefaultOff) {
    const SweepCli cli = parse({"--txs", "10"});
    EXPECT_FALSE(cli.audit);
    EXPECT_FALSE(cli.audit_window_seen);
    EXPECT_EQ(cli.audit_window_ms, 1000u);
}

TEST(CliParseTest, AuditFlagsParse) {
    const SweepCli cli = parse({"--audit", "--audit-window", "250"});
    EXPECT_TRUE(cli.audit);
    EXPECT_TRUE(cli.audit_window_seen);
    EXPECT_EQ(cli.audit_window_ms, 250u);
    EXPECT_EQ(cli.audit_config().window, Duration::millis(250));
}

TEST(CliParseTest, AuditWindowDefaultsToOneSecond) {
    EXPECT_EQ(parse({"--audit"}).audit_config().window, Duration::seconds(1));
}

TEST(CliDeathTest, AuditWindowMissingValueRejected) {
    EXPECT_EXIT(parse({"--audit-window"}), ::testing::ExitedWithCode(2),
                "missing value");
}

TEST(CliDeathTest, MalformedAuditWindowRejected) {
    EXPECT_EXIT(parse({"--audit-window", "2s"}), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(CliDeathTest, ZeroAuditWindowRejected) {
    EXPECT_EXIT(parse({"--audit-window", "0"}), ::testing::ExitedWithCode(2),
                "must be >= 1");
}

// -- apply_audit_cli ----------------------------------------------------------

SweepSpec two_point_spec() {
    SweepSpec spec;
    spec.points.resize(2);
    spec.points[0].label = "plain";
    spec.points[1].label = "preconfigured";
    spec.points[1].spec.audit = obs::audit::AuditConfig{};
    spec.points[1].spec.audit->window = Duration::millis(2000);
    return spec;
}

TEST(CliParseTest, ApplyAuditCliAttachesDefaultConfig) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--audit"}));
    ASSERT_TRUE(spec.points[0].spec.audit.has_value());
    EXPECT_EQ(spec.points[0].spec.audit->window, Duration::seconds(1));
    // A bench-provided audit config (its window tuned to its scenario) wins.
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(2000));
}

TEST(CliParseTest, ApplyAuditCliExplicitWindowOverridesEveryPoint) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--audit", "--audit-window", "500"}));
    EXPECT_EQ(spec.points[0].spec.audit->window, Duration::millis(500));
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(500));
}

TEST(CliParseTest, ApplyAuditCliIsANoOpWithoutFlags) {
    SweepSpec spec = two_point_spec();
    apply_audit_cli(spec, parse({"--txs", "10"}));
    EXPECT_FALSE(spec.points[0].spec.audit.has_value());
    EXPECT_EQ(spec.points[1].spec.audit->window, Duration::millis(2000));
}

// -- reject_run_and_capture_flags: accepted-then-ignored flags exit 2 --------

void reject(std::vector<const char*> argv) {
    reject_run_and_capture_flags(parse(std::move(argv)), "fixed_bench");
}

TEST(CliDeathTest, IgnoredRunsRejected) {
    EXPECT_EXIT(reject({"--runs", "3"}), ::testing::ExitedWithCode(2),
                "fixed_bench: --runs is not supported");
}

TEST(CliDeathTest, IgnoredTraceRejected) {
    EXPECT_EXIT(reject({"--trace", "t.json"}), ::testing::ExitedWithCode(2),
                "fixed_bench: --trace is not supported");
}

TEST(CliDeathTest, IgnoredTimeseriesRejected) {
    EXPECT_EXIT(reject({"--timeseries", "ts.jsonl"}), ::testing::ExitedWithCode(2),
                "fixed_bench: --timeseries is not supported");
}

TEST(CliDeathTest, IgnoredAuditRejected) {
    EXPECT_EXIT(reject({"--audit"}), ::testing::ExitedWithCode(2),
                "fixed_bench: --audit is not supported");
}

TEST(CliDeathTest, IgnoredAuditWindowRejected) {
    EXPECT_EXIT(reject({"--audit-window", "500"}), ::testing::ExitedWithCode(2),
                "fixed_bench: --audit-window is not supported");
}

TEST(CliDeathTest, IgnoredTracePointRejected) {
    // parse_sweep_cli already refuses --trace-point without a capture flag,
    // and a capture flag is rejected first; the check itself still names it.
    SweepCli cli;
    cli.trace_point = 1;
    EXPECT_EXIT(reject_run_and_capture_flags(cli, "fixed_bench"),
                ::testing::ExitedWithCode(2),
                "fixed_bench: --trace-point is not supported");
}

TEST(CliParseTest, FlagsAFixedBenchReadsAreAccepted) {
    // Returns: a fixed bench reads every one of these.
    reject({"--threads", "2", "--seed", "7", "--txs", "300", "--no-json"});
}

TEST(CliDeathTest, SyntheticBenchRejectsSeedAndTxs) {
    const auto reject_synthetic = [](std::vector<const char*> argv) {
        reject_run_and_capture_flags(parse(std::move(argv)), "synthetic_bench",
                                     /*synthetic=*/true);
    };
    EXPECT_EXIT(reject_synthetic({"--seed", "5"}), ::testing::ExitedWithCode(2),
                "synthetic_bench: --seed is not supported");
    EXPECT_EXIT(reject_synthetic({"--txs", "300"}), ::testing::ExitedWithCode(2),
                "synthetic_bench: --txs is not supported");
    // Returns: the flags a synthetic bench does read.
    reject_synthetic({"--threads", "2", "--json", "x.json"});
}

// -- --trace-point needs a capture to select --------------------------------

TEST(CliDeathTest, TracePointWithoutCaptureRejected) {
    EXPECT_EXIT(parse({"--trace-point", "1"}), ::testing::ExitedWithCode(2),
                "--trace-point: needs --trace or --timeseries");
}

TEST(CliParseTest, TracePointParsesWithACapture) {
    EXPECT_FALSE(parse({"--trace", "t.json"}).trace_point.has_value());
    EXPECT_EQ(parse({"--timeseries", "ts.jsonl", "--trace-point", "3"}).trace_point,
              std::size_t{3});
}

// -- write_output_file: the one writer of bench outputs ----------------------

TEST(CliDeathTest, UnwritableOutputPathRejected) {
    EXPECT_EXIT(write_output_file("/nonexistent/dir/x.json", "{}\n"),
                ::testing::ExitedWithCode(2),
                "cannot write output file /nonexistent/dir/x.json");
}

TEST(CliParseTest, WriteOutputFileWritesContents) {
    const std::string path = ::testing::TempDir() + "fl_cli_output.json";
    write_output_file(path, "{\"ok\":true}\n");
    std::ifstream in(path);
    const std::string contents((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "{\"ok\":true}\n");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::harness
