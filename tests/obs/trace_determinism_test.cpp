// The observability determinism contract: a sweep instrumented with
// --trace/--timeseries produces byte-identical capture output at any
// --threads value, and the capture never perturbs the sweep results.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace fl::harness {
namespace {

core::NetworkConfig tiny_config(bool priority_enabled) {
    core::NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.block_size = 10;
    cfg.channel.block_timeout = Duration::millis(100);
    cfg.endorsement_k = 2;
    return cfg;
}

ExperimentPoint tiny_point(bool priority_enabled, double tps,
                           std::uint64_t seed_group) {
    ExperimentPoint point;
    point.label = fmt(tps, 0) + (priority_enabled ? "/priority" : "/baseline");
    point.params = {{"tps", tps},
                    {"priority_enabled", priority_enabled ? 1.0 : 0.0}};
    point.spec.config = tiny_config(priority_enabled);
    point.spec.make_workload = [tps] {
        Workload w;
        LoadSpec load;
        load.client_index = 0;
        load.tps = tps;
        load.total_txs = 60;
        load.generate = priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
        return w;
    };
    point.spec.runs = 2;
    point.seed_group = seed_group;
    return point;
}

SweepSpec tiny_sweep(unsigned threads) {
    SweepSpec sweep;
    sweep.name = "tiny_fig5";
    sweep.base_seed = 4242;
    sweep.threads = threads;
    std::uint64_t group = 0;
    for (const double tps : {100.0, 200.0, 300.0}) {
        sweep.points.push_back(tiny_point(false, tps, group));
        sweep.points.push_back(tiny_point(true, tps, group));
        ++group;
    }
    return sweep;
}

SweepCli capture_cli() {
    SweepCli cli;
    cli.trace_path = "trace.json";       // names only select the format;
    cli.timeseries_path = "ts.jsonl";    // nothing is written in these tests
    cli.trace_point = 1;                 // the 100tps/priority point
    return cli;
}

/// Runs the instrumented tiny sweep and serializes everything the capture
/// produced: sweep JSON, Chrome trace, trace JSONL, time-series JSONL.
struct CaptureBytes {
    std::string sweep_json;
    std::string chrome;
    std::string jsonl;
    std::string timeseries;
};

CaptureBytes render(unsigned threads) {
    auto sweep = tiny_sweep(threads);
    TraceCapture capture;
    std::ostringstream status;
    arm_trace_capture(sweep, capture_cli(), capture, status);
    const auto results = run_sweep(sweep);

    CaptureBytes bytes;
    std::ostringstream os;
    write_sweep_json(os, sweep, results);
    bytes.sweep_json = os.str();
    std::ostringstream chrome;
    capture.sink.write_chrome_json(chrome);
    bytes.chrome = chrome.str();
    std::ostringstream jsonl;
    capture.sink.write_jsonl(jsonl);
    bytes.jsonl = jsonl.str();
    if (capture.recorder) {
        std::ostringstream ts;
        capture.recorder->write_jsonl(ts);
        bytes.timeseries = ts.str();
    }
    return bytes;
}

TEST(TraceDeterminismTest, CaptureBytesIdenticalAcrossThreadCounts) {
    const CaptureBytes serial = render(1);
    const CaptureBytes parallel = render(4);
    EXPECT_FALSE(serial.chrome.empty());
    EXPECT_FALSE(serial.jsonl.empty());
    EXPECT_FALSE(serial.timeseries.empty());
    EXPECT_EQ(serial.sweep_json, parallel.sweep_json);
    EXPECT_EQ(serial.chrome, parallel.chrome);
    EXPECT_EQ(serial.jsonl, parallel.jsonl);
    EXPECT_EQ(serial.timeseries, parallel.timeseries);
}

TEST(TraceDeterminismTest, InstrumentationDoesNotPerturbSweepResults) {
    // The same sweep, traced vs untraced, must produce identical JSON.
    auto plain_sweep = tiny_sweep(2);
    const auto plain = run_sweep(plain_sweep);
    std::ostringstream plain_os;
    write_sweep_json(plain_os, plain_sweep, plain);

    auto traced_sweep = tiny_sweep(2);
    TraceCapture capture;
    std::ostringstream status;
    arm_trace_capture(traced_sweep, capture_cli(), capture, status);
    const auto traced = run_sweep(traced_sweep);
    std::ostringstream traced_os;
    write_sweep_json(traced_os, traced_sweep, traced);

    EXPECT_FALSE(capture.sink.empty());
    EXPECT_EQ(plain_os.str(), traced_os.str());
}

TEST(TraceDeterminismDeathTest, OutOfRangeTracePointRejected) {
    auto sweep = tiny_sweep(1);
    SweepCli cli = capture_cli();
    cli.trace_point = 99;
    TraceCapture capture;
    std::ostringstream status;
    EXPECT_EXIT(arm_trace_capture(sweep, cli, capture, status),
                ::testing::ExitedWithCode(2), "--trace-point 99 out of range \\(6 points\\)");
}

TEST(TraceDeterminismTest, NoFlagsMeansNoInstrumentation) {
    auto sweep = tiny_sweep(1);
    SweepCli cli;  // no --trace / --timeseries
    TraceCapture capture;
    std::ostringstream status;
    arm_trace_capture(sweep, cli, capture, status);
    for (const auto& point : sweep.points) {
        EXPECT_EQ(point.spec.instrument, nullptr);
    }
    EXPECT_TRUE(status.str().empty());
}

TEST(TraceDeterminismTest, EmitTraceFilesPicksFormatByExtension) {
    auto sweep = tiny_sweep(1);
    SweepCli cli = capture_cli();
    const std::string dir = ::testing::TempDir();
    cli.trace_path = dir + "fl_obs_trace.jsonl";
    cli.timeseries_path = dir + "fl_obs_ts.jsonl";
    TraceCapture capture;
    std::ostringstream status;
    arm_trace_capture(sweep, cli, capture, status);
    (void)run_sweep(sweep);
    EXPECT_TRUE(emit_trace_files(cli, capture, status));

    // A ".jsonl" trace is the line-per-event format, not a Chrome document.
    std::ifstream trace(cli.trace_path);
    ASSERT_TRUE(trace.good());
    std::string first_line;
    std::getline(trace, first_line);
    EXPECT_EQ(first_line.find("traceEvents"), std::string::npos);
    EXPECT_NE(first_line.find(R"("t_ns":)"), std::string::npos);

    std::ifstream ts(cli.timeseries_path);
    ASSERT_TRUE(ts.good());
    std::string ts_line;
    std::getline(ts, ts_line);
    EXPECT_NE(ts_line.find(R"({"t_s":)"), std::string::npos);

    std::remove(cli.trace_path.c_str());
    std::remove(cli.timeseries_path.c_str());
}

}  // namespace
}  // namespace fl::harness
