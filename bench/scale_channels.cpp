// Channel-scaling sweep + serial-vs-parallel equivalence gate (A10).
//
// Sweeps the channel count 1 → 16 (paper-default per-channel config and
// workload) and runs every point through BOTH engines of
// core::MultiChannelNetwork:
//
//   serial    — channels advance in index order within each sync window;
//   parallel  — one pool worker per channel inside each window (--threads).
//
// Per point, harness::diff compares every channel's artifacts (metrics
// JSON, trace JSONL, chain/state fingerprints, counts, invariant
// violations) and the cross-channel meter series is compared too.  Any
// divergence or violation prints CHANNEL EQUIVALENCE VIOLATION and exits 1
// — channel sharding is an engine optimization, never an observable
// (DESIGN.md §16).  The 1-channel point is additionally diffed against
// harness::run_once on the same config and seed.
//
// Wall-clock timings and the speedup column are host-dependent and stay on
// stdout only; the BENCH_*.json bytes depend on --seed alone.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fig_common.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "harness/channels.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Per-channel artifact diffs (plus invariant violations) and the meter
/// comparison of two engine results; empty = equivalent.
std::vector<std::string> diff_runs(const fl::harness::MultiChannelResult& a,
                                   const fl::harness::MultiChannelResult& b) {
    std::vector<std::string> diffs;
    if (a.channels.size() != b.channels.size()) {
        diffs.push_back("channel count mismatch");
        return diffs;
    }
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        const std::string tag = "ch" + std::to_string(a.channels[i].id.value());
        for (const std::string& field :
             fl::harness::diff(a.channels[i].artifacts, b.channels[i].artifacts)) {
            diffs.push_back(tag + " " + field);
        }
        for (const std::string& v : a.channels[i].artifacts.violations) {
            diffs.push_back(tag + " invariant " + v);
        }
    }
    if (a.events_executed != b.events_executed) diffs.push_back("event count");
    if (a.windows != b.windows) diffs.push_back("window count");
    if (!(a.meter == b.meter)) diffs.push_back("cross-channel meter series");
    return diffs;
}

}  // namespace

int main(int argc, char** argv) {
    fl::harness::BenchFlag channels_flag{
        "--channels", "--channels N     largest channel count (default 16)", 16,
        /*positive=*/true, /*max=*/64};
    fl::harness::BenchFlag window_flag{
        "--window-ms", "--window-ms W   sync window in ms (default 250)", 250,
        /*positive=*/true, /*max=*/60000};
    const fl::harness::SweepCli cli = fl::harness::parse_sweep_cli(
        argc, argv, /*default_seed=*/42, "scale_channels",
        {&channels_flag, &window_flag});

    const std::uint64_t txs_per_channel = cli.txs_or(3000);
    const double tps = 500.0;

    std::vector<std::size_t> counts;
    for (std::size_t c : {1u, 2u, 4u, 8u, 16u}) {
        if (c <= channels_flag.value) counts.push_back(c);
    }

    fl::harness::print_banner(
        std::cout, "scale_channels: channel-sharded engine scaling",
        "serial vs parallel byte equivalence at every channel count");

    fl::ThreadPool pool(cli.threads);
    const unsigned pool_size = static_cast<unsigned>(pool.size());

    fl::harness::Table table({"channels", "committed", "windows", "jain(ch)",
                              "jain(client)", "serial s*", "parallel s*",
                              "speedup*", "equal"});

    std::ostringstream json;
    fl::JsonWriter jw(json);
    jw.begin_object();
    jw.field("bench", "scale_channels");
    jw.field("base_seed", cli.base_seed);
    jw.field("window_ms", window_flag.value);
    jw.field("txs_per_channel", txs_per_channel);
    jw.key("points");
    jw.begin_array();

    bool all_ok = true;
    const auto started = Clock::now();
    for (const std::size_t n : counts) {
        fl::harness::MultiChannelSpec spec;
        spec.config = fl::core::MultiChannelConfig::uniform(
            fl::bench::paper_config(/*priority_enabled=*/true), n);
        spec.config.sync_window =
            fl::Duration::millis(static_cast<std::int64_t>(window_flag.value));
        const std::size_t clients = spec.config.base.clients;
        spec.make_workload = [clients, tps, txs_per_channel](std::size_t) {
            return fl::bench::paper_workload(clients, tps, txs_per_channel);
        };
        spec.seed = cli.base_seed;
        spec.capture_trace = true;

        const fl::harness::MultiChannelResult serial =
            fl::harness::run_multi_channel(spec, nullptr);
        const fl::harness::MultiChannelResult parallel =
            fl::harness::run_multi_channel(spec, &pool);

        std::vector<std::string> diffs = diff_runs(serial, parallel);
        if (n == 1) {
            fl::harness::ExperimentSpec legacy;
            legacy.config = spec.config.channel_config(0);
            legacy.make_workload = [&spec] { return spec.make_workload(0); };
            legacy.capture_trace = true;
            for (const std::string& field : fl::harness::diff(
                     parallel.channels[0].artifacts,
                     fl::harness::run_once(legacy, spec.seed).artifacts)) {
                diffs.push_back("legacy " + field);
            }
        }
        for (const std::string& d : diffs) {
            std::cout << "DIVERGENCE (" << n << " channels): " << d << "\n";
        }
        const bool ok = diffs.empty();
        all_ok = all_ok && ok;

        const auto& meter = parallel.meter;
        std::uint64_t committed = 0;
        for (const std::uint64_t c : meter.committed_per_channel) committed += c;

        table.add_row(
            {std::to_string(n), std::to_string(committed),
             std::to_string(parallel.windows),
             fl::harness::fmt(meter.channel_jain_overall(), 3),
             fl::harness::fmt(meter.client_jain_overall(), 3),
             fl::harness::fmt(serial.drain_wall_s, 2),
             fl::harness::fmt(parallel.drain_wall_s, 2),
             fl::harness::fmt(parallel.drain_wall_s > 0.0
                                  ? serial.drain_wall_s / parallel.drain_wall_s
                                  : 0.0,
                              2),
             ok ? "OK" : "MISMATCH"});

        jw.begin_object();
        jw.field("channels", static_cast<std::uint64_t>(n));
        jw.field("windows", parallel.windows);
        jw.field("events", parallel.events_executed);
        jw.field("committed_total", committed);
        jw.key("committed_per_channel");
        jw.begin_array();
        for (const std::uint64_t c : meter.committed_per_channel) jw.value(c);
        jw.end_array();
        jw.field("channel_jain", meter.channel_jain_overall());
        jw.field("client_jain", meter.client_jain_overall());
        jw.field("org_cpu_jain", meter.org_cpu_jain_overall());
        jw.field("channel_jain_min", meter.channel_jain_min);
        jw.field("client_jain_min", meter.client_jain_min);
        jw.key("chain_fingerprints");
        jw.begin_array();
        for (const auto& ch : parallel.channels) {
            jw.value(fl::bench::hex64(ch.artifacts.chain_fingerprint));
        }
        jw.end_array();
        jw.field("equal", ok);
        jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    json << "\n";

    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(Clock::now() - started).count();
    std::cout << "\n*wall-clock columns time the drain only and are "
                 "host-dependent (stdout only, never JSON).  Pool: "
              << pool_size << " worker(s).\n";
    fl::harness::print_sweep_footer(std::cout, counts.size(), pool_size, wall);

    if (cli.json_enabled && !cli.json_path.empty()) {
        std::ofstream out(cli.json_path);
        out << json.str();
        std::cout << "wrote " << cli.json_path << "\n";
    }

    if (!all_ok) {
        std::cout << "CHANNEL EQUIVALENCE VIOLATION (see divergences above)\n";
        return 1;
    }
    return 0;
}
