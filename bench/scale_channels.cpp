// Channel-scaling sweep (A10).
//
// Sweeps the channel count 1 → 16 (paper-default per-channel config and
// workload) through the channel-sharded engine of core::MultiChannelNetwork
// (one pool worker per channel inside each sync window, --threads) and
// reports committed totals, sync windows and cross-channel fairness.  That
// the engine is byte-identical to the serial one (DESIGN.md §16) is gated
// by bench/equivalence; this bench is still a safety gate: any channel's
// core::check_invariants violation prints INVARIANT VIOLATION and exits 1.
//
// Wall-clock timings are host-dependent and stay on stdout only; the
// BENCH_*.json bytes depend on --seed alone.
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

using Clock = std::chrono::steady_clock;

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
    fl::harness::reject_run_and_capture_flags(cli, "scale_channels");

    const std::uint64_t txs_per_channel = cli.txs_or(3000);
    const double tps = 500.0;

    std::vector<std::size_t> counts;
    for (std::size_t c : {1u, 2u, 4u, 8u, 16u}) {
        if (c <= channels_flag.value) counts.push_back(c);
    }

    fl::harness::print_banner(
        std::cout, "scale_channels: channel-sharded engine scaling",
        "channel-sharded engine at every channel count");

    fl::ThreadPool pool(cli.threads);
    const unsigned pool_size = static_cast<unsigned>(pool.size());

    fl::harness::Table table({"channels", "committed", "windows", "jain(ch)",
                              "jain(client)", "drain s*"});

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

        const fl::harness::MultiChannelResult run =
            fl::harness::run_multi_channel(spec, &pool);
        for (const auto& ch : run.channels) {
            if (ch.artifacts.violations.empty()) continue;
            all_ok = false;
            std::cout << "INVARIANT VIOLATION (" << n << " channels, ch"
                      << ch.id.value() << "):";
            for (const std::string& v : ch.artifacts.violations) std::cout << " " << v;
            std::cout << "\n";
        }

        const auto& meter = run.meter;
        std::uint64_t committed = 0;
        for (const std::uint64_t c : meter.committed_per_channel) committed += c;

        table.add_row(
            {std::to_string(n), std::to_string(committed),
             std::to_string(run.windows),
             fl::harness::fmt(meter.channel_jain_overall(), 3),
             fl::harness::fmt(meter.client_jain_overall(), 3),
             fl::harness::fmt(run.drain_wall_s, 2)});

        jw.begin_object();
        jw.field("channels", static_cast<std::uint64_t>(n));
        jw.field("windows", run.windows);
        jw.field("events", run.events_executed);
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
        for (const auto& ch : run.channels) {
            jw.value(fl::bench::hex64(ch.artifacts.chain_fingerprint));
        }
        jw.end_array();
        jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    json << "\n";

    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(Clock::now() - started).count();
    std::cout << "\n*the wall-clock column times the drain only and is "
                 "host-dependent (stdout only, never JSON).  Pool: "
              << pool_size << " worker(s).\n";
    fl::harness::print_sweep_footer(std::cout, counts.size(), pool_size, wall);

    if (cli.json_enabled && !cli.json_path.empty()) {
        std::ofstream out(cli.json_path);
        out << json.str();
        std::cout << "wrote " << cli.json_path << "\n";
    }

    return all_ok ? 0 : 1;
}
