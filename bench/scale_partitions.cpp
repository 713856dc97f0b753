// Node-group partition sweep + serial-vs-partitioned equivalence gate (A11).
//
// Runs the scale_state workload (Zipf-skewed asset transfers over a
// pre-seeded account space, paper-default network) through the
// intra-channel partitioned engine at every layout — single | roles |
// per-node — with and without a worker pool.  Every variant is one
// harness::run_once with the layout set in the config, and harness::diff
// compares its artifacts against the serial engine's: metrics JSON, trace
// JSONL, chain/state fingerprints, block height, event count, invariant
// violations.  Any divergence prints PARTITION EQUIVALENCE VIOLATION and
// exits 1 — node-group partitioning is an engine optimization, never an
// observable (DESIGN.md §17).
//
// Wall-clock timings (RunResult::drain_wall_s, the drain alone) and the
// speedup column are host-dependent: they stay on stdout plus a separate
// *_timing.json artifact (so the perf trajectory lands in the BENCH_*.json
// uploads without poisoning the deterministic JSON, whose bytes depend on
// --seed alone).  --min-speedup P turns the
// roles-layout speedup into a gate (P in percent, 150 = 1.5x); CI only
// passes it on runners with enough cores for the number to mean anything.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fig_common.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

struct BenchSetup {
    fl::core::NetworkConfig config;  ///< partition scheme overridden per run
    std::uint64_t seed = 0;
    std::uint64_t accounts = 0;
    double theta = 0.0;
    double total_tps = 2'000.0;  ///< well past the 500 tps knee
    std::uint64_t txs = 0;
};

fl::harness::Workload make_workload(const BenchSetup& s) {
    fl::harness::Workload w;
    const std::size_t clients = s.config.clients;
    for (std::size_t c = 0; c < clients; ++c) {
        fl::harness::LoadSpec load;
        load.client_index = c;
        load.tps = s.total_tps / static_cast<double>(clients);
        load.generate = fl::harness::zipfian_transfers(s.accounts, s.theta,
                                                       /*mint_fraction=*/0.1);
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(s.txs);
    return w;
}

/// One run at `scheme` and its engine shape.
struct LayoutRun {
    fl::harness::RunResult result;
    std::uint64_t groups = 1;
    std::uint64_t windows = 0;
};

/// harness::run_once at `scheme`, with a trace captured.
LayoutRun drive(const BenchSetup& s, fl::core::PartitionScheme scheme,
                fl::ThreadPool* pool) {
    LayoutRun out;
    fl::harness::ExperimentSpec spec;
    spec.config = s.config;
    spec.config.partition.scheme = scheme;
    spec.make_workload = [&s] { return make_workload(s); };
    spec.capture_trace = true;
    spec.instrument = [&s](fl::core::FabricNetwork& net, unsigned) {
        fl::harness::seed_scale_accounts(net, s.accounts);
    };
    spec.run_probe = [&out](fl::core::FabricNetwork& net,
                            std::map<std::string, double>&) {
        out.groups = net.partition_groups();
        out.windows = net.partition_windows();
    };
    out.result = fl::harness::run_once(spec, s.seed, 0, pool);
    return out;
}

/// Artifact fields where `run` differs from the serial baseline, tagged.
std::vector<std::string> diff_vs_baseline(const LayoutRun& base,
                                          const LayoutRun& run,
                                          const std::string& tag) {
    std::vector<std::string> diffs;
    for (const std::string& field :
         fl::harness::diff(base.result.artifacts, run.result.artifacts)) {
        diffs.push_back(tag + " " + field);
    }
    for (const std::string& v : run.result.artifacts.violations) {
        diffs.push_back(tag + " invariant " + v);
    }
    return diffs;
}

/// BENCH_x.json → BENCH_x_timing.json (same directory, so it rides the
/// same artifact glob as the deterministic JSON).
std::string timing_path(const std::string& json_path) {
    const std::string suffix = ".json";
    if (json_path.size() > suffix.size() &&
        json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
        return json_path.substr(0, json_path.size() - suffix.size()) +
               "_timing.json";
    }
    return json_path + "_timing.json";
}

}  // namespace

int main(int argc, char** argv) {
    fl::harness::BenchFlag accounts_flag{
        "--accounts", "--accounts N    pre-seeded account count (default 50000)",
        50'000, /*positive=*/true};
    fl::harness::BenchFlag zipf_flag{
        "--zipf", "--zipf H        Zipf theta in hundredths (99 = 0.99; 0 = uniform)",
        99, /*positive=*/false, /*max=*/99};
    fl::harness::BenchFlag min_speedup_flag{
        "--min-speedup",
        "--min-speedup P require roles-layout speedup >= P percent (150 = "
        "1.5x; default: report only)",
        0, /*positive=*/false, /*max=*/10'000};
    const fl::harness::SweepCli cli = fl::harness::parse_sweep_cli(
        argc, argv, /*default_seed=*/42, "scale_partitions",
        {&accounts_flag, &zipf_flag, &min_speedup_flag});

    BenchSetup setup;
    setup.config = fl::bench::paper_config(/*priority_enabled=*/true);
    setup.seed = cli.base_seed;
    setup.accounts = accounts_flag.value;
    setup.theta = static_cast<double>(zipf_flag.value) / 100.0;
    setup.txs = cli.txs_or(4'000);

    fl::harness::print_banner(
        std::cout, "scale_partitions: intra-channel partitioned engine",
        "serial vs partitioned byte equivalence at every node-group layout");
    std::cout << "accounts=" << setup.accounts << " zipf_theta=" << setup.theta
              << " txs=" << setup.txs << " rate=" << setup.total_tps
              << " tps\n\n";

    fl::ThreadPool pool(cli.threads);
    const unsigned pool_size = static_cast<unsigned>(pool.size());
    const unsigned hw_threads = std::thread::hardware_concurrency();

    struct Layout {
        const char* label;
        fl::core::PartitionScheme scheme;
    };
    const std::vector<Layout> layouts = {
        {"single", fl::core::PartitionScheme::kSingle},
        {"roles", fl::core::PartitionScheme::kRoles},
        {"per-node", fl::core::PartitionScheme::kPerNode},
    };

    fl::harness::Table table({"layout", "groups", "windows", "committed",
                              "blocks", "inline s*", "pooled s*", "speedup*",
                              "equal"});

    std::ostringstream json;
    fl::JsonWriter jw(json);
    jw.begin_object();
    jw.field("bench", "scale_partitions");
    jw.field("base_seed", cli.base_seed);
    jw.field("accounts", setup.accounts);
    jw.field("zipf_hundredths", zipf_flag.value);
    jw.field("txs", setup.txs);
    jw.key("points");
    jw.begin_array();

    std::ostringstream timing_json;
    fl::JsonWriter tw(timing_json);
    tw.begin_object();
    tw.field("bench", "scale_partitions_timing");
    tw.field("hardware_threads", static_cast<std::uint64_t>(hw_threads));
    tw.field("pool_workers", static_cast<std::uint64_t>(pool_size));
    tw.key("points");
    tw.begin_array();

    bool all_ok = true;
    double roles_speedup = 0.0;
    LayoutRun baseline;
    const auto started = Clock::now();
    for (const Layout& layout : layouts) {
        std::vector<std::string> diffs;
        LayoutRun inline_run;
        LayoutRun pooled_run;
        double speedup = 0.0;
        if (layout.scheme == fl::core::PartitionScheme::kSingle) {
            // The serial engine IS the baseline; a pool changes nothing at
            // one group, so this point runs once and gates only safety.
            baseline = drive(setup, layout.scheme, nullptr);
            inline_run = baseline;
            pooled_run = baseline;
            diffs = diff_vs_baseline(baseline, baseline, layout.label);
        } else {
            inline_run = drive(setup, layout.scheme, nullptr);
            pooled_run = drive(setup, layout.scheme, &pool);
            const std::string tag(layout.label);
            diffs = diff_vs_baseline(baseline, inline_run, tag + "/inline");
            const auto pooled_diffs =
                diff_vs_baseline(baseline, pooled_run, tag + "/pooled");
            diffs.insert(diffs.end(), pooled_diffs.begin(), pooled_diffs.end());
            if (inline_run.windows != pooled_run.windows) {
                diffs.push_back(tag + " window count (pool-dependent)");
            }
            speedup = pooled_run.result.drain_wall_s > 0.0
                          ? baseline.result.drain_wall_s /
                                pooled_run.result.drain_wall_s
                          : 0.0;
            if (layout.scheme == fl::core::PartitionScheme::kRoles) {
                roles_speedup = speedup;
            }
        }
        for (const std::string& d : diffs) {
            std::cout << "DIVERGENCE (" << layout.label << "): " << d << "\n";
        }
        const bool ok = diffs.empty();
        all_ok = all_ok && ok;

        const bool partitioned =
            layout.scheme != fl::core::PartitionScheme::kSingle;
        const fl::harness::RunArtifacts& pooled = pooled_run.result.artifacts;
        const std::uint64_t committed =
            pooled_run.result.metrics.committed_valid();
        table.add_row({layout.label, std::to_string(pooled_run.groups),
                       std::to_string(pooled_run.windows),
                       std::to_string(committed),
                       std::to_string(pooled.blocks),
                       fl::harness::fmt(inline_run.result.drain_wall_s, 2),
                       partitioned
                           ? fl::harness::fmt(pooled_run.result.drain_wall_s, 2)
                           : "-",
                       partitioned ? fl::harness::fmt(speedup, 2) : "-",
                       ok ? "OK" : "MISMATCH"});

        jw.begin_object();
        jw.field("layout", layout.label);
        jw.field("groups", pooled_run.groups);
        jw.field("windows", pooled_run.windows);
        jw.field("events", pooled.events_executed);
        jw.field("committed", committed);
        jw.field("blocks", pooled.blocks);
        jw.field("chain_fingerprint", fl::bench::hex64(pooled.chain_fingerprint));
        jw.field("state_fingerprint", fl::bench::hex64(pooled.state_fingerprint));
        jw.field("equal", ok);
        jw.end_object();

        tw.begin_object();
        tw.field("layout", layout.label);
        tw.field("wall_inline_s", inline_run.result.drain_wall_s);
        if (partitioned) {
            tw.field("wall_pooled_s", pooled_run.result.drain_wall_s);
            tw.field("speedup_vs_serial", speedup);
        }
        tw.end_object();
    }
    jw.end_array();
    jw.end_object();
    json << "\n";
    tw.end_array();
    tw.end_object();
    timing_json << "\n";

    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(Clock::now() - started).count();
    std::cout << "\n*wall-clock columns time net.run() only and are "
                 "host-dependent (stdout + timing JSON,\nnever the primary "
                 "JSON).  Pool: "
              << pool_size << " worker(s), host: " << hw_threads
              << " hardware thread(s).\n";
    fl::harness::print_sweep_footer(std::cout, layouts.size(), pool_size, wall);

    if (cli.json_enabled && !cli.json_path.empty()) {
        std::ofstream out(cli.json_path);
        out << json.str();
        std::cout << "wrote " << cli.json_path << "\n";
        const std::string tpath = timing_path(cli.json_path);
        std::ofstream tout(tpath);
        tout << timing_json.str();
        std::cout << "wrote " << tpath << " (host-dependent timings)\n";
    }

    if (!all_ok) {
        std::cout << "PARTITION EQUIVALENCE VIOLATION (see divergences above)\n";
        return 1;
    }
    if (min_speedup_flag.value > 0) {
        const double required =
            static_cast<double>(min_speedup_flag.value) / 100.0;
        if (roles_speedup < required) {
            std::cout << "PARTITION SPEEDUP REGRESSION: roles layout "
                      << fl::harness::fmt(roles_speedup, 2) << "x < required "
                      << fl::harness::fmt(required, 2) << "x\n";
            return 1;
        }
        std::cout << "speedup gate passed: roles layout "
                  << fl::harness::fmt(roles_speedup, 2) << "x >= "
                  << fl::harness::fmt(required, 2) << "x\n";
    }
    return 0;
}
