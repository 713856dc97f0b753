// Engine equivalence gate: every engine A/B pair is one row over
// harness::diff (DESIGN.md §12, §13, §15, §16; EXPERIMENTS.md A6, A7, A10).
//
// The paper's figures come from one serial Fabric pipeline.  Every engine
// added since — the wave validator, the sharded world state, channel
// sharding and Raft ordering — is trusted only because
// it reproduces that pipeline byte for byte.  Each row runs a base spec as
// variant A (the reference) and as one or more variants B, every side
// through harness::run_once or harness::run_multi_channel with a trace
// captured, and compares them with harness::diff plus both sides' invariant
// violations; channel rows compare the cross-channel meter too.  A guard
// proves B really took its path, since a gate over two identical runs tests
// nothing.  Any divergence or failed guard prints EQUIVALENCE VIOLATION and
// exits 1.
//
// Host wall-clock of both sides (the drain alone) goes to stdout and
// BENCH_*_timing.json, never to the deterministic JSON, whose bytes depend
// on --seed and --txs alone.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fig_common.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace {

using namespace fl;

constexpr double kPaperTps = 400.0;
constexpr std::uint32_t kHotAccounts = 6;
constexpr std::uint64_t kZipfAccounts = 20'000;
constexpr double kZipfTps = 2'000.0;  // well past the 500 tps knee

/// One variant of a row: a spec run by harness::run_once, or, with a
/// channel layout, by harness::run_multi_channel on `pool` (null = the
/// serial channel loop).
struct Side {
    std::string label;
    harness::ExperimentSpec spec;
    std::optional<core::ChannelLayout> layout = std::nullopt;
    ThreadPool* pool = nullptr;
};

/// One side's outputs: every channel's artifacts (one for run_once), the
/// cross-channel meter (channel engine only), the counters the guards read,
/// and the host wall-clock of the drain.
struct Outcome {
    std::vector<harness::RunArtifacts> channels;
    std::optional<core::CrossChannelMeter> meter;
    std::uint64_t committed = 0;
    std::uint64_t wave_blocks = 0;  ///< peer 0 blocks that took the wave path
    std::uint64_t windows = 0;      ///< channel sync windows
    double wall_s = 0.0;
};

struct Row {
    std::string name;
    Side a;
    std::vector<Side> b;
    /// Empty when B really took its path, otherwise what is missing.
    std::function<std::string(const Outcome& a, const Outcome& b)> guard = nullptr;
    /// harness::diff fields this row's contract exempts.
    std::vector<std::string> exempt = {};
    /// Drop the wave validator's conflict_graph/validation_wave trace
    /// events before the diff: the one trace difference ValidationMode
    /// documents (peer/peer.h).
    bool drop_wave_events = false;
};

/// Runs `side` at `seed` with a trace captured.
Outcome run(const Side& side, std::uint64_t seed) {
    harness::ExperimentSpec spec = side.spec;
    spec.capture_trace = true;
    spec.run_probe = [](core::FabricNetwork& net, std::map<std::string, double>& extra) {
        extra["wave_blocks"] =
            static_cast<double>(net.peers().front()->blocks_wave_validated());
    };
    Outcome out;
    std::vector<harness::RunResult> results;
    if (side.layout) {
        harness::MultiChannelResult r =
            harness::run_multi_channel(spec, *side.layout, seed, side.pool);
        results = std::move(r.channels);
        out.meter = r.meter;
        out.windows = r.windows;
    } else {
        results.push_back(harness::run_once(spec, seed));
    }
    for (harness::RunResult& r : results) {
        out.committed += r.metrics.committed_valid();
        out.wave_blocks += static_cast<std::uint64_t>(r.extra["wave_blocks"]);
        out.wall_s = r.drain_wall_s;
        out.channels.push_back(std::move(r.artifacts));
    }
    return out;
}

std::string without_wave_events(const std::string& trace) {
    std::string out;
    std::istringstream lines(trace);
    for (std::string line; std::getline(lines, line);) {
        if (line.find(R"("type":"conflict_graph")") == std::string::npos &&
            line.find(R"("type":"validation_wave")") == std::string::npos) {
            out += line + '\n';
        }
    }
    return out;
}

/// Everything that makes B differ from A, tagged; empty = equivalent.
std::vector<std::string> compare(const Row& row, Outcome a, Outcome b) {
    if (a.channels.size() != b.channels.size()) return {"channel count"};
    std::vector<std::string> diffs;
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        const std::string tag = a.channels.size() > 1 ? "ch" + std::to_string(i) + " " : "";
        for (harness::RunArtifacts* side : {&a.channels[i], &b.channels[i]}) {
            if (row.drop_wave_events) {
                side->trace_jsonl = without_wave_events(side->trace_jsonl);
            }
            for (const std::string& v : side->violations) {
                diffs.push_back(tag + (side == &a.channels[i] ? "A" : "B") +
                                " invariant " + v);
            }
        }
        for (const std::string& field : harness::diff(a.channels[i], b.channels[i])) {
            if (std::find(row.exempt.begin(), row.exempt.end(), field) ==
                row.exempt.end()) {
                diffs.push_back(tag + field);
            }
        }
    }
    if (a.meter && b.meter && !(*a.meter == *b.meter)) {
        diffs.push_back("cross-channel meter");
    }
    if (row.guard) {
        if (std::string g = row.guard(a, b); !g.empty()) diffs.push_back("guard: " + g);
    }
    return diffs;
}

/// The paper network and 1:2:1 mix at 400 tps.
harness::ExperimentSpec paper_spec(std::uint64_t txs) {
    harness::ExperimentSpec spec;
    spec.config = bench::paper_config(/*priority_enabled=*/true);
    spec.make_workload = [clients = spec.config.clients, txs] {
        return bench::paper_workload(clients, kPaperTps, txs);
    };
    return spec;
}

/// Transfers among kHotAccounts hot accounts: heavy intra-block conflicts
/// with priority ties, resolved FIFO.
harness::ExperimentSpec contended_spec(std::uint64_t txs) {
    harness::ExperimentSpec spec = paper_spec(txs);
    spec.config.channel.block_size = 100;
    spec.make_workload = [clients = spec.config.clients, txs] {
        return bench::even_workload(clients, kPaperTps, txs, [] {
            return harness::contended_transfers(kHotAccounts);
        });
    };
    // Pre-drain, so the seeded balances are committed before any proposal
    // executes.
    spec.instrument = [](core::FabricNetwork& net, unsigned) {
        harness::seed_hot_accounts(net, kHotAccounts);
    };
    return spec;
}

/// Zipf(0.99) transfers over kZipfAccounts pre-seeded accounts on `cfg`.
harness::ExperimentSpec zipf_spec(core::NetworkConfig cfg, std::uint64_t txs) {
    harness::ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.make_workload = [clients = spec.config.clients, txs] {
        return bench::even_workload(clients, kZipfTps, txs, [] {
            return harness::zipfian_transfers(kZipfAccounts, 0.99,
                                              /*mint_fraction=*/0.1);
        });
    };
    spec.instrument = [](core::FabricNetwork& net, unsigned) {
        harness::seed_scale_accounts(net, kZipfAccounts);
    };
    return spec;
}

/// `spec` with a tweak applied.
template <typename Tweak>
harness::ExperimentSpec with(harness::ExperimentSpec spec, Tweak tweak) {
    tweak(spec);
    return spec;
}

std::vector<Row> make_rows(std::uint64_t txs, ThreadPool& pool) {
    const auto wave = [&pool](harness::ExperimentSpec& s) {
        s.config.peer_params.validation_mode = peer::ValidationMode::kParallel;
        s.config.peer_params.validation_pool = &pool;
    };
    const auto wave_guard = [](const Outcome& a, const Outcome& b) -> std::string {
        if (a.wave_blocks != 0) return "serial side took the wave path";
        return b.wave_blocks > 0 ? "" : "parallel side never took the wave path";
    };
    std::vector<Row> rows;
    for (const auto& [name, base] : {std::pair{"validator/mix", paper_spec(txs)},
                                     std::pair{"validator/contended", contended_spec(txs)}}) {
        rows.push_back({name, {"serial", base}, {{"parallel", with(base, wave)}},
                        wave_guard, {}, /*drop_wave_events=*/true});
    }

    // Both sides on the wave validator, so MVCC prechecks read the sharded
    // store from several host threads at once.
    const harness::ExperimentSpec state = with(zipf_spec(bench::state_config(), txs), wave);
    const auto shards = [&state](std::size_t n) {
        return with(state, [n](auto& s) { s.config.peer_params.state_shards = n; });
    };
    rows.push_back({"state-shards", {"1", shards(1)}, {{"16", shards(16)}},
                    [](const Outcome& a, const Outcome& b) -> std::string {
                        return a.wave_blocks > 0 && b.wave_blocks > 0
                                   ? ""
                                   : "a side never took the wave path";
                    }});

    // The channel-sharded engine against the serial channel loop; one
    // channel also against the single-network harness.
    const harness::ExperimentSpec paper = paper_spec(txs);
    for (const std::size_t n : {1u, 4u, 8u}) {
        const core::ChannelLayout layout = core::ChannelLayout::uniform(n);
        Row row{"channels/" + std::to_string(n), {"serial", paper, layout},
                {{"pooled", paper, layout, &pool}}};
        if (n == 1) row.b.push_back({"run_once", paper});
        rows.push_back(std::move(row));
    }

    // Raft runs its own consensus events, so the event count is exempt.
    rows.push_back({"ordering", {"mq", paper_spec(txs)},
                    {{"raft", with(paper_spec(txs), [](auto& s) {
                          s.config.ordering_backend = orderer::OrderingBackendKind::kRaft;
                      })}},
                    nullptr, {"events_executed"}});
    return rows;
}

void write_side(JsonWriter& jw, const char* key, const std::string& label,
                const Outcome& o) {
    std::uint64_t blocks = 0;
    std::uint64_t events = 0;
    for (const harness::RunArtifacts& a : o.channels) {
        blocks += a.blocks;
        events += a.events_executed;
    }
    jw.key(key);
    jw.begin_object();
    jw.field("label", label);
    jw.field("committed", o.committed);
    jw.field("blocks", blocks);
    jw.field("events", events);
    jw.field("wave_blocks", o.wave_blocks);
    jw.field("windows", o.windows);
    jw.key("chain_fingerprints");
    jw.begin_array();
    for (const harness::RunArtifacts& a : o.channels) {
        jw.value(bench::hex64(a.chain_fingerprint));
    }
    jw.end_array();
    jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
    const harness::SweepCli cli =
        harness::parse_sweep_cli(argc, argv, /*default_seed=*/42, "equivalence");
    harness::reject_run_and_capture_flags(cli, "equivalence");
    const std::uint64_t txs = cli.txs_or(1'500);

    harness::print_banner(std::cout, "equivalence: every engine against its reference",
                          "one row per engine pair; B must match A byte for byte");
    std::cout << "seed=" << cli.base_seed << " txs=" << txs
              << " (per channel on channel rows)\n\n";

    ThreadPool pool(cli.threads);
    const unsigned pool_size = static_cast<unsigned>(pool.size());
    const unsigned hw_threads = std::thread::hardware_concurrency();

    harness::Table table({"row", "A", "B", "committed", "A s*", "B s*", "speedup*",
                          "equal"});
    std::ostringstream json;
    JsonWriter jw(json);
    jw.begin_object();
    jw.field("bench", "equivalence");
    jw.field("base_seed", cli.base_seed);
    jw.field("txs", txs);
    jw.key("pairs");
    jw.begin_array();
    std::ostringstream timing_json;
    JsonWriter tw(timing_json);
    tw.begin_object();
    tw.field("bench", "equivalence_timing");
    tw.field("hardware_threads", static_cast<std::uint64_t>(hw_threads));
    tw.field("pool_workers", static_cast<std::uint64_t>(pool_size));
    tw.key("pairs");
    tw.begin_array();

    bool all_ok = true;
    std::size_t pairs = 0;
    const auto started = std::chrono::steady_clock::now();
    for (const Row& row : make_rows(txs, pool)) {
        const Outcome a = run(row.a, cli.base_seed);
        for (const Side& side : row.b) {
            const Outcome b = run(side, cli.base_seed);
            ++pairs;
            const std::vector<std::string> diffs = compare(row, a, b);
            for (const std::string& d : diffs) {
                std::cout << "DIVERGENCE (" << row.name << " " << row.a.label << " vs "
                          << side.label << "): " << d << "\n";
            }
            all_ok = all_ok && diffs.empty();
            const double speedup = b.wall_s > 0.0 ? a.wall_s / b.wall_s : 0.0;
            table.add_row({row.name, row.a.label, side.label, std::to_string(b.committed),
                           harness::fmt(a.wall_s, 2), harness::fmt(b.wall_s, 2),
                           harness::fmt(speedup, 2), diffs.empty() ? "OK" : "MISMATCH"});
            jw.begin_object();
            jw.field("row", row.name);
            write_side(jw, "a", row.a.label, a);
            write_side(jw, "b", side.label, b);
            jw.end_object();
            tw.begin_object();
            tw.field("row", row.name);
            tw.field("a", row.a.label);
            tw.field("b", side.label);
            tw.field("a_wall_s", a.wall_s);
            tw.field("b_wall_s", b.wall_s);
            tw.field("speedup", speedup);
            tw.end_object();
        }
    }
    jw.end_array();
    jw.end_object();
    json << "\n";
    tw.end_array();
    tw.end_object();
    timing_json << "\n";

    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    std::cout << "\n*wall-clock columns time the drain only and are host-dependent "
                 "(stdout + timing JSON,\nnever the primary JSON).  Pool: "
              << pool_size << " worker(s), host: " << hw_threads
              << " hardware thread(s).\n";
    harness::print_sweep_footer(std::cout, pairs, pool_size, wall);

    if (cli.json_enabled) {
        harness::write_output_file(cli.json_path, json.str());
        std::string timing_path = cli.json_path;
        if (timing_path.ends_with(".json")) timing_path.resize(timing_path.size() - 5);
        timing_path += "_timing.json";
        harness::write_output_file(timing_path, timing_json.str());
        std::cout << "wrote " << cli.json_path << " and " << timing_path
                  << " (host-dependent timings)\n";
    }

    if (!all_ok) {
        std::cout << "EQUIVALENCE VIOLATION (see divergences above)\n";
        return 1;
    }
    return 0;
}
