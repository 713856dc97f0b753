// Ablation A6 — serial vs parallel block validation (DESIGN.md §12).
//
// Runs the paper pipeline over a seed grid, each seed twice: once with the
// serial reference validator and once with the conflict-graph wave validator
// (ValidationMode::kParallel), paired via seed_group so both see identical
// arrival processes.  Per run it fingerprints, at peer 0:
//   * the committed world state (key/value/version map),
//   * the block hash chain,
//   * the full valid/invalid verdict sequence in block order,
// plus the valid/invalid totals and the priority/FIFO conflict-resolution
// counters.  The process exits non-zero if any serial/parallel pair differs
// in any of these, or if the parallel points never actually exercised the
// wave path — so this bench doubles as the validation-equivalence gate in
// CI.  The grid covers the paper's 1:2:1 priority mix (varied priorities,
// moderate conflicts) and a hot-account transfer workload (heavy intra-block
// conflicts with priority ties, resolved FIFO).
//
// As everywhere: simulated costs don't depend on ValidationMode or pool
// size, so the JSON is byte-identical at any --threads value per mode.
#include "fig_common.h"

namespace {

using namespace fl;

constexpr std::uint32_t kHotAccounts = 6;

void equivalence_probe(core::FabricNetwork& net,
                       std::map<std::string, double>& extra) {
    const peer::Peer& p = *net.peers().front();
    bench::fold_hash(extra, "state_fp", p.state().fingerprint());
    bench::fold_hash(extra, "chain_fp", p.chain().chain_fingerprint());
    // FNV-1a over every verdict in block order — the bitmask the paper's
    // validator must reproduce exactly.
    std::uint64_t verdicts = 1469598103934665603ULL;
    const ledger::BlockStore& chain = p.chain();
    for (std::size_t b = 0; b < chain.height(); ++b) {
        for (const TxValidationCode code : chain.at(b).validation_codes) {
            verdicts = (verdicts ^ static_cast<std::uint64_t>(code)) *
                       1099511628211ULL;
        }
    }
    bench::fold_hash(extra, "verdict_fp", verdicts);
    extra["valid"] += static_cast<double>(p.txs_valid());
    extra["invalid"] += static_cast<double>(p.txs_invalid());
    extra["priority_wins"] += static_cast<double>(p.mvcc_priority_wins());
    extra["fifo_wins"] += static_cast<double>(p.mvcc_fifo_wins());
    extra["wave_blocks"] += static_cast<double>(p.blocks_wave_validated());
    extra["waves"] += static_cast<double>(p.validation_waves());
    extra["conflict_edges"] += static_cast<double>(p.conflict_edges());
}

/// Keys that must match exactly between a serial point and its paired
/// parallel point.
const char* const kEquivalenceKeys[] = {
    "state_fp_lo",  "state_fp_hi",  "chain_fp_lo",    "chain_fp_hi",
    "verdict_fp_lo", "verdict_fp_hi", "valid",          "invalid",
    "priority_wins", "fifo_wins",
};

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli =
        harness::parse_sweep_cli(argc, argv, 7000, "ablation_validation");
    const unsigned runs = cli.runs_or(2);
    const std::uint64_t total_txs = cli.txs_or(4'000);
    const double total_tps = 400.0;

    harness::print_banner(
        std::cout, "Ablation A6: serial vs parallel prioritized validation",
        "paired seeds; identical arrivals per pair; wave path must match the "
        "serial oracle bit for bit");

    struct Scenario {
        const char* label;
        bool contended;
        std::uint64_t seed_group;
    };
    const Scenario scenarios[] = {
        // Point 0 first so a default --trace instruments a paper-workload
        // point (arm_trace_capture chains with the contended points'
        // seeding hook, but the mix points are the figure of record).
        {"mix", false, 0},
        {"mix", false, 1},
        {"contended", true, 2},
        {"contended", true, 3},
    };

    harness::SweepSpec sweep;
    sweep.name = "ablation_validation";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    for (const Scenario& sc : scenarios) {
        for (const bool parallel : {false, true}) {
            auto cfg = paper_config(true);
            if (sc.contended) cfg.channel.block_size = 100;
            cfg.peer_params.validation_mode = parallel
                                                  ? peer::ValidationMode::kParallel
                                                  : peer::ValidationMode::kSerial;
            harness::ExperimentPoint point = paper_point(
                std::string(sc.label) + "/s" + std::to_string(sc.seed_group) +
                    (parallel ? "/parallel" : "/serial"),
                {{"seed_group", static_cast<double>(sc.seed_group)},
                 {"parallel", parallel ? 1.0 : 0.0}},
                std::move(cfg), total_tps, total_txs, runs, sc.seed_group);
            if (sc.contended) {
                const std::size_t clients = point.spec.config.clients;
                point.spec.make_workload = [clients, total_tps, total_txs] {
                    harness::Workload w;
                    for (std::size_t c = 0; c < clients; ++c) {
                        harness::LoadSpec load;
                        load.client_index = c;
                        load.tps = total_tps / static_cast<double>(clients);
                        load.generate = harness::contended_transfers(kHotAccounts);
                        w.loads.push_back(std::move(load));
                    }
                    w.distribute_total(total_txs);
                    return w;
                };
                point.spec.instrument = [](core::FabricNetwork& net, unsigned) {
                    // Pre-drain, so the seeded balances are committed before
                    // any proposal executes.
                    harness::seed_hot_accounts(net, kHotAccounts);
                };
            }
            point.spec.run_probe = equivalence_probe;
            sweep.points.push_back(std::move(point));
        }
    }

    const auto results = run_timed_sweep(sweep, cli);

    harness::Table table({"point", "committed", "valid", "invalid", "prio wins",
                          "fifo wins", "waves", "equal"});
    bool all_ok = true;
    for (std::size_t i = 0; i < results.size(); i += 2) {
        const auto& serial = results[i].result;
        const auto& parallel = results[i + 1].result;
        bool equal = true;
        for (const char* key : kEquivalenceKeys) {
            equal = equal && serial.extra_total(key) == parallel.extra_total(key);
        }
        // The parallel member must actually have taken the wave path (and
        // the serial member must not) — otherwise this gate tests nothing.
        equal = equal && serial.extra_total("wave_blocks") == 0.0 &&
                parallel.extra_total("wave_blocks") > 0.0;
        all_ok = all_ok && equal;
        for (const std::size_t j : {i, i + 1}) {
            const auto& r = results[j].result;
            table.add_row({results[j].label,
                           std::to_string(r.total_committed + r.total_invalid),
                           harness::fmt(r.extra_total("valid"), 0),
                           harness::fmt(r.extra_total("invalid"), 0),
                           harness::fmt(r.extra_total("priority_wins"), 0),
                           harness::fmt(r.extra_total("fifo_wins"), 0),
                           harness::fmt(r.extra_total("waves"), 0),
                           equal ? "OK" : "MISMATCH"});
        }
    }
    table.print(std::cout);
    std::cout << "\nEach pair shares its arrival process (seed_group); 'equal' "
                 "covers world-state,\nhash-chain and verdict-sequence "
                 "fingerprints plus valid/invalid and conflict-\nresolution "
                 "counters, and requires the parallel member to have used the "
                 "wave path.\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    if (!all_ok) {
        std::cout << "VALIDATION EQUIVALENCE VIOLATION (see table above)\n";
        return 1;
    }
    return 0;
}
