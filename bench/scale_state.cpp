// Scale harness — million-account Zipfian traffic against the sharded
// world state (DESIGN.md §13, EXPERIMENTS.md A7).
//
// Seeds an `--accounts`-wide account space on every peer, then drives
// Zipf(--zipf/100)-skewed asset transfers (plus a mint slice) at an
// open-loop rate past the paper's 500 tps knee, once per world-state shard
// count in the sweep grid.  Every point shares seed_group 0, so all shard
// counts see byte-identical arrival processes and commit byte-identical
// ledgers — sharding is an implementation detail, never an observable (the
// determinism contract in ledger/world_state.h).  bench/equivalence gates
// that contract (its 1-vs-16-shard row); this bench measures the store.
//
// Reported per point:
//   * commit throughput / latency (standard sweep metrics),
//   * deterministic store statistics — key count, approximate resident
//     bytes, per-shard key balance, per-shard lock-acquisition counts —
//     which enter the JSON (pure functions of the access sequence),
//   * host-dependent try-lock contention and process RSS, printed to stdout
//     ONLY (never serialized: the JSON must be byte-identical at any
//     --threads value; DESIGN.md §13 explains the split).
//
// Validation runs in ValidationMode::kParallel borrowing the sweep pool, so
// at --threads > 1 the MVCC prechecks genuinely read the sharded store from
// several host threads at once.
#include <array>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>

#include "fig_common.h"

namespace {

using namespace fl;

/// Zero-padded per-shard extra name ("shard03_keys"): fixed width keeps the
/// JSON keys sorted in shard order.
std::string shard_key(std::size_t shard, const char* suffix) {
    std::string n = std::to_string(shard);
    if (n.size() < 2) n.insert(n.begin(), '0');
    return "shard" + n + "_" + suffix;
}

/// Host-scheduling-dependent counters for one grid point, accumulated on
/// the side so they can be printed without ever entering the JSON.
struct HostCounters {
    std::atomic<std::uint64_t> read_contended{0};
    std::atomic<std::uint64_t> write_contended{0};
};

/// Current process resident set in MiB (/proc/self/status VmRSS), or -1.
long host_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            long kib = 0;
            fields >> kib;
            return kib / 1024;
        }
    }
    return -1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    harness::BenchFlag accounts_flag{
        "--accounts", "world-state account count seeded on every peer",
        1'000'000, /*positive=*/true};
    harness::BenchFlag shards_flag{
        "--shards", "world-state shard count (default: sweep 1, 4 and 16)",
        0, /*positive=*/true, /*max=*/256};
    harness::BenchFlag zipf_flag{
        "--zipf", "Zipf skew theta in hundredths (99 = 0.99; 0 = uniform)",
        99, /*positive=*/false, /*max=*/99};
    const auto cli = harness::parse_sweep_cli(
        argc, argv, 13000, "scale_state",
        {&accounts_flag, &shards_flag, &zipf_flag});

    const unsigned runs = cli.runs_or(1);
    const std::uint64_t total_txs = cli.txs_or(10'000);
    const std::uint64_t accounts = accounts_flag.value;
    const double theta = static_cast<double>(zipf_flag.value) / 100.0;
    const double total_tps = 2'000.0;  // well past the 500 tps knee
    const double mint_fraction = 0.1;

    std::vector<std::size_t> shard_grid;
    if (shards_flag.seen) {
        shard_grid.push_back(static_cast<std::size_t>(shards_flag.value));
    } else {
        shard_grid = {1, 4, 16};
    }

    harness::print_banner(
        std::cout, "Scale: sharded world state under Zipfian load",
        "one point per shard count, identical arrivals");
    std::cout << "accounts=" << accounts << " zipf_theta=" << theta
              << " txs=" << total_txs << " rate=" << total_tps << " tps\n\n";

    harness::SweepSpec sweep;
    sweep.name = "scale_state";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;

    // One host-counter slot per point, owned here so the probes (which run
    // on sweep workers) outlive nothing they capture.
    std::vector<std::shared_ptr<HostCounters>> host(shard_grid.size());

    for (std::size_t gi = 0; gi < shard_grid.size(); ++gi) {
        const std::size_t shards = shard_grid[gi];
        host[gi] = std::make_shared<HostCounters>();

        core::NetworkConfig cfg = bench::state_config();
        cfg.peer_params.validation_mode = peer::ValidationMode::kParallel;
        cfg.peer_params.state_shards = shards;

        harness::ExperimentPoint point;
        point.label = "shards=" + std::to_string(shards);
        point.params = {
            {"shards", static_cast<double>(shards)},
            {"accounts", static_cast<double>(accounts)},
            {"zipf_hundredths", static_cast<double>(zipf_flag.value)},
        };
        point.spec.config = std::move(cfg);
        point.spec.runs = runs;
        point.seed_group = 0;  // every shard count: same arrivals, same txs
        const std::size_t clients = point.spec.config.clients;
        point.spec.make_workload = [clients, total_tps, total_txs, accounts,
                                    theta, mint_fraction] {
            return bench::even_workload(clients, total_tps, total_txs, [=] {
                return harness::zipfian_transfers(accounts, theta, mint_fraction);
            });
        };
        point.spec.instrument = [accounts](core::FabricNetwork& net, unsigned) {
            // Pre-drain: the full account space is committed (version {0,0})
            // on every peer before the first proposal executes.
            harness::seed_scale_accounts(net, accounts);
        };
        point.spec.run_probe = [counters = host[gi]](
                                   core::FabricNetwork& net,
                                   std::map<std::string, double>& extra) {
            const peer::Peer& p = *net.peers().front();
            const ledger::WorldState& state = p.state();
            bench::fold_hash(extra, "state_fp", state.fingerprint());
            bench::fold_hash(extra, "chain_fp", p.chain().chain_fingerprint());
            extra["state_keys"] += static_cast<double>(state.key_count());
            extra["state_bytes_approx"] +=
                static_cast<double>(state.approx_memory_bytes());
            extra["shard_max_keys"] +=
                static_cast<double>(state.max_shard_keys());
            const ledger::WorldState::ShardStats totals = state.total_stats();
            extra["read_locks"] += static_cast<double>(totals.read_locks);
            extra["write_locks"] += static_cast<double>(totals.write_locks);
            extra["valid"] += static_cast<double>(p.txs_valid());
            extra["invalid"] += static_cast<double>(p.txs_invalid());
            extra["wave_blocks"] +=
                static_cast<double>(p.blocks_wave_validated());
            for (std::size_t s = 0; s < state.shard_count(); ++s) {
                const auto stats = state.shard_stats(s);
                extra[shard_key(s, "keys")] +=
                    static_cast<double>(stats.keys);
                extra[shard_key(s, "read_locks")] +=
                    static_cast<double>(stats.read_locks);
            }
            // Host-dependent: side channel only, never `extra` (the JSON
            // must be byte-identical across --threads).
            counters->read_contended.fetch_add(totals.read_contended,
                                               std::memory_order_relaxed);
            counters->write_contended.fetch_add(totals.write_contended,
                                                std::memory_order_relaxed);
        };
        sweep.points.push_back(std::move(point));
    }

    const auto results = run_timed_sweep(sweep, cli);

    harness::Table table({"point", "committed", "tps", "keys", "approx MiB",
                          "max shard keys", "read locks", "contended*"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i].result;
        const double runs_d = static_cast<double>(runs);
        table.add_row(
            {results[i].label, std::to_string(r.total_committed),
             harness::fmt(r.throughput_tps.mean(), 1),
             harness::fmt(r.extra_total("state_keys") / runs_d, 0),
             harness::fmt(r.extra_total("state_bytes_approx") / runs_d /
                              (1024.0 * 1024.0),
                          1),
             harness::fmt(r.extra_total("shard_max_keys") / runs_d, 0),
             harness::fmt(r.extra_total("read_locks") / runs_d, 0),
             std::to_string(host[i]->read_contended.load() +
                            host[i]->write_contended.load())});
    }
    table.print(std::cout);
    std::cout << "\n*contended = try-lock misses, host-scheduling dependent "
                 "(stdout only, never JSON).\nAll points share seed_group 0: "
                 "equal arrivals at every shard count.  Process RSS now: "
              << host_rss_mib() << " MiB (host-dependent).\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
