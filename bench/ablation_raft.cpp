// Ablation A9 — Raft ordering backend: leader-failover safety gate.
//
// Replays three chaos mixes against the Raft backend over the seed grid
// {1, 7, 42, 1234}:
//   leader_crash    two leader kills mid-block-stream, cluster restarted
//   partition       minority partitions around the leader, then healed
//   rolling_restart every Raft node crashed and revived in sequence, with
//                   an OSN crash/replay overlapping the churn
// Every run goes through harness::run_once, so core::check_invariants
// asserts the safety properties — prefix-consistent OSN block sequences
// with zero replay hash mismatches, verified hash chains, no double commit,
// exactly one terminal state per submission, and Raft log matching with no
// submission stuck in flight (TTC markers applied exactly once under leader
// change).  On top, each chaos run must leave every OSN alive and must have
// exercised a failover.  The gate also checks the backend-equivalence
// contract (fault-free Raft byte-identical to mq: metrics JSON, ledger
// fingerprints) and rerun determinism (every chaos cell run twice must
// match artifact for artifact).  Exits non-zero on any violation, so this
// is the CI chaos gate for the ordering backend; the JSON is byte-identical
// at any --threads value.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

namespace {

using namespace fl;

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 1234};
constexpr double kTpsPerClient = 50.0;

core::NetworkConfig base_config(orderer::OrderingBackendKind backend) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.endorsement_k = 2;
    cfg.ordering_backend = backend;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.max_endorse_retries = 3;
    retry.commit_timeout = Duration::seconds(3);
    retry.max_resubmissions = 3;
    retry.backoff_base = Duration::millis(50);
    return cfg;
}

std::vector<fault::ScheduledFault> mix_schedule(const std::string& mix) {
    using fault::FaultKind;
    std::vector<fault::ScheduledFault> s;
    if (mix == "leader_crash") {
        s = {{Duration::millis(900), FaultKind::kRaftLeaderKill, 0},
             {Duration::millis(1700), FaultKind::kRaftNodeRestart, raft::kAllNodes},
             {Duration::millis(2600), FaultKind::kRaftLeaderKill, 0},
             {Duration::millis(3400), FaultKind::kRaftNodeRestart, raft::kAllNodes}};
    } else if (mix == "partition") {
        s = {{Duration::millis(600), FaultKind::kRaftPartition, 0},
             {Duration::millis(1400), FaultKind::kRaftHeal, 0},
             {Duration::millis(2200), FaultKind::kRaftPartition, 1},
             {Duration::millis(3000), FaultKind::kRaftHeal, 0}};
    } else {  // rolling_restart
        s = {{Duration::millis(600), FaultKind::kRaftNodeCrash, 0},
             {Duration::millis(1200), FaultKind::kRaftNodeRestart, 0},
             {Duration::millis(1400), FaultKind::kOsnCrash, 1},
             {Duration::millis(1600), FaultKind::kRaftNodeCrash, 1},
             {Duration::millis(2200), FaultKind::kRaftNodeRestart, 1},
             {Duration::millis(2600), FaultKind::kRaftNodeCrash, 2},
             {Duration::millis(3000), FaultKind::kOsnRestart, 1},
             {Duration::millis(3200), FaultKind::kRaftNodeRestart, 2}};
    }
    return s;
}

harness::ExperimentSpec raft_spec(orderer::OrderingBackendKind backend,
                                  std::uint64_t total_txs) {
    harness::ExperimentSpec spec;
    spec.config = base_config(backend);
    spec.make_workload = [clients = spec.config.clients, total_txs] {
        harness::Workload workload;
        for (std::size_t c = 0; c < clients; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = kTpsPerClient;
            load.generate = harness::priority_class_mix({1, 2, 1});
            workload.loads.push_back(std::move(load));
        }
        workload.distribute_total(total_txs);
        return workload;
    };
    spec.run_probe = [](core::FabricNetwork& net, std::map<std::string, double>& extra) {
        for (const auto& osn : net.osns()) {
            if (!osn->alive()) extra["osns_dead"] += 1.0;
        }
        if (raft::RaftOrderingBackend* rb = net.raft_backend()) {
            extra["leader_changes"] = static_cast<double>(rb->leader_changes());
            extra["elections"] = static_cast<double>(rb->elections_started());
            extra["term"] = static_cast<double>(rb->current_term());
            extra["resubmissions"] = static_cast<double>(rb->leader_resubmissions());
            extra["dup_commits_skipped"] =
                static_cast<double>(rb->duplicate_commits_skipped());
        }
    };
    return spec;
}

/// A probe counter as an integer (0 when the probe never set it).
std::uint64_t counter(const harness::RunResult& r, const char* key) {
    const auto it = r.extra.find(key);
    return it == r.extra.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

std::uint64_t committed(const harness::RunResult& r) {
    return r.metrics.committed_valid() + r.metrics.committed_invalid();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;

    const harness::SweepCli cli =
        harness::parse_sweep_cli(argc, argv, /*default_seed=*/0, "ablation_raft");
    harness::reject_run_and_capture_flags(cli, "ablation_raft");
    const std::uint64_t total_txs = cli.txs_or(600);

    harness::print_banner(
        std::cout, "Ablation A9: Raft leader-failover safety gate",
        "3 chaos mixes x seeds {1,7,42,1234}, each run twice; plus mq "
        "equivalence");

    const std::vector<std::string> mixes = {"leader_crash", "partition",
                                            "rolling_restart"};

    // The grid: every (mix, seed) chaos cell twice (rerun determinism), plus
    // per seed one fault-free run on each backend (equivalence).  Results go
    // into pre-sized slots indexed by cell, so output bytes are independent
    // of --threads.
    struct ChaosCell {
        std::string mix;
        std::uint64_t seed = 0;
        harness::RunResult first, second;
    };
    std::vector<ChaosCell> cells;
    for (const std::string& mix : mixes) {
        for (std::uint64_t seed : kSeeds) cells.push_back({mix, seed, {}, {}});
    }
    struct EquivCell {
        std::uint64_t seed = 0;
        harness::RunResult mq, rf;
    };
    std::vector<EquivCell> equiv;
    for (std::uint64_t seed : kSeeds) equiv.push_back({seed, {}, {}});

    const std::size_t jobs = cells.size() + equiv.size();
    ThreadPool pool(cli.threads);
    parallel_for_each(pool, jobs, [&](std::size_t j) {
        if (j < cells.size()) {
            ChaosCell& cell = cells[j];
            harness::ExperimentSpec spec =
                raft_spec(orderer::OrderingBackendKind::kRaft, total_txs);
            spec.config.faults.schedule = mix_schedule(cell.mix);
            cell.first = harness::run_once(spec, cell.seed);
            cell.second = harness::run_once(spec, cell.seed);
        } else {
            EquivCell& cell = equiv[j - cells.size()];
            cell.mq = harness::run_once(
                raft_spec(orderer::OrderingBackendKind::kMq, total_txs), cell.seed);
            cell.rf = harness::run_once(
                raft_spec(orderer::OrderingBackendKind::kRaft, total_txs), cell.seed);
        }
    });

    // The table and the deterministic JSON (the CI 1-vs-4-thread byte
    // comparison) carry the same per-cell values.
    const char* const kCounters[] = {"elections", "leader_changes", "term",
                                     "resubmissions", "dup_commits_skipped"};
    bool all_ok = true;
    harness::Table table({"mix", "seed", "committed", "failed", "elections",
                          "leader changes", "term", "resubmits", "dup skips",
                          "verdict"});
    std::ostringstream json;
    json << "{\"bench\":\"ablation_raft\",\"total_txs\":" << total_txs
         << ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const harness::RunResult& r = cells[i].first;
        // Safety from the shared checker (a rerun reporting different
        // violations is a rerun divergence), then this scenario's
        // expectations: every crashed OSN restarted, and the mix really
        // forced a failover.
        std::vector<std::string> violations = r.artifacts.violations;
        if (counter(r, "osns_dead") != 0) violations.push_back("osn_left_dead");
        if (counter(r, "leader_changes") == 0) violations.push_back("no_failover_exercised");
        if (!harness::diff(r.artifacts, cells[i].second.artifacts).empty()) {
            violations.push_back("rerun_divergence");
        }
        all_ok = all_ok && violations.empty();
        std::string verdict = violations.empty() ? "OK" : "VIOLATED:";
        for (const std::string& v : violations) verdict += " " + v;

        std::vector<std::string> row = {cells[i].mix, std::to_string(cells[i].seed),
                                        std::to_string(committed(r)),
                                        std::to_string(r.metrics.client_failures())};
        json << (i ? "," : "") << "{\"mix\":\"" << cells[i].mix
             << "\",\"seed\":" << cells[i].seed << ",\"committed\":" << committed(r)
             << ",\"failed\":" << r.metrics.client_failures();
        for (const char* key : kCounters) {
            row.push_back(std::to_string(counter(r, key)));
            json << ",\"" << key << "\":" << counter(r, key);
        }
        row.push_back(verdict);
        table.add_row(row);
        json << ",\"chain_fingerprint\":" << r.artifacts.chain_fingerprint
             << ",\"violations\":" << violations.size() << "}";
    }
    table.print(std::cout);

    // Fault-free Raft must match mq artifact for artifact, except the event
    // count: the Raft cluster runs its own consensus events.
    harness::Table eq_table({"seed", "mq committed", "raft committed", "identical"});
    json << "],\"equivalence\":[";
    for (std::size_t i = 0; i < equiv.size(); ++i) {
        const EquivCell& cell = equiv[i];
        std::vector<std::string> d = harness::diff(cell.mq.artifacts, cell.rf.artifacts);
        std::erase(d, std::string("events_executed"));
        const bool identical = d.empty() && cell.mq.artifacts.violations.empty() &&
                               counter(cell.rf, "elections") == 0;
        all_ok = all_ok && identical;
        eq_table.add_row({std::to_string(cell.seed), std::to_string(committed(cell.mq)),
                          std::to_string(committed(cell.rf)), identical ? "yes" : "NO"});
        json << (i ? "," : "") << "{\"seed\":" << cell.seed
             << ",\"identical\":" << (identical ? "true" : "false") << "}";
    }
    json << "]}\n";
    std::cout << "\nBackend equivalence (fault-free, byte-level):\n";
    eq_table.print(std::cout);
    std::cout << "\n" << json.str();
    if (cli.json_enabled) harness::write_output_file(cli.json_path, json.str());

    if (!all_ok) {
        std::cout << "\nRAFT SAFETY VIOLATION (see tables above)\n";
        return 1;
    }
    std::cout << "\nAll safety gates passed.\n";
    return 0;
}
