// Shared setup for the figure-reproduction benches.
//
// Defaults mirror the paper's §5.1: 4 organizations (one peer each), 3 OSNs,
// 3 clients, 3 priority levels, arrival ratio high:med:low = 1:2:1, block
// size 500, block timeout 1 s, default block formation policy 2:3:1,
// consolidation k-of-n (k=2), send rate 500 tps, 15 000 transactions per
// run, averaged over several runs (paper: 10; default here: 3, override via
// FAIRLEDGER_RUNS / FAIRLEDGER_TOTAL_TXS or the --runs/--txs flags).
//
// Every bench drives its grid through harness::run_sweep: points execute in
// parallel (--threads) with per-point seeds derived from --seed, and the
// tables/JSON below are identical at any thread count (see
// src/harness/sweep.h for the determinism contract).
//
// The orderer consume loop is calibrated to ~2 ms/record so system capacity
// sits at the paper's 500 tps knee (DESIGN.md §6).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fabric_network.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "harness/workload.h"

namespace fl::bench {

inline core::NetworkConfig paper_config(bool priority_enabled,
                                        const std::string& block_policy = "2:3:1") {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.peers_per_org = 1;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse(block_policy);
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::seconds(1);
    return cfg;
}

/// The scale harness's small network (2 orgs, 1 OSN, 2 clients, block size
/// 500, 250 ms timeout): the world state, not the protocol, is under test.
inline core::NetworkConfig state_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::millis(250);
    return cfg;
}

/// Total rate and transaction count split evenly over the clients, each
/// drawing from its own generator made by `generator`.
template <typename MakeGenerator>
harness::Workload even_workload(std::size_t clients, double total_tps,
                                std::uint64_t total_txs, MakeGenerator generator) {
    harness::Workload w;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = total_tps / static_cast<double>(clients);
        load.generate = generator();
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(total_txs);
    return w;
}

/// The paper's workload: total rate split evenly over the clients, each
/// submitting the 1:2:1 high:med:low chaincode mix.
inline harness::Workload paper_workload(std::size_t clients, double total_tps,
                                        std::uint64_t total_txs,
                                        std::vector<double> arrival_ratio = {1, 2, 1}) {
    return even_workload(clients, total_tps, total_txs, [&arrival_ratio] {
        return harness::priority_class_mix(arrival_ratio);
    });
}

/// One sweep point running the paper workload against `cfg`.  Points with
/// equal `seed_group` get identical derived seeds — pair each treatment
/// point with the baseline it is normalized against.
inline harness::ExperimentPoint paper_point(
    std::string label, std::vector<std::pair<std::string, double>> params,
    core::NetworkConfig cfg, double total_tps, std::uint64_t total_txs,
    unsigned runs, std::uint64_t seed_group) {
    harness::ExperimentPoint point;
    point.label = std::move(label);
    point.params = std::move(params);
    point.spec.config = std::move(cfg);
    const std::size_t clients = point.spec.config.clients;
    point.spec.make_workload = [clients, total_tps, total_txs] {
        return paper_workload(clients, total_tps, total_txs);
    };
    point.spec.runs = runs;
    point.seed_group = seed_group;
    return point;
}

/// A 64-bit fingerprint as 16 lowercase hex digits (JSON-safe, unlike a
/// double).
inline std::string hex64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Folds a 64-bit fingerprint into two exactly-representable doubles of a
/// probe's `extra` map (which aggregates doubles; 32-bit halves summed over
/// a handful of runs stay far below 2^53, so equal sums <=> equal per-run
/// fingerprints in practice).
inline void fold_hash(std::map<std::string, double>& extra,
                      const std::string& name, std::uint64_t h) {
    extra[name + "_lo"] += static_cast<double>(h & 0xffffffffULL);
    extra[name + "_hi"] += static_cast<double>(h >> 32);
}

/// Runs the sweep with wall-clock timing and a stdout footer; the timing
/// never enters the JSON (it would break byte-identity across --threads).
/// When --trace/--timeseries were given, instruments the selected point and
/// writes the capture files after the sweep drains.  --audit/--audit-window
/// attach the fairness-audit accountant to every point (reports land in the
/// per-point JSON as "audit_runs").  Every bench is a safety gate: when any
/// run violates a core::check_invariants invariant, the violation names are
/// printed and the process exits 1.
inline std::vector<harness::PointResult> run_timed_sweep(
    harness::SweepSpec& sweep, const harness::SweepCli& cli) {
    harness::TraceCapture capture;
    harness::apply_audit_cli(sweep, cli);
    harness::arm_trace_capture(sweep, cli, capture, std::cout);
    const auto started = std::chrono::steady_clock::now();
    auto results = harness::run_sweep(sweep);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    const unsigned threads =
        sweep.threads != 0 ? sweep.threads
                           : std::max(1u, std::thread::hardware_concurrency());
    harness::print_sweep_footer(std::cout, results.size(), threads, wall);
    harness::emit_trace_files(cli, capture, std::cout);
    bool safe = true;
    for (const auto& point : results) {
        if (point.result.violations.empty()) continue;
        safe = false;
        std::cout << "INVARIANT VIOLATION (" << point.label << "):";
        for (const std::string& v : point.result.violations) std::cout << " " << v;
        std::cout << "\n";
    }
    if (!safe) std::exit(1);
    return results;
}

}  // namespace fl::bench
