// Chaos integration for the Raft ordering backend: the full pipeline under
// leader kills, minority partitions, lossy consensus windows and OSN
// crash/restart replay — all from the deterministic fault schedule.  Every
// run goes through harness::run_once, so core::check_invariants judges it
// (with the Raft safety properties: committed prefixes consistent across
// nodes, nothing stuck in flight); on top come identical reruns and the
// OSN-restart × term-change replay scenario.  Scenario assertions on the
// drained network run inside `run_probe`.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "harness/experiment.h"

namespace fl {
namespace {

using Names = std::vector<std::string>;
using Probe = std::function<void(core::FabricNetwork&, std::map<std::string, double>&)>;

core::NetworkConfig raft_chaos_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.endorsement_k = 2;
    cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
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

    fault::FaultProfile profile;
    profile.horizon = Duration::seconds(6);
    profile.expected_osn_crashes = 1.0;
    profile.osn_downtime_mean = Duration::seconds(1);
    profile.expected_raft_leader_kills = 1.5;
    profile.raft_leader_downtime_mean = Duration::millis(800);
    profile.expected_raft_partitions = 1.0;
    profile.raft_partition_mean = Duration::millis(600);
    profile.expected_raft_drop_windows = 1.0;
    profile.raft_drop_window_mean = Duration::millis(500);
    profile.raft_drop_prob = 0.1;
    cfg.faults.profile = profile;
    return cfg;
}

/// harness::run_once of `total` txs at 50 tps per client; `probe` sees the
/// drained network after the Raft checks below.
harness::RunResult run(core::NetworkConfig cfg, std::uint64_t seed,
                       std::uint64_t total, Probe probe = nullptr) {
    harness::ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.make_workload = [total] {
        harness::Workload workload;
        for (std::size_t c = 0; c < 3; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = 50.0;
            load.generate = harness::priority_class_mix({1, 2, 1});
            workload.loads.push_back(std::move(load));
        }
        workload.distribute_total(total);
        return workload;
    };
    spec.run_probe = [probe = std::move(probe)](core::FabricNetwork& net,
                                                std::map<std::string, double>& extra) {
        // Every schedule here restarts what it crashes.
        ASSERT_NE(net.raft_backend(), nullptr);
        for (const auto& osn : net.osns()) EXPECT_TRUE(osn->alive());
        extra["leader_changes"] = static_cast<double>(net.raft_backend()->leader_changes());
        if (probe) probe(net, extra);
    };
    return harness::run_once(spec, seed);
}

TEST(RaftChaosTest, InvariantsHoldAcrossSeeds) {
    double total_leader_changes = 0;
    for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u, 606u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const harness::RunResult r =
            run(raft_chaos_config(), seed, 300, [](core::FabricNetwork& net, auto&) {
                EXPECT_FALSE(net.fault_schedule().empty());
                EXPECT_GT(net.faults_applied(), 0u);
            });
        EXPECT_EQ(r.artifacts.violations, Names{});
        total_leader_changes += r.extra.at("leader_changes");
    }
    // The seed set must actually exercise failover (pinned by determinism):
    // the cluster re-elected at least once.
    EXPECT_GT(total_leader_changes, 0.0);
}

TEST(RaftChaosTest, ChaosRunIsAPureFunctionOfConfigAndSeed) {
    // The entire consensus timeline replays — same elections, terms,
    // winners and message loss — then identical artifacts.
    const Probe timeline = [](core::FabricNetwork& net,
                              std::map<std::string, double>& extra) {
        const raft::RaftOrderingBackend& rb = *net.raft_backend();
        extra["faults"] = static_cast<double>(net.fault_schedule().size());
        extra["elections"] = static_cast<double>(rb.elections_started());
        extra["term"] = static_cast<double>(rb.current_term());
        extra["dropped"] = static_cast<double>(rb.messages_dropped());
        extra["consensus_messages"] = static_cast<double>(rb.consensus_messages());
    };
    const harness::RunResult a = run(raft_chaos_config(), 777, 250, timeline);
    const harness::RunResult b = run(raft_chaos_config(), 777, 250, timeline);
    EXPECT_GT(a.extra.at("faults"), 0.0);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(harness::diff(a.artifacts, b.artifacts), Names{});
}

TEST(RaftChaosTest, DifferentSeedsGiveDifferentChaos) {
    EXPECT_NE(run(raft_chaos_config(), 11, 250).artifacts.metrics_json,
              run(raft_chaos_config(), 12, 250).artifacts.metrics_json);
}

TEST(RaftChaosTest, OsnRestartReplaysAcrossATermChange) {
    // OSN 1 crashes, the Raft leader is then killed (term change +
    // re-election while the OSN is down), the cluster heals, and OSN 1
    // restarts.  Its replay reads the committed projection — which now spans
    // two terms — and must rebuild the exact block sequence with zero hash
    // mismatches and no double-counted records.
    core::NetworkConfig cfg = raft_chaos_config();
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(700), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(900), fault::FaultKind::kRaftLeaderKill, 0},
        {Duration::millis(1700), fault::FaultKind::kRaftNodeRestart, raft::kAllNodes},
        {Duration::millis(2400), fault::FaultKind::kOsnRestart, 1},
    };
    const harness::RunResult r = run(cfg, 31, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_EQ(net.faults_applied(), 4u);
        EXPECT_EQ(net.osns()[1]->crashes(), 1u);
        EXPECT_EQ(net.osns()[1]->restarts(), 1u);
        EXPECT_GE(net.raft_backend()->node_crashes(), 1u);
        EXPECT_GE(net.raft_backend()->current_term(), 2u);
    });
    EXPECT_GE(r.extra.at("leader_changes"), 1.0);
    EXPECT_EQ(r.artifacts.violations, Names{});
}

TEST(RaftChaosTest, PartitionedMinorityWindowKeepsSafety) {
    // Partition Raft node 0 (the bootstrap leader) for a window mid-run:
    // the majority side elects a successor and every submission accepted by
    // the stale leader is re-proposed — committed exactly once.
    core::NetworkConfig cfg = raft_chaos_config();
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(600), fault::FaultKind::kRaftPartition, 0},
        {Duration::millis(1400), fault::FaultKind::kRaftHeal, 0},
    };
    const harness::RunResult r = run(cfg, 42, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_EQ(net.faults_applied(), 2u);
        EXPECT_GT(net.raft_backend()->leader_resubmissions(), 0u);
    });
    EXPECT_GE(r.extra.at("leader_changes"), 1.0);
    EXPECT_EQ(r.artifacts.violations, Names{});
}

TEST(RaftChaosTest, LossyConsensusWindowRetriesToCompletion) {
    core::NetworkConfig cfg = raft_chaos_config();
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(200), fault::FaultKind::kRaftDrop, 0, 0.25},
        {Duration::millis(2500), fault::FaultKind::kRaftDrop, 0, 0.0},
    };
    const harness::RunResult r = run(cfg, 7, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_GT(net.raft_backend()->messages_dropped(), 0u);
        EXPECT_EQ(net.raft_backend()->replication_lag(), 0u);
    });
    EXPECT_EQ(r.artifacts.violations, Names{});
}

}  // namespace
}  // namespace fl
