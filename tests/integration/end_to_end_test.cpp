// End-to-end integration: full networks driving the complete paper pipeline.
//
// Every run goes through harness::run_once, so core::check_invariants judges
// it too; scenario assertions on the drained network run inside `run_probe`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "harness/experiment.h"
#include "harness/workload.h"

namespace fl {
namespace {

core::NetworkConfig small_config(bool priority_enabled, std::uint64_t seed = 11) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = seed;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    return cfg;
}

/// `total` txs at `tps_per_client` per client, each client drawing from
/// `gen_factory` (default: the 1:2:1 priority-class mix).
harness::ExperimentSpec spec_for(core::NetworkConfig cfg, std::uint64_t total,
                                 double tps_per_client,
                                 harness::TxGenerator (*gen_factory)() = nullptr) {
    harness::ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.make_workload = [clients = spec.config.clients, total, tps_per_client,
                          gen_factory] {
        harness::Workload workload;
        for (std::size_t c = 0; c < clients; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = tps_per_client;
            load.generate = gen_factory ? gen_factory()
                                        : harness::priority_class_mix({1, 2, 1});
            workload.loads.push_back(std::move(load));
        }
        workload.distribute_total(total);
        return workload;
    };
    return spec;
}

/// harness::run_once at the config's own seed.
harness::RunResult run(const harness::ExperimentSpec& spec) {
    return harness::run_once(spec, spec.config.seed);
}

TEST(EndToEndTest, AllTransactionsCommitUnderLightLoad) {
    const harness::RunResult r = run(spec_for(small_config(true), 300, 50.0));
    EXPECT_EQ(r.metrics.committed_valid(), 300u);
    EXPECT_EQ(r.metrics.committed_invalid(), 0u);
    EXPECT_EQ(r.metrics.client_failures(), 0u);
}

TEST(EndToEndTest, ChainsAndStatesConvergeAcrossPeers) {
    // Identical, verified, non-empty chains and states on every peer, and
    // identical OSN block sequences: core::check_invariants inside run_once.
    const harness::RunResult r = run(spec_for(small_config(true), 300, 50.0));
    EXPECT_EQ(r.artifacts.violations, std::vector<std::string>{});
    EXPECT_GT(r.artifacts.blocks, 0u);
}

TEST(EndToEndTest, BaselineModeAlsoConverges) {
    harness::ExperimentSpec spec = spec_for(small_config(false), 300, 50.0);
    spec.run_probe = [](core::FabricNetwork& net, auto&) {
        EXPECT_TRUE(net.chains_identical());
        EXPECT_TRUE(net.osn_blocks_identical());
    };
    const harness::RunResult r = run(spec);
    EXPECT_EQ(r.metrics.committed_valid(), 300u);
    EXPECT_EQ(r.artifacts.violations, std::vector<std::string>{});
}

TEST(EndToEndTest, DeterministicAcrossIdenticalSeeds) {
    const harness::ExperimentSpec spec = spec_for(small_config(true, 99), 200, 50.0);
    const harness::RunResult a = run(spec);
    const harness::RunResult b = run(spec);
    // Every artifact: metrics JSON, chain/state fingerprints, counts.
    EXPECT_EQ(harness::diff(a.artifacts, b.artifacts), std::vector<std::string>{});
    ASSERT_EQ(a.metrics.total(), b.metrics.total());
    EXPECT_DOUBLE_EQ(a.metrics.avg_latency(), b.metrics.avg_latency());
}

TEST(EndToEndTest, DifferentSeedsDiffer) {
    const harness::RunResult a = run(spec_for(small_config(true, 1), 200, 50.0));
    const harness::RunResult b = run(spec_for(small_config(true, 2), 200, 50.0));
    EXPECT_NE(a.metrics.avg_latency(), b.metrics.avg_latency());
}

TEST(EndToEndTest, PriorityLevelsTaggedByChaincode) {
    const harness::RunResult r = run(spec_for(small_config(true), 400, 60.0));
    ASSERT_EQ(r.metrics.by_priority().size(), 3u);
    // Arrival ratio 1:2:1 -> counts roughly 100:200:100.
    const auto& by_priority = r.metrics.by_priority();
    EXPECT_NEAR(static_cast<double>(by_priority.at(1).count()),
                static_cast<double>(by_priority.at(0).count() +
                                    by_priority.at(2).count()),
                80.0);
}

TEST(EndToEndTest, CommittedStateMatchesWorkload) {
    // Every committed create/log wrote exactly one unique key: state size
    // equals (committed account-creates) + (shipment creates write 3 keys)
    // + (record logs write 1).  Just sanity-check non-trivial state and
    // agreement between two peers' stores.
    harness::ExperimentSpec spec = spec_for(small_config(true), 200, 50.0);
    spec.run_probe = [](core::FabricNetwork& net, auto&) {
        EXPECT_GT(net.peers().front()->state().key_count(), 100u);
        EXPECT_EQ(net.peers().front()->state().fingerprint(),
                  net.peers().back()->state().fingerprint());
    };
    run(spec);
}

TEST(EndToEndTest, ClientFairnessCalculatorRoutesPerClient) {
    auto cfg = small_config(true);
    cfg.calculator_factory = [] {
        return std::make_unique<peer::ClientClassCalculator>(
            std::unordered_map<ClientId, PriorityLevel>{
                {ClientId{0}, 0}, {ClientId{1}, 1}, {ClientId{2}, 2}},
            0);
    };
    harness::ExperimentSpec spec = spec_for(std::move(cfg), 300, 50.0, +[] {
        return harness::single_chaincode("record_keeper");
    });
    // Each client's txs landed in its own priority level.
    spec.tx_probe = [](const client::TxRecord& record, core::FabricNetwork&,
                       auto& extra) {
        EXPECT_EQ(record.priority, record.client.value());
        extra["records"] += 1.0;
    };
    const harness::RunResult r = run(spec);
    EXPECT_EQ(r.metrics.committed_valid(), 300u);
    EXPECT_EQ(r.extra.at("records"), 300.0);
}

TEST(EndToEndTest, ContendedWorkloadInvalidatesSomeTransactions) {
    auto cfg = small_config(true);
    cfg.channel.block_size = 30;
    harness::ExperimentSpec spec = spec_for(std::move(cfg), 300, 80.0, +[] {
        return harness::contended_transfers(4);
    });
    // Pre-drain, so the seeded balances are committed before any proposal
    // executes.
    spec.instrument = [](core::FabricNetwork& net, unsigned) {
        harness::seed_hot_accounts(net, 4);
    };
    spec.run_probe = [](core::FabricNetwork& net, auto&) {
        EXPECT_TRUE(net.states_identical());
        EXPECT_TRUE(net.chains_identical());
    };
    const harness::RunResult r = run(spec);
    // With 4 hot accounts at 240 tps and multi-tx blocks, intra-block
    // conflicts are certain; invalid txs must be reported, and peers must
    // still converge.
    // A few transactions may also die at endorsement time when endorsers
    // simulate against divergent mid-commit states (real Fabric behaviour
    // under an all-orgs endorsement policy).
    EXPECT_GT(r.metrics.committed_invalid(), 0u);
    EXPECT_GT(r.metrics.committed_valid(), 0u);
    EXPECT_EQ(r.metrics.total(), 300u);
    EXPECT_LT(r.metrics.client_failures(), 30u);
}

TEST(EndToEndTest, SeededStateVisibleToChaincode) {
    core::FabricNetwork net(small_config(true));
    net.seed_state("acct/genesis", "1000");
    net.set_tx_sink([](const client::TxRecord&) {});
    net.clients()[0]->submit("asset_transfer", "query", {"genesis"});
    net.run();
    EXPECT_EQ(net.clients()[0]->completed(), 1u);
}

}  // namespace
}  // namespace fl
