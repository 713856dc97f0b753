// End-to-end integration: full networks driving the complete paper pipeline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "core/invariants.h"
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

struct Outcome {
    std::vector<client::TxRecord> records;
    core::MetricsCollector metrics;
};

Outcome drive(core::FabricNetwork& net, std::uint64_t total, double tps_per_client,
          harness::TxGenerator (*gen_factory)() = nullptr) {
    Outcome out;
    net.set_tx_sink([&out](const client::TxRecord& r) {
        out.records.push_back(r);
        out.metrics.record(r);
    });
    harness::Workload workload;
    for (std::size_t c = 0; c < net.clients().size(); ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = tps_per_client;
        load.generate = gen_factory ? gen_factory()
                                    : harness::priority_class_mix({1, 2, 1});
        workload.loads.push_back(std::move(load));
    }
    workload.distribute_total(total);
    harness::WorkloadDriver driver(net, std::move(workload), Rng(net.config().seed));
    driver.start();
    net.run();
    return out;
}

TEST(EndToEndTest, AllTransactionsCommitUnderLightLoad) {
    core::FabricNetwork net(small_config(true));
    const Outcome out = drive(net, 300, 50.0);
    EXPECT_EQ(out.metrics.committed_valid(), 300u);
    EXPECT_EQ(out.metrics.committed_invalid(), 0u);
    EXPECT_EQ(out.metrics.client_failures(), 0u);
}

TEST(EndToEndTest, ChainsAndStatesConvergeAcrossPeers) {
    core::FabricNetwork net(small_config(true));
    const Outcome out = drive(net, 300, 50.0);
    // Identical, verified, non-empty chains and states on every peer, and
    // identical OSN block sequences.
    EXPECT_EQ(core::check_invariants(net, out.records.size()),
              std::vector<std::string>{});
    EXPECT_GT(net.peers().front()->chain().height(), 0u);
}

TEST(EndToEndTest, BaselineModeAlsoConverges) {
    core::FabricNetwork net(small_config(false));
    const Outcome out = drive(net, 300, 50.0);
    EXPECT_EQ(out.metrics.committed_valid(), 300u);
    EXPECT_TRUE(net.chains_identical());
    EXPECT_TRUE(net.osn_blocks_identical());
}

TEST(EndToEndTest, DeterministicAcrossIdenticalSeeds) {
    core::FabricNetwork a(small_config(true, 99));
    core::FabricNetwork b(small_config(true, 99));
    const Outcome ra = drive(a, 200, 50.0);
    const Outcome rb = drive(b, 200, 50.0);
    ASSERT_EQ(ra.records.size(), rb.records.size());
    EXPECT_DOUBLE_EQ(ra.metrics.avg_latency(), rb.metrics.avg_latency());
    EXPECT_EQ(a.peers().front()->chain().chain_fingerprint(),
              b.peers().front()->chain().chain_fingerprint());
}

TEST(EndToEndTest, DifferentSeedsDiffer) {
    core::FabricNetwork a(small_config(true, 1));
    core::FabricNetwork b(small_config(true, 2));
    const Outcome ra = drive(a, 200, 50.0);
    const Outcome rb = drive(b, 200, 50.0);
    EXPECT_NE(ra.metrics.avg_latency(), rb.metrics.avg_latency());
}

TEST(EndToEndTest, PriorityLevelsTaggedByChaincode) {
    core::FabricNetwork net(small_config(true));
    const Outcome out = drive(net, 400, 60.0);
    ASSERT_EQ(out.metrics.by_priority().size(), 3u);
    // Arrival ratio 1:2:1 -> counts roughly 100:200:100.
    const auto& by_priority = out.metrics.by_priority();
    EXPECT_NEAR(static_cast<double>(by_priority.at(1).count()),
                static_cast<double>(by_priority.at(0).count() +
                                    by_priority.at(2).count()),
                80.0);
}

TEST(EndToEndTest, CommittedStateMatchesWorkload) {
    core::FabricNetwork net(small_config(true));
    drive(net, 200, 50.0);
    // Every committed create/log wrote exactly one unique key: state size
    // equals (committed account-creates) + (shipment creates write 3 keys)
    // + (record logs write 1).  Just sanity-check non-trivial state and
    // agreement between two peers' stores.
    EXPECT_GT(net.peers().front()->state().key_count(), 100u);
    EXPECT_EQ(net.peers().front()->state().fingerprint(),
              net.peers().back()->state().fingerprint());
}

TEST(EndToEndTest, ClientFairnessCalculatorRoutesPerClient) {
    auto cfg = small_config(true);
    cfg.calculator_factory = [] {
        return std::make_unique<peer::ClientClassCalculator>(
            std::unordered_map<ClientId, PriorityLevel>{
                {ClientId{0}, 0}, {ClientId{1}, 1}, {ClientId{2}, 2}},
            0);
    };
    core::FabricNetwork net(cfg);
    const Outcome out = drive(net, 300, 50.0, +[] {
        return harness::single_chaincode("record_keeper");
    });
    EXPECT_EQ(out.metrics.committed_valid(), 300u);
    // Each client's txs landed in its own priority level.
    for (const auto& record : out.records) {
        EXPECT_EQ(record.priority, record.client.value());
    }
}

TEST(EndToEndTest, ContendedWorkloadInvalidatesSomeTransactions) {
    auto cfg = small_config(true);
    cfg.channel.block_size = 30;
    core::FabricNetwork net(cfg);
    harness::seed_hot_accounts(net, 4);
    const Outcome out = drive(net, 300, 80.0, +[] {
        return harness::contended_transfers(4);
    });
    // With 4 hot accounts at 240 tps and multi-tx blocks, intra-block
    // conflicts are certain; invalid txs must be reported, and peers must
    // still converge.
    // A few transactions may also die at endorsement time when endorsers
    // simulate against divergent mid-commit states (real Fabric behaviour
    // under an all-orgs endorsement policy).
    EXPECT_GT(out.metrics.committed_invalid(), 0u);
    EXPECT_GT(out.metrics.committed_valid(), 0u);
    EXPECT_EQ(out.metrics.total(), 300u);
    EXPECT_LT(out.metrics.client_failures(), 30u);
    EXPECT_TRUE(net.states_identical());
    EXPECT_TRUE(net.chains_identical());
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
