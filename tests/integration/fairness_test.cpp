// Integration tests for the paper's headline behaviours: prioritization
// under overload (Figures 3/5) and per-client resource fairness (Figure 6),
// at reduced scale so they run in seconds.
#include <gtest/gtest.h>

#include "core/fabric_network.h"
#include "harness/experiment.h"
#include "harness/workload.h"

namespace fl {
namespace {

core::NetworkConfig overload_config(bool priority_enabled, std::uint64_t seed) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.seed = seed;
    cfg.channel.priority_enabled = priority_enabled;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 100;
    cfg.channel.block_timeout = Duration::millis(500);
    // Orderer consume loop at 5 ms/record => capacity ~200 tps.
    cfg.osn_params.consume_per_record_cost = Duration::millis(5);
    cfg.osn_params.priority_consume_overhead = Duration::micros(100);
    cfg.osn_params.consume_burst = 24;  // scaled to the small block size
    return cfg;
}

harness::Workload mixed_load(std::size_t clients, double total_tps,
                             std::uint64_t total_txs) {
    harness::Workload w;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = total_tps / static_cast<double>(clients);
        load.generate = harness::priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(total_txs);
    return w;
}

harness::AggregateResult run(bool priority_enabled, double total_tps,
                             std::uint64_t total_txs, unsigned runs = 2) {
    harness::ExperimentSpec spec;
    spec.config = overload_config(priority_enabled, 0);
    spec.make_workload = [total_tps, total_txs] {
        return mixed_load(3, total_tps, total_txs);
    };
    spec.runs = runs;
    spec.base_seed = 4242;
    return harness::run_experiment(spec);
}

TEST(OverloadTest, UnderCapacityPrioritiesBarelyMatter) {
    // 120 tps << 200 tps capacity: every class near the baseline.
    const auto with = run(true, 120.0, 600);
    const auto without = run(false, 120.0, 600);
    ASSERT_TRUE(with.all_consistent());
    const double base = without.overall_latency.mean();
    ASSERT_GT(base, 0.0);
    for (const PriorityLevel level : {0u, 1u, 2u}) {
        EXPECT_NEAR(with.priority_latency(level) / base, 1.0, 0.35)
            << "level " << level;
    }
}

TEST(OverloadTest, OverCapacityHighPriorityProtected) {
    // 250 tps > 200 tps capacity: high priority must beat the baseline
    // clearly and low priority must pay for it.
    const auto with = run(true, 250.0, 1500);
    const auto without = run(false, 250.0, 1500);
    ASSERT_TRUE(with.all_consistent());
    ASSERT_TRUE(without.all_consistent());
    const double base = without.overall_latency.mean();
    EXPECT_LT(with.priority_latency(0), 0.8 * base);
    EXPECT_GT(with.priority_latency(2), 1.2 * base);
    // And the ordering between classes is strict.
    EXPECT_LT(with.priority_latency(0), with.priority_latency(1));
    EXPECT_LT(with.priority_latency(1), with.priority_latency(2));
}

TEST(OverloadTest, EveryTransactionEventuallyCommits) {
    // Starvation-freedom: even the overloaded run commits everything.
    const auto with = run(true, 250.0, 1500, /*runs=*/1);
    EXPECT_EQ(with.total_committed, 1500u);
    EXPECT_EQ(with.total_client_failures, 0u);
}

// ------------------------------------------------------------- Figure 6 (mini)

core::NetworkConfig fairness_config(bool priority_enabled, std::uint64_t seed) {
    auto cfg = overload_config(priority_enabled, seed);
    // Fair share per client: policy 1:1:1, one class per client.
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("1:1:1");
    cfg.calculator_factory = [] {
        return std::make_unique<peer::ClientClassCalculator>(
            std::unordered_map<ClientId, PriorityLevel>{
                {ClientId{0}, 0}, {ClientId{1}, 1}, {ClientId{2}, 2}},
            0);
    };
    return cfg;
}

harness::AggregateResult run_flood(bool priority_enabled, double flood_tps) {
    harness::ExperimentSpec spec;
    spec.config = fairness_config(priority_enabled, 0);
    spec.make_workload = [flood_tps] {
        harness::Workload w;
        for (std::size_t c = 0; c < 3; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = c == 0 ? flood_tps : 60.0;
            load.generate = harness::single_chaincode("record_keeper");
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(
            static_cast<std::uint64_t>((flood_tps + 120.0) * 6.0));  // ~6 s of load
        return w;
    };
    spec.runs = 2;
    spec.base_seed = 777;
    return harness::run_experiment(spec);
}

TEST(FairnessTest, FloodingHurtsEveryoneWithoutPriority) {
    const auto calm = run_flood(false, 60.0);   // 180 tps total, under capacity
    const auto flood = run_flood(false, 300.0);  // C1 floods: 420 tps total
    const double calm_c2 = calm.client_latency(1);
    const double flood_c2 = flood.client_latency(1);
    ASSERT_GT(calm_c2, 0.0);
    // Victims' latency degrades substantially (unfair).
    EXPECT_GT(flood_c2 / calm_c2, 1.5);
}

TEST(FairnessTest, FloodingIsolatedWithPriority) {
    const auto calm = run_flood(true, 60.0);
    const auto flood = run_flood(true, 300.0);
    ASSERT_TRUE(flood.all_consistent());
    // Victims stay near their calm latency...
    for (const std::uint64_t victim : {1ull, 2ull}) {
        const double ratio =
            flood.client_latency(victim) / calm.client_latency(victim);
        EXPECT_LT(ratio, 1.35) << "victim client " << victim;
    }
    // ...while the flooder pays.
    EXPECT_GT(flood.client_latency(0) / calm.client_latency(0), 2.0);
}

}  // namespace
}  // namespace fl
