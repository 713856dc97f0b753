// Self-tests for the benchmark's own machinery: the domain -> layer map,
// the Simulator::step() contract the attribution rests on, the metric
// catalog's naming limits, and that a stepped drain reproduces a plain
// one on tiny versions of every workload.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>

#include "metrics.h"
#include "raft/raft.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace {

using namespace hostbench;
using orderer::OrderingBackendKind;

TEST(LayerMap, CoversEveryNodeBase) {
    for (const auto backend : {OrderingBackendKind::kMq, OrderingBackendKind::kRaft}) {
        for (std::uint64_t i = 0; i < 8; ++i) {
            EXPECT_EQ(layer_of(core::kPeerNodeBase + i, backend), Layer::kPeer);
            EXPECT_EQ(layer_of(core::kOsnNodeBase + i, backend), Layer::kOrderer);
            EXPECT_EQ(layer_of(core::kClientNodeBase + i, backend), Layer::kClient);
        }
        EXPECT_EQ(layer_of(0, backend), Layer::kOther);
    }
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(layer_of(raft::kRaftNodeBase + i, OrderingBackendKind::kRaft),
                  Layer::kRaft);
    }
    EXPECT_EQ(layer_of(core::kBrokerNode, OrderingBackendKind::kMq), Layer::kMq);
}

TEST(LayerMap, StepLeavesTheExecutedEventsDomain) {
    sim::Simulator sim;
    {
        sim::DomainScope scope(sim, 101);
        sim.schedule_after(Duration::millis(1), [&sim] {
            // A callback that schedules under another domain restores its own.
            sim::DomainScope inner(sim, 9001);
            sim.schedule_after(Duration::millis(5), [] {});
        });
    }
    {
        sim::DomainScope scope(sim, 305);
        sim.schedule_after(Duration::millis(2), [] {});
        auto timer = sim.schedule_timer(Duration::millis(3), [] {});
        timer.cancel();
    }
    {
        sim::DomainScope scope(sim, 202);
        sim.schedule_after(Duration::millis(4), [] {});
    }
    const std::uint64_t expected[] = {101, 305, 202, 9001};
    for (const std::uint64_t domain : expected) {
        ASSERT_TRUE(sim.step());
        EXPECT_EQ(sim.domain(), domain);
    }
    EXPECT_FALSE(sim.step());
}

template <std::size_t N>
void expect_valid_names(const std::array<MetricDef, N>& catalog,
                        std::set<std::string>& seen) {
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    for (const MetricDef& m : catalog) {
        const std::string name(m.name);
        const std::string unit(m.unit);
        EXPECT_TRUE(std::regex_match(name, name_re)) << name;
        EXPECT_TRUE(std::regex_match(unit, unit_re)) << name << " unit " << unit;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
}

TEST(MetricCatalog, NamesAndCountsWithinLimits) {
    EXPECT_GE(kEndToEnd.size(), 1u);
    EXPECT_LE(kEndToEnd.size(), 16u);
    EXPECT_GE(kPerLayer.size(), 1u);
    EXPECT_LE(kPerLayer.size(), 128u);
    std::set<std::string> seen;
    expect_valid_names(kEndToEnd, seen);
    expect_valid_names(kPerLayer, seen);
    EXPECT_TRUE(seen.count("setup_s"));
}

/// A tiny version of `name`: a few hundred transactions, a small account
/// space, and (for Raft) one leader kill inside the traffic.
WorkloadDef tiny(const std::string& name) {
    WorkloadDef def = make_workload(name);
    def.total_txs = 600;
    if (def.accounts > 0) def.accounts = 2'000;
    if (def.leader_kill_period_s > 0) def.leader_kill_period_s = 2;
    return def;
}

class TinyWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkload, SteppedDrainReproducesRunAndReplayMatches) {
    const WorkloadDef def = tiny(GetParam());

    hostbench::Run plain(def, 7);
    plain.drain();
    const SimOutcome a = plain.check();
    EXPECT_TRUE(a.violations.empty()) << a.violations.front();

    hostbench::Run stepped(def, 7);
    stepped.drain_stepped();
    const SimOutcome b = stepped.check();
    EXPECT_TRUE(b.violations.empty());
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.chain_fingerprint, b.chain_fingerprint);
    EXPECT_EQ(a.submitted, def.total_txs);

    const LayerTimes& lt = stepped.layers;
    std::uint64_t events = 0;
    for (const std::uint64_t e : lt.events) events += e;
    EXPECT_EQ(events, b.events);
    EXPECT_EQ(lt.events_of(Layer::kOther), 0u);
    EXPECT_GT(lt.events_of(Layer::kPeer), 0u);
    EXPECT_GT(lt.events_of(Layer::kOrderer), 0u);
    EXPECT_GT(lt.events_of(Layer::kClient), 0u);
    const bool raft = def.config.ordering_backend == OrderingBackendKind::kRaft;
    EXPECT_GT(lt.events_of(raft ? Layer::kRaft : Layer::kMq), 0u);
    EXPECT_EQ(lt.events_of(raft ? Layer::kMq : Layer::kRaft), 0u);
    EXPECT_GE(lt.attributed() / stepped.drain_s, 0.95);

    const ReplayTimes replay = stepped.replay();
    EXPECT_TRUE(replay.mismatches.empty()) << replay.mismatches.front();
    EXPECT_GT(replay.verifies, 0u);

    hostbench::Run other_seed(def, 8);
    other_seed.drain();
    EXPECT_NE(other_seed.check().digest(), a.digest());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TinyWorkload,
                         ::testing::ValuesIn(workload_names()));

TEST(Percentile, NearestRank) {
    std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50.0), 3.0);
    EXPECT_EQ(percentile(v, 99.0), 5.0);
    EXPECT_EQ(percentile(v, 20.0), 1.0);
    std::vector<double> empty;
    EXPECT_EQ(percentile(empty, 99.0), 0.0);
}

}  // namespace
