// The OrderingBackend equivalence contract (DESIGN.md §15): a fault-free run
// on the Raft backend is byte-identical to the same run on the mq backend —
// identical ledgers, identical OSN block sequences, byte-identical metrics
// JSON and byte-identical trace JSONL.  Raft node 0 sits at the broker's
// address and bootstraps as leader of term 1, so the client-visible traffic
// traverses the same links in the same order; this suite is the gate that
// keeps that argument true.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "harness/experiment.h"

namespace fl {
namespace {

core::NetworkConfig base_config(orderer::OrderingBackendKind backend) {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.ordering_backend = backend;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    return cfg;
}

/// harness::run_once on `backend` with a trace captured; the probe records
/// the Raft cluster's term and election counters.
harness::RunResult run(orderer::OrderingBackendKind backend, std::uint64_t seed,
                       std::uint64_t total) {
    harness::ExperimentSpec spec;
    spec.config = base_config(backend);
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
    spec.capture_trace = true;
    spec.run_probe = [](core::FabricNetwork& net, std::map<std::string, double>& extra) {
        if (raft::RaftOrderingBackend* rb = net.raft_backend()) {
            extra["term"] = static_cast<double>(rb->current_term());
            extra["elections"] = static_cast<double>(rb->elections_started());
            extra["leader_changes"] = static_cast<double>(rb->leader_changes());
        }
    };
    return harness::run_once(spec, seed);
}

/// Fields where a Raft run differs from the mq run, ignoring the event
/// count: the Raft cluster runs its own consensus events.
std::vector<std::string> backend_diff(const harness::RunResult& mq,
                                      const harness::RunResult& rf) {
    std::vector<std::string> fields = harness::diff(mq.artifacts, rf.artifacts);
    std::erase(fields, std::string("events_executed"));
    return fields;
}

TEST(RaftEquivalenceTest, FaultFreeRunsAreByteIdenticalAcrossBackends) {
    for (std::uint64_t seed : {11u, 42u, 1234u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const harness::RunResult mq = run(orderer::OrderingBackendKind::kMq, seed, 300);
        const harness::RunResult rf = run(orderer::OrderingBackendKind::kRaft, seed, 300);

        // Same metrics JSON, trace and peer-0 ledger; no violations, so
        // within each run every peer and every OSN agrees as well.
        EXPECT_EQ(backend_diff(mq, rf), std::vector<std::string>{});
        EXPECT_EQ(mq.artifacts.violations, std::vector<std::string>{});
        EXPECT_GT(mq.artifacts.blocks, 0u);

        // A fault-free Raft run never leaves term 1: node 0 is the bootstrap
        // leader and nothing challenges it.
        EXPECT_EQ(rf.extra.at("term"), 1.0);
        EXPECT_EQ(rf.extra.at("elections"), 0.0);
        EXPECT_EQ(rf.extra.at("leader_changes"), 0.0);
        EXPECT_TRUE(mq.extra.empty());
    }
}

TEST(RaftEquivalenceTest, TracesAreByteIdenticalAcrossBackends) {
    const harness::RunResult mq = run(orderer::OrderingBackendKind::kMq, 7, 200);
    const harness::RunResult rf = run(orderer::OrderingBackendKind::kRaft, 7, 200);
    ASSERT_FALSE(mq.artifacts.trace_jsonl.empty());
    // No elections fire fault-free, so no Raft-typed events exist and the
    // append hook emits the same kEnqueue/kTtcEnqueue stream as the broker.
    EXPECT_EQ(mq.artifacts.trace_jsonl, rf.artifacts.trace_jsonl);
}

TEST(RaftEquivalenceTest, OrderingAccessorServesBothBackends) {
    for (const auto backend :
         {orderer::OrderingBackendKind::kMq, orderer::OrderingBackendKind::kRaft}) {
        core::FabricNetwork net(base_config(backend));
        const auto& channel = net.config().channel;
        for (std::uint32_t l = 0; l < channel.effective_levels(); ++l) {
            EXPECT_TRUE(net.ordering().has_topic(channel.topic_for_level(l)));
        }
    }
}

TEST(RaftEquivalenceTest, RaftRunIsAPureFunctionOfConfigAndSeed) {
    EXPECT_EQ(harness::diff(run(orderer::OrderingBackendKind::kRaft, 99, 200).artifacts,
                            run(orderer::OrderingBackendKind::kRaft, 99, 200).artifacts),
              std::vector<std::string>{});
}

}  // namespace
}  // namespace fl
