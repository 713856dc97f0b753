// Serial-vs-partitioned engine equivalence (DESIGN.md §17).
//
// The partitioned engine's contract is byte-identity: at ANY partition
// layout, window stepping and worker count, a run produces exactly the
// serial engine's output — harness::run_once's artifacts (trace JSONL,
// metrics JSON, chain/state fingerprints, counts, invariant verdict) and
// the transaction-record stream (content AND sink order).  These tests pin
// that contract over full networks (both ordering backends, with and
// without component faults); unit tests for the window algebra itself live
// in tests/sim/partition_test.cpp.
#include "core/fabric_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/audit/audit.h"

namespace fl::core {
namespace {

NetworkConfig small_config(std::uint64_t seed, PartitionScheme scheme) {
    NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 2;
    cfg.clients = 2;
    cfg.seed = seed;
    cfg.partition = scheme;
    return cfg;
}

harness::Workload small_workload(std::uint32_t clients, std::uint64_t total) {
    harness::Workload wl;
    for (std::uint32_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 400.0;
        load.generate = harness::priority_class_mix({1, 2, 1});
        wl.loads.push_back(std::move(load));
    }
    wl.distribute_total(total);
    return wl;
}

/// Everything observable about one run, for byte-for-byte comparison.
struct RunOutput {
    harness::RunArtifacts artifacts;
    std::string tx_log;  ///< serialized TxRecords in sink-callback order
    std::uint64_t faults = 0;
    std::size_t groups = 0;
};

/// harness::run_once with a trace captured and every TxRecord logged.
/// `step` > 0 drains via repeated advance_until windows of that size from
/// the instrument hook (run_once's own run() then finds nothing left) —
/// output must not depend on the stepping.
RunOutput drive(NetworkConfig cfg, ThreadPool* pool = nullptr,
                std::uint64_t total_txs = 240,
                Duration step = Duration::zero()) {
    RunOutput out;
    std::ostringstream txlog;
    const std::uint64_t seed = cfg.seed;
    harness::ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.make_workload = [clients = spec.config.clients, total_txs] {
        return small_workload(clients, total_txs);
    };
    spec.capture_trace = true;
    spec.tx_probe = [&txlog](const client::TxRecord& r, FabricNetwork&,
                             std::map<std::string, double>&) {
        txlog << r.tx_id.value() << ' ' << r.client.value() << ' ' << r.chaincode
              << ' ' << static_cast<int>(r.priority) << ' '
              << r.submitted_at.as_nanos() << ' ' << r.broadcast_at.as_nanos()
              << ' ' << r.block_cut_at.as_nanos() << ' '
              << r.committed_at.as_nanos() << ' ' << r.completed_at.as_nanos()
              << ' ' << static_cast<int>(r.code) << ' ' << r.failed_before_ordering
              << ' ' << r.endorse_retries << ' ' << r.resubmissions << '\n';
    };
    if (step > Duration::zero()) {
        spec.instrument = [step, pool](FabricNetwork& net, unsigned) {
            TimePoint at = TimePoint::origin();
            while (net.next_event_time() != TimePoint::max()) {
                at = at + step;
                net.advance_until(at, pool);
            }
        };
    }
    spec.run_probe = [&out](FabricNetwork& net, std::map<std::string, double>&) {
        out.faults = net.faults_applied();
        out.groups = net.partition_groups();
    };
    out.artifacts = harness::run_once(spec, seed, 0, pool).artifacts;
    out.tx_log = txlog.str();
    return out;
}

void expect_identical(const RunOutput& serial, const RunOutput& part) {
    // harness::diff names every diverging artifact field.
    EXPECT_EQ(harness::diff(serial.artifacts, part.artifacts),
              std::vector<std::string>{});
    EXPECT_EQ(serial.tx_log, part.tx_log);
    EXPECT_EQ(serial.faults, part.faults);
    EXPECT_EQ(serial.artifacts.violations, std::vector<std::string>{});
}

TEST(PartitionedEngineTest, DefaultConfigRunsSerialEngine) {
    NetworkConfig cfg = small_config(1, PartitionScheme::kSingle);
    FabricNetwork net(cfg);
    EXPECT_EQ(net.partition_groups(), 1u);
    EXPECT_NO_THROW(net.simulator());
    EXPECT_EQ(net.partition_windows(), 0u);
}

TEST(PartitionedEngineTest, RolesLayoutMatchesSerialByteForByte) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const RunOutput serial = drive(small_config(seed, PartitionScheme::kSingle));
        const RunOutput part = drive(small_config(seed, PartitionScheme::kRoles));
        EXPECT_EQ(serial.groups, 1u);
        // clients | org0 | org1 | ordering
        EXPECT_EQ(part.groups, 4u);
        expect_identical(serial, part);
    }
}

TEST(PartitionedEngineTest, PerNodeLayoutMatchesSerial) {
    const RunOutput serial = drive(small_config(7, PartitionScheme::kSingle));
    const RunOutput part = drive(small_config(7, PartitionScheme::kPerNode));
    // 2 clients + 2 peers + ordering
    EXPECT_EQ(part.groups, 5u);
    expect_identical(serial, part);
}

TEST(PartitionedEngineTest, WorkerThreadsDoNotChangeOutput) {
    ThreadPool pool(4);
    const RunOutput inline_run = drive(small_config(1234, PartitionScheme::kRoles));
    const RunOutput pooled_run =
        drive(small_config(1234, PartitionScheme::kRoles), &pool);
    expect_identical(inline_run, pooled_run);
}

TEST(PartitionedEngineTest, WindowSteppingDoesNotChangeOutput) {
    // advance_until at arbitrary external boundaries (the multi-channel
    // engine's drive mode) must equal a single run() drain.
    const RunOutput whole = drive(small_config(42, PartitionScheme::kRoles));
    const RunOutput fine = drive(small_config(42, PartitionScheme::kRoles),
                                 nullptr, 240, Duration::millis(3));
    const RunOutput coarse = drive(small_config(42, PartitionScheme::kRoles),
                                   nullptr, 240, Duration::millis(97));
    expect_identical(whole, fine);
    expect_identical(whole, coarse);
}

TEST(PartitionedEngineTest, ComponentFaultScheduleMatchesSerial) {
    const auto with_faults = [](PartitionScheme scheme) {
        NetworkConfig cfg = small_config(42, scheme);
        // Retries resubmit what the crashed OSN swallowed, so every
        // submission still terminates (the invariants hold).
        cfg.client_params.retry.enabled = true;
        cfg.faults.schedule = {
            {Duration::millis(50), fault::FaultKind::kOsnCrash, 1},
            {Duration::millis(100), fault::FaultKind::kEndorserSlow, 0, 4.0},
            {Duration::millis(300), fault::FaultKind::kOsnRestart, 1},
            {Duration::millis(400), fault::FaultKind::kEndorserNormal, 0},
        };
        return cfg;
    };
    const RunOutput serial = drive(with_faults(PartitionScheme::kSingle));
    const RunOutput part = drive(with_faults(PartitionScheme::kPerNode));
    EXPECT_EQ(serial.faults, 4u);
    EXPECT_GT(part.groups, 1u);
    expect_identical(serial, part);
}

TEST(PartitionedEngineTest, RaftBackendMatchesSerial) {
    const auto raft_cfg = [](PartitionScheme scheme) {
        NetworkConfig cfg = small_config(7, scheme);
        cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
        return cfg;
    };
    const RunOutput serial = drive(raft_cfg(PartitionScheme::kSingle), nullptr, 120);
    const RunOutput part = drive(raft_cfg(PartitionScheme::kRoles), nullptr, 120);
    EXPECT_GT(part.groups, 1u);
    expect_identical(serial, part);
}

TEST(PartitionedEngineTest, MessageFaultsRejectMultiGroupLayouts) {
    // Per-message fault draws consume one shared rng stream in global send
    // order — unsafe across concurrent groups, so the build refuses the
    // combination instead of silently running something else.
    NetworkConfig cfg = small_config(1, PartitionScheme::kRoles);
    cfg.faults.messages.drop_prob = 0.01;
    EXPECT_THROW(FabricNetwork net(cfg), std::invalid_argument);
    cfg.partition = PartitionScheme::kSingle;
    FabricNetwork net(cfg);
    EXPECT_EQ(net.partition_groups(), 1u);
}

TEST(PartitionedEngineTest, MultiGroupRejectsGlobalOrderObservers) {
    FabricNetwork net(small_config(1, PartitionScheme::kRoles));
    ASSERT_GT(net.partition_groups(), 1u);
    EXPECT_THROW(net.simulator(), std::logic_error);
    obs::audit::AuditAccountant audit{obs::audit::AuditConfig{}};
    EXPECT_THROW(net.set_audit(&audit), std::logic_error);
}

TEST(PartitionedEngineTest, LookaheadIsPositiveAndWindowsAdvance) {
    FabricNetwork net(small_config(1, PartitionScheme::kRoles));
    EXPECT_GT(net.lookahead(), Duration::zero());
    harness::WorkloadDriver driver(net, small_workload(2, 40),
                                   Rng(net.config().seed ^ 0x574B4C44ull));
    driver.start();
    net.run(nullptr);
    EXPECT_GT(net.partition_windows(), 0u);
    EXPECT_GT(net.events_executed(), 0u);
}

}  // namespace
}  // namespace fl::core
