// Single-engine determinism over full networks: a channel runs on one
// Simulator, so repeating a run, or draining it through advance_until at
// arbitrary boundaries (the multi-channel engine's drive mode) instead of
// one run(), reproduces harness::run_once's artifacts byte for byte — for
// both ordering backends, with component faults and with message faults.
#include "core/fabric_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/workload.h"

namespace fl::core {
namespace {

NetworkConfig small_config(std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 2;
    cfg.clients = 2;
    cfg.seed = seed;
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

/// harness::run_once with a trace captured.  `step` > 0 drains via
/// repeated advance_until windows of that size from the instrument hook
/// (run_once's own run() then finds nothing left).
harness::RunResult drive(NetworkConfig cfg, std::uint64_t total_txs = 240,
                         Duration step = Duration::zero()) {
    const std::uint64_t seed = cfg.seed;
    harness::ExperimentSpec spec;
    spec.config = std::move(cfg);
    spec.make_workload = [clients = spec.config.clients, total_txs] {
        return small_workload(clients, total_txs);
    };
    spec.capture_trace = true;
    if (step > Duration::zero()) {
        spec.instrument = [step](FabricNetwork& net, unsigned) {
            TimePoint at = TimePoint::origin();
            while (net.next_event_time() != TimePoint::max()) {
                at = at + step;
                net.advance_until(at);
            }
        };
    }
    spec.run_probe = [](FabricNetwork& net, std::map<std::string, double>& extra) {
        extra["faults"] = static_cast<double>(net.faults_applied());
        extra["dropped"] = static_cast<double>(net.network().messages_dropped());
    };
    return harness::run_once(spec, seed);
}

void expect_identical(const harness::RunResult& a, const harness::RunResult& b) {
    // harness::diff names every diverging artifact field.
    EXPECT_EQ(harness::diff(a.artifacts, b.artifacts), std::vector<std::string>{});
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(a.artifacts.violations, std::vector<std::string>{});
    EXPECT_FALSE(a.artifacts.trace_jsonl.empty());
}

NetworkConfig with_component_faults(NetworkConfig cfg) {
    // Retries resubmit what the crashed OSN swallowed, so every submission
    // still terminates (the invariants hold).
    cfg.client_params.retry.enabled = true;
    cfg.faults.schedule = {
        {Duration::millis(50), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(100), fault::FaultKind::kEndorserSlow, 0, 4.0},
        {Duration::millis(300), fault::FaultKind::kOsnRestart, 1},
        {Duration::millis(400), fault::FaultKind::kEndorserNormal, 0},
    };
    return cfg;
}

NetworkConfig with_message_faults(NetworkConfig cfg) {
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.commit_timeout = Duration::seconds(3);
    cfg.faults.messages.drop_prob = 0.03;
    cfg.faults.messages.dup_prob = 0.02;
    cfg.faults.messages.delay_prob = 0.05;
    return cfg;
}

TEST(FabricEngineTest, RepeatedRunsAreByteIdentical) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        expect_identical(drive(small_config(seed)), drive(small_config(seed)));
    }
}

TEST(FabricEngineTest, SeedChangesTheRun) {
    // Non-vacuity for the identity checks: the artifacts depend on the seed.
    EXPECT_NE(harness::diff(drive(small_config(1)).artifacts,
                            drive(small_config(2)).artifacts),
              std::vector<std::string>{});
}

TEST(FabricEngineTest, WindowSteppingDoesNotChangeOutput) {
    const harness::RunResult whole = drive(small_config(42));
    expect_identical(whole, drive(small_config(42), 240, Duration::millis(3)));
    expect_identical(whole, drive(small_config(42), 240, Duration::millis(97)));
}

TEST(FabricEngineTest, ComponentFaultScheduleIsStepInvariant) {
    const harness::RunResult whole = drive(with_component_faults(small_config(42)));
    EXPECT_EQ(whole.extra.at("faults"), 4.0);
    expect_identical(whole, drive(with_component_faults(small_config(42)), 240,
                                  Duration::millis(7)));
}

TEST(FabricEngineTest, RaftBackendIsStepInvariant) {
    NetworkConfig cfg = small_config(7);
    cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
    expect_identical(drive(cfg, 120), drive(cfg, 120, Duration::millis(5)));
}

TEST(FabricEngineTest, MessageFaultsAreDeterministicAndStepInvariant) {
    const harness::RunResult whole = drive(with_message_faults(small_config(7)));
    EXPECT_GT(whole.extra.at("dropped"), 0.0);
    expect_identical(whole, drive(with_message_faults(small_config(7))));
    expect_identical(whole, drive(with_message_faults(small_config(7)), 240,
                                  Duration::millis(11)));
}

}  // namespace
}  // namespace fl::core
