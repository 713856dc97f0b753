// Chaos integration tests: the full pipeline under deterministic fault
// injection — OSN crash/recovery with log replay, endorser outages and
// slow-downs, broker unavailability, message drop/duplication/delay, and
// client-side retry/resubmission (DESIGN.md §11).
//
// Every run goes through harness::run_once, so core::check_invariants
// judges it — prefix-consistent OSN block sequences (identical once every
// crashed OSN has replayed), verified hash chains, no double commit,
// exactly one terminal state per submission — and the whole run must be a
// pure function of (config, seed): re-running gives identical artifacts.
// Scenario assertions on the drained network run inside `run_probe`.
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

core::NetworkConfig chaos_config() {
    core::NetworkConfig cfg;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    // k-of-n endorsement so a single endorser outage is survivable.
    cfg.endorsement_k = 2;
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

    fault::FaultSpec& faults = cfg.faults;
    faults.messages.drop_prob = 0.03;
    faults.messages.dup_prob = 0.02;
    faults.messages.delay_prob = 0.05;
    faults.messages.delay_mean = Duration::millis(40);
    fault::FaultProfile profile;
    profile.horizon = Duration::seconds(6);
    profile.expected_osn_crashes = 1.5;
    profile.osn_downtime_mean = Duration::seconds(1);
    profile.expected_endorser_outages = 1.0;
    profile.endorser_downtime_mean = Duration::millis(800);
    profile.expected_endorser_slowdowns = 1.0;
    profile.endorser_slow_mean = Duration::seconds(1);
    profile.endorser_slow_factor = 4.0;
    profile.expected_broker_outages = 0.7;
    profile.broker_outage_mean = Duration::millis(400);
    faults.profile = profile;
    return cfg;
}

/// harness::run_once of `total` txs at 50 tps per client; `probe` sees the
/// drained network.
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
    spec.run_probe = std::move(probe);
    return harness::run_once(spec, seed);
}

/// The chaos profile pairs every crash with a restart, so on top of the
/// shared invariants every OSN must be alive again at drain time.
void expect_all_osns_alive(core::FabricNetwork& net) {
    for (const auto& osn : net.osns()) EXPECT_TRUE(osn->alive());
}

TEST(ChaosTest, InvariantsHoldAcrossSeeds) {
    for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u, 606u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const harness::RunResult r =
            run(chaos_config(), seed, 300, [](core::FabricNetwork& net, auto&) {
                EXPECT_FALSE(net.fault_schedule().empty());
                // The fault mix must actually exercise the degradation
                // machinery; this seed set does (pinned by determinism).
                EXPECT_GT(net.faults_applied(), 0u);
                expect_all_osns_alive(net);
            });
        EXPECT_EQ(r.artifacts.violations, Names{});
    }
}

TEST(ChaosTest, ChaosRunIsAPureFunctionOfConfigAndSeed) {
    // Identical fault schedules and retry timelines (per-client timeout,
    // retry and resubmission counters), then identical artifacts.
    const Probe timeline = [](core::FabricNetwork& net,
                              std::map<std::string, double>& extra) {
        for (const fault::ScheduledFault& f : net.fault_schedule()) {
            extra["fault_ns_sum"] += static_cast<double>(f.at.as_nanos());
            extra["fault_kind_sum"] += static_cast<double>(f.kind);
        }
        for (std::size_t c = 0; c < net.clients().size(); ++c) {
            const client::Client& cl = *net.clients()[c];
            const std::string k = "client" + std::to_string(c);
            extra[k + "_retries"] = static_cast<double>(cl.endorse_retries());
            extra[k + "_resubmissions"] = static_cast<double>(cl.resubmissions());
            extra[k + "_endorse_timeouts"] = static_cast<double>(cl.endorse_timeouts());
            extra[k + "_commit_timeouts"] = static_cast<double>(cl.commit_timeouts());
        }
    };
    const harness::RunResult a = run(chaos_config(), 777, 250, timeline);
    const harness::RunResult b = run(chaos_config(), 777, 250, timeline);
    EXPECT_GT(a.extra.at("fault_ns_sum"), 0.0);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(harness::diff(a.artifacts, b.artifacts), Names{});
}

TEST(ChaosTest, DifferentSeedsGiveDifferentChaos) {
    EXPECT_NE(run(chaos_config(), 11, 250).artifacts.metrics_json,
              run(chaos_config(), 12, 250).artifacts.metrics_json);
}

TEST(ChaosTest, ExplicitCrashWithoutRestartLeavesConsistentPrefixes) {
    // A hand-written fault plan: OSN 0 crashes at 800 ms and never comes
    // back.  Its block sequence must be a strict prefix of the survivors',
    // peers fed by it hold a valid (shorter) chain, and clients anchored to
    // those peers terminate via commit-timeout failure instead of hanging.
    core::NetworkConfig cfg = chaos_config();
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {{Duration::millis(800), fault::FaultKind::kOsnCrash, 0}};
    const harness::RunResult r = run(cfg, 99, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_EQ(net.faults_applied(), 1u);
        EXPECT_FALSE(net.osns()[0]->alive());
        EXPECT_LT(net.osns()[0]->block_hashes().size(),
                  net.osns()[1]->block_hashes().size());
    });
    // A dead OSN is no violation: the survivors stay prefix-consistent and
    // every submission still terminates.
    EXPECT_EQ(r.artifacts.violations, Names{});
    // Peers 0 and 3 stream from the dead OSN, so their clients' later txs
    // must fail with the typed commit-timeout reason.
    EXPECT_GT(r.metrics.commit_timeout_failures(), 0u);
}

TEST(ChaosTest, EndorserOutageSurvivedByKofNPolicy) {
    // One endorser down for the whole run: with k=2-of-4 every transaction
    // can still gather a satisfying endorsement set after the timeout fires.
    core::NetworkConfig cfg = chaos_config();
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {{Duration::millis(1), fault::FaultKind::kEndorserDown, 1}};
    const harness::RunResult r = run(cfg, 7, 200, [](core::FabricNetwork& net, auto&) {
        EXPECT_GT(net.peers()[1]->proposals_dropped(), 0u);
        std::uint64_t timeouts = 0;
        for (const auto& client : net.clients()) timeouts += client->endorse_timeouts();
        EXPECT_GT(timeouts, 0u);
    });
    // Every submission still terminates, and the endorsement timeouts that
    // fired resolved via the partial-quorum path (k satisfied), so no
    // endorsement-timeout failures occur.
    EXPECT_EQ(r.artifacts.violations, Names{});
    EXPECT_EQ(r.metrics.endorse_timeout_failures(), 0u);
    EXPECT_EQ(r.metrics.client_failures(), 0u);
}

TEST(ChaosTest, FaultFreeRunWithRetryArmedSeesNoDegradation) {
    // Retry machinery enabled but no faults configured: timers must never
    // fire under light load and the degradation counters stay zero.
    core::NetworkConfig cfg = chaos_config();
    cfg.faults = {};
    ASSERT_FALSE(cfg.faults.enabled());
    cfg.client_params.retry.endorsement_timeout = Duration::millis(500);
    const harness::RunResult r = run(cfg, 11, 300, [](core::FabricNetwork& net, auto&) {
        for (const auto& client : net.clients()) {
            EXPECT_EQ(client->endorse_timeouts(), 0u);
            EXPECT_EQ(client->commit_timeouts(), 0u);
        }
    });
    EXPECT_EQ(r.artifacts.violations, Names{});
    EXPECT_EQ(r.metrics.committed_valid(), 300u);
    EXPECT_EQ(r.metrics.client_failures(), 0u);
    EXPECT_EQ(r.metrics.endorse_retries_total(), 0u);
    EXPECT_EQ(r.metrics.resubmissions_total(), 0u);
}

TEST(ChaosTest, OsnCrashAndRestartReplaysToIdenticalChain) {
    // Crash OSN 1 mid-run and bring it back: Kafka-style replay from the
    // broker log must rebuild the exact block sequence (hash-verified via
    // replay_hash_mismatches, which the checker requires to be zero).
    core::NetworkConfig cfg = chaos_config();
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(700), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(2200), fault::FaultKind::kOsnRestart, 1},
    };
    const harness::RunResult r = run(cfg, 31, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_EQ(net.osns()[1]->crashes(), 1u);
        EXPECT_EQ(net.osns()[1]->restarts(), 1u);
        expect_all_osns_alive(net);
    });
    EXPECT_EQ(r.artifacts.violations, Names{});
}

TEST(ChaosTest, CrashDuringReplayDoesNotRedeliverBlocks) {
    // OSN 1 crashes, restarts, and crashes again while its replay is still
    // re-cutting pre-crash blocks.  The second restart must still expect the
    // full pre-crash chain: re-delivering blocks its peers already hold would
    // break their chains.
    core::NetworkConfig cfg = chaos_config();
    cfg.faults.messages = {};
    cfg.faults.profile.reset();
    cfg.faults.schedule = {
        {Duration::millis(1500), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(2500), fault::FaultKind::kOsnRestart, 1},
        {Duration::millis(2502), fault::FaultKind::kOsnCrash, 1},
        {Duration::millis(3000), fault::FaultKind::kOsnRestart, 1},
    };
    const harness::RunResult r = run(cfg, 31, 300, [](core::FabricNetwork& net, auto&) {
        EXPECT_EQ(net.osns()[1]->crashes(), 2u);
        expect_all_osns_alive(net);
    });
    EXPECT_EQ(r.artifacts.violations, Names{});
}

}  // namespace
}  // namespace fl
