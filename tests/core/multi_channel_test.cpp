// Channel layout + channel-sharded engine tests.
//
// Covers the four contracts of core/multi_channel.h and
// harness::run_multi_channel:
//   1. layout validation — zero channels, duplicate ids, bad sync window —
//      and per-channel policy defaulting over the base NetworkConfig;
//   2. 1-channel legacy byte-identity: the sharded engine (serial AND
//      parallel) reproduces harness::run_once's whole RunResult;
//   3. serial-vs-parallel differential over random seeds × channel counts:
//      every per-channel artifact and the cross-channel meter agree;
//   4. engine-knob invariance: sync_window and pool size never change
//      per-channel bytes; gauge prefixes and trace tags are well-formed.
#include "core/multi_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/metric_registry.h"

namespace fl::core {
namespace {

harness::Workload small_workload(std::size_t clients, std::uint64_t total_txs) {
    harness::Workload w;
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = 400.0 / static_cast<double>(clients);
        load.generate = harness::priority_class_mix({1, 2, 1});
        w.loads.push_back(std::move(load));
    }
    w.distribute_total(total_txs);
    return w;
}

/// A default-network spec with a trace, split into `channels` channels.
struct ChannelRun {
    harness::ExperimentSpec spec;
    ChannelLayout layout;
    std::uint64_t seed = 0;

    [[nodiscard]] harness::MultiChannelResult run(ThreadPool* pool = nullptr) const {
        return harness::run_multi_channel(spec, layout, seed, pool);
    }
};

ChannelRun small_run(std::size_t channels, std::uint64_t seed,
                     std::uint64_t txs_per_channel = 120) {
    ChannelRun r;
    r.spec.make_workload = [clients = r.spec.config.clients, txs_per_channel] {
        return small_workload(clients, txs_per_channel);
    };
    r.spec.capture_trace = true;
    r.layout = ChannelLayout::uniform(channels);
    r.seed = seed;
    return r;
}

void expect_identical(const harness::MultiChannelResult& a,
                      const harness::MultiChannelResult& b,
                      const std::string& what) {
    ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        SCOPED_TRACE(what + ": channel " + std::to_string(i));
        EXPECT_EQ(harness::diff(a.channels[i].artifacts, b.channels[i].artifacts),
                  std::vector<std::string>{});
        EXPECT_EQ(a.channels[i].artifacts.violations, std::vector<std::string>{});
    }
    EXPECT_EQ(a.events_executed, b.events_executed) << what;
    EXPECT_EQ(a.windows, b.windows) << what;
    EXPECT_TRUE(a.meter == b.meter) << what;
}

std::string audit_json(const obs::audit::AuditReport& report) {
    std::ostringstream os;
    JsonWriter json(os);
    obs::audit::write_audit_json(json, report);
    return os.str();
}

// -- layout validation + defaulting -----------------------------------------

TEST(ChannelLayout, RejectsZeroChannels) {
    ChannelLayout layout;
    layout.channels.clear();
    EXPECT_THROW(layout.validate(NetworkConfig{}), std::invalid_argument);
}

TEST(ChannelLayout, RejectsDuplicateChannelIds) {
    ChannelLayout layout;
    layout.channels.assign(2, ChannelSpec{});
    layout.channels[0].id = ChannelId{7};
    layout.channels[1].id = ChannelId{7};
    EXPECT_THROW(layout.validate(NetworkConfig{}), std::invalid_argument);

    // Auto ids collide with an explicit id too: base id 1 + index.
    ChannelLayout auto_layout;
    auto_layout.channels.assign(2, ChannelSpec{});
    auto_layout.channels[1].id = ChannelId{1};  // == auto id of channel 0
    EXPECT_THROW(auto_layout.validate(NetworkConfig{}), std::invalid_argument);
}

TEST(ChannelLayout, RejectsNonPositiveSyncWindow) {
    ChannelLayout layout;
    layout.sync_window = Duration::zero();
    EXPECT_THROW(layout.validate(NetworkConfig{}), std::invalid_argument);
}

TEST(ChannelLayout, AutoIdsFollowBaseChannelId) {
    const NetworkConfig base;
    ChannelLayout layout = ChannelLayout::uniform(3);
    EXPECT_NO_THROW(layout.validate(base));
    // Base channel id is 1 (policy::ChannelConfig default).
    EXPECT_EQ(layout.resolved_id(base, 0).value(), 1u);
    EXPECT_EQ(layout.resolved_id(base, 1).value(), 2u);
    EXPECT_EQ(layout.resolved_id(base, 2).value(), 3u);
    layout.channels[1].id = ChannelId{40};
    EXPECT_EQ(layout.resolved_id(base, 1).value(), 40u);
}

TEST(ChannelLayout, PerChannelPolicyDefaulting) {
    NetworkConfig base;
    base.channel.block_size = 200;
    ChannelLayout layout = ChannelLayout::uniform(2);
    layout.channels[1].priority_enabled = false;
    layout.channels[1].block_size = 64;
    layout.channels[1].block_timeout = Duration::millis(500);
    layout.channels[1].consolidation_spec = "kofn:3";

    // Channel 0: pure base settings, only the id differs.
    const NetworkConfig c0 = layout.channel_config(base, 0);
    EXPECT_TRUE(c0.channel.priority_enabled);
    EXPECT_EQ(c0.channel.block_size, 200u);
    EXPECT_EQ(c0.channel.consolidation_spec, base.channel.consolidation_spec);
    EXPECT_EQ(c0.channel.id.value(), 1u);

    // Channel 1: overrides applied, everything else inherited.
    const NetworkConfig c1 = layout.channel_config(base, 1);
    EXPECT_FALSE(c1.channel.priority_enabled);
    EXPECT_EQ(c1.channel.block_size, 64u);
    EXPECT_EQ(c1.channel.block_timeout, Duration::millis(500));
    EXPECT_EQ(c1.channel.consolidation_spec, "kofn:3");
    EXPECT_EQ(c1.channel.priority_levels, base.channel.priority_levels);
    EXPECT_EQ(c1.channel.id.value(), 2u);
    EXPECT_EQ(c1.orgs, base.orgs);
}

TEST(ChannelLayout, ChannelSeedsAreDistinctAndStable) {
    EXPECT_EQ(channel_seed(42, 0), 42u);  // channel 0 keeps the run seed
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 16; ++i) seeds.push_back(channel_seed(42, i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
    EXPECT_EQ(channel_seed(42, 5), channel_seed(42, 5));
    EXPECT_NE(channel_seed(42, 5), channel_seed(43, 5));
}

// -- legacy byte-identity ----------------------------------------------------

TEST(MultiChannelEngine, OneChannelMatchesLegacyRunOnceByteForByte) {
    // Every observer attached: audit, per-tx probe and post-run probe.
    ChannelRun setup = small_run(1, 42);
    setup.spec.audit = obs::audit::AuditConfig{};
    // A window far below the engine's 250 ms sync window: finalizing at the
    // window boundary instead of the last event would close extra windows.
    setup.spec.audit->window = Duration::millis(10);
    setup.spec.tx_probe = [](const client::TxRecord& r, FabricNetwork& net,
                             std::map<std::string, double>& extra) {
        extra["records"] += 1.0;
        extra["latency_s"] += r.latency().as_seconds();
        extra["blocks_seen"] += static_cast<double>(net.peers().front()->blocks_committed());
    };
    setup.spec.run_probe = [](FabricNetwork& net, std::map<std::string, double>& extra) {
        extra["osn0_blocks"] = static_cast<double>(net.osns().front()->blocks_delivered());
        extra["last_event_s"] = net.last_event_at().as_seconds();
    };

    // The single-network harness on the same spec and seed.
    const harness::RunResult gold = harness::run_once(setup.spec, setup.seed);
    ASSERT_FALSE(gold.artifacts.trace_jsonl.empty());
    ASSERT_TRUE(gold.audit.has_value());
    ASSERT_NE(gold.artifacts.metrics_json.find("\"audit\""), std::string::npos);
    ASSERT_GT(gold.extra.at("records"), 0.0);

    ThreadPool pool(4);
    for (ThreadPool* engine_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(engine_pool ? "parallel engine" : "serial engine");
        const harness::MultiChannelResult r = setup.run(engine_pool);
        ASSERT_EQ(r.channels.size(), 1u);
        const harness::RunResult& ch = r.channels[0];
        EXPECT_EQ(harness::diff(ch.artifacts, gold.artifacts),
                  std::vector<std::string>{});
        EXPECT_EQ(ch.extra, gold.extra);
        EXPECT_EQ(ch.txs_invalid, gold.txs_invalid);
        EXPECT_EQ(ch.consolidation_failures, gold.consolidation_failures);
        EXPECT_EQ(ch.level_totals, gold.level_totals);
        ASSERT_TRUE(ch.audit.has_value());
        EXPECT_EQ(audit_json(*ch.audit), audit_json(*gold.audit));
        EXPECT_EQ(r.events_executed, gold.artifacts.events_executed);
        EXPECT_FALSE(ch.artifacts.trace_jsonl.find("\"ch\":") == 0)
            << "1-channel traces must stay untagged";
    }
}

// -- serial vs parallel differential ------------------------------------------

TEST(MultiChannelEngine, SerialAndParallelEnginesAgreeAcrossSeedsAndCounts) {
    ThreadPool pool(4);
    Rng rng(20260808);
    for (const std::size_t channels : {2u, 3u, 5u}) {
        for (int rep = 0; rep < 2; ++rep) {
            const std::uint64_t seed = rng.next_u64();
            const ChannelRun setup = small_run(channels, seed, 80);
            const harness::MultiChannelResult serial = setup.run(nullptr);
            const harness::MultiChannelResult parallel = setup.run(&pool);
            expect_identical(serial, parallel,
                             std::to_string(channels) + " channels, seed " +
                                 std::to_string(seed));
            // Channels must actually differ from each other (distinct seeds).
            EXPECT_NE(serial.channels[0].artifacts.trace_jsonl.substr(0, 400),
                      serial.channels[1].artifacts.trace_jsonl.substr(0, 400));
        }
    }
}

TEST(MultiChannelEngine, HeterogeneousChannelPoliciesRunAndStayConsistent) {
    ChannelRun setup = small_run(2, 7, 100);
    setup.layout.channels[1].priority_enabled = false;  // vanilla-Fabric channel
    ThreadPool pool(2);
    const harness::MultiChannelResult serial = setup.run(nullptr);
    const harness::MultiChannelResult parallel = setup.run(&pool);
    expect_identical(serial, parallel, "heterogeneous policies");
    for (const auto& ch : serial.channels) {
        EXPECT_EQ(ch.artifacts.violations, std::vector<std::string>{});
        EXPECT_GT(ch.artifacts.blocks, 0u);
    }
}

// -- engine-knob invariance ---------------------------------------------------

TEST(MultiChannelEngine, SyncWindowNeverChangesPerChannelBytes) {
    ChannelRun coarse = small_run(3, 1234, 80);
    ChannelRun fine = coarse;
    coarse.layout.sync_window = Duration::millis(400);
    fine.layout.sync_window = Duration::millis(50);
    const harness::MultiChannelResult a = coarse.run();
    const harness::MultiChannelResult b = fine.run();
    ASSERT_EQ(a.channels.size(), b.channels.size());
    for (std::size_t i = 0; i < a.channels.size(); ++i) {
        EXPECT_EQ(harness::diff(a.channels[i].artifacts, b.channels[i].artifacts),
                  std::vector<std::string>{});
    }
    // The meter cadence is the knob that DOES move; cumulative totals agree.
    EXPECT_GT(b.windows, a.windows);
    EXPECT_EQ(a.meter.committed_per_channel, b.meter.committed_per_channel);
    EXPECT_EQ(a.meter.completed_per_client, b.meter.completed_per_client);
}

TEST(MultiChannelEngine, PoolSizeNeverChangesResults) {
    const ChannelRun setup = small_run(4, 99, 60);
    ThreadPool small(2);
    ThreadPool large(8);
    const harness::MultiChannelResult a = setup.run(&small);
    const harness::MultiChannelResult b = setup.run(&large);
    expect_identical(a, b, "pool 2 vs pool 8");
}

// -- observability ------------------------------------------------------------

TEST(MultiChannelEngine, GaugesArePrefixedPerChannel) {
    MultiChannelNetwork net(NetworkConfig{}, ChannelLayout::uniform(2));
    obs::MetricRegistry registry;
    net.register_metrics(registry);  // duplicate names would throw here
    const auto& names = registry.names();
    const auto has = [&names](const std::string& n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("ch1_txs_valid"));
    EXPECT_TRUE(has("ch2_txs_valid"));
    EXPECT_TRUE(has("ch1_blocks_cut"));
    EXPECT_TRUE(has("ch2_queue_depth_p0"));
    EXPECT_FALSE(has("txs_valid"));  // nothing unprefixed
}

TEST(MultiChannelEngine, MultiChannelTracesCarryChannelTags) {
    ThreadPool pool(2);
    const ChannelRun setup = small_run(2, 11, 40);
    const harness::MultiChannelResult r = setup.run(&pool);
    ASSERT_EQ(r.channels.size(), 2u);
    for (std::size_t i = 0; i < r.channels.size(); ++i) {
        const harness::RunArtifacts& ch = r.channels[i].artifacts;
        ASSERT_FALSE(ch.trace_jsonl.empty());
        const std::string expect =
            "{\"ch\":" +
            std::to_string(setup.layout.resolved_id(setup.spec.config, i).value()) + ",";
        std::istringstream lines(ch.trace_jsonl);
        std::string line;
        while (std::getline(lines, line)) {
            ASSERT_EQ(line.rfind(expect, 0), 0u)
                << "line missing channel tag: " << line;
        }
    }
}

TEST(MultiChannelEngine, MeterTracksCommitsAndJain) {
    const harness::MultiChannelResult r = small_run(2, 3, 100).run();
    std::uint64_t total = 0;
    for (const std::uint64_t c : r.meter.committed_per_channel) total += c;
    EXPECT_EQ(total, 200u);  // both channels drain their whole workload
    EXPECT_GT(r.windows, 0u);
    EXPECT_EQ(r.meter.windows.size(), r.windows);
    EXPECT_GT(r.meter.channel_jain_overall(), 0.9);  // uniform channels
    EXPECT_LE(r.meter.channel_jain_min, 1.0);
    // Endorse CPU accrued on every org, on both channels.
    for (const double cpu : r.meter.endorse_cpu_per_org) EXPECT_GT(cpu, 0.0);
}

}  // namespace
}  // namespace fl::core
