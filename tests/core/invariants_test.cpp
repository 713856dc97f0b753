// core::check_invariants and the harness::RunArtifacts bundle: a safe run
// reports nothing, each kind of damage reports its stable name, run_once
// surfaces the verdict, and harness::diff names exactly the fields that
// differ.
#include "core/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace fl::core {
namespace {

using Names = std::vector<std::string>;

/// 2 orgs, 2 OSNs, 2 clients at 100 tps each.  With `dead_osn`, OSN 0
/// crashes at 500 ms and never restarts, and clients do not retry, so the
/// transactions it swallowed never terminate.
harness::ExperimentSpec small_spec(bool dead_osn = false, std::uint64_t total = 120) {
    harness::ExperimentSpec spec;
    spec.config.orgs = 2;
    spec.config.osns = 2;
    spec.config.clients = 2;
    spec.config.channel.block_size = 20;
    spec.config.channel.block_timeout = Duration::millis(200);
    if (dead_osn) {
        spec.config.client_params.retry.enabled = false;
        spec.config.faults.schedule = {
            {Duration::millis(500), fault::FaultKind::kOsnCrash, 0}};
    }
    spec.make_workload = [total] {
        harness::Workload w;
        for (std::size_t c = 0; c < 2; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = 100.0;
            load.generate = harness::priority_class_mix({1, 2, 1});
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(total);
        return w;
    };
    spec.runs = 1;
    return spec;
}

bool contains(const Names& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(InvariantsTest, FaultFreeRunHasNoViolations) {
    const harness::RunResult r = harness::run_once(small_spec(), 7);
    EXPECT_GT(r.metrics.committed_valid(), 0u);
    EXPECT_EQ(r.artifacts.violations, Names{});
}

TEST(InvariantsTest, DeadOsnLeavesClientsPendingButNoDivergence) {
    harness::ExperimentSpec spec = small_spec(/*dead_osn=*/true);
    bool osn0_dead = false;
    spec.run_probe = [&osn0_dead](FabricNetwork& net, std::map<std::string, double>&) {
        osn0_dead = !net.osns()[0]->alive();
    };
    const Names v = harness::run_once(spec, 7).artifacts.violations;
    ASSERT_TRUE(osn0_dead);
    EXPECT_TRUE(contains(v, "client_left_pending"));
    // A dead OSN just stopped early: no divergence of any kind.
    for (const char* name : {"osn_block_divergence", "osn_block_divergence_final",
                             "peer_chain_divergence", "broken_hash_chain",
                             "double_commit"}) {
        EXPECT_FALSE(contains(v, name)) << name;
    }
}

TEST(InvariantsTest, SinkRecordMismatchIsReported) {
    harness::ExperimentSpec spec = small_spec();
    Names exact, one_more, one_less;
    spec.run_probe = [&](FabricNetwork& net, std::map<std::string, double>&) {
        std::uint64_t submitted = 0;
        for (const auto& c : net.clients()) submitted += c->submitted();
        exact = check_invariants(net, submitted);
        one_more = check_invariants(net, submitted + 1);
        one_less = check_invariants(net, submitted - 1);
    };
    (void)harness::run_once(spec, 11);
    EXPECT_EQ(exact, Names{});
    EXPECT_EQ(one_more, Names{"sink_accounting"});
    EXPECT_EQ(one_less, Names{"sink_accounting"});
}

TEST(InvariantsTest, RunOnceSurfacesViolationsAndClearsAllConsistent) {
    const harness::ExperimentSpec spec = small_spec(/*dead_osn=*/true);
    EXPECT_TRUE(contains(harness::run_once(spec, 3).artifacts.violations,
                         "client_left_pending"));
    const harness::AggregateResult agg = harness::run_experiment(spec);
    EXPECT_FALSE(agg.all_consistent());
    EXPECT_TRUE(contains(agg.violations, "client_left_pending"));
    EXPECT_TRUE(harness::run_experiment(small_spec()).all_consistent());
}

TEST(RunArtifactsTest, DiffIsEmptyForRerunsAndNamesEachChangedField) {
    harness::ExperimentSpec spec = small_spec(false, 60);
    spec.capture_trace = true;
    const harness::RunArtifacts a = harness::run_once(spec, 5).artifacts;
    EXPECT_EQ(harness::diff(a, harness::run_once(spec, 5).artifacts), Names{});
    EXPECT_FALSE(a.metrics_json.empty());
    EXPECT_FALSE(a.trace_jsonl.empty());
    EXPECT_GT(a.blocks, 0u);
    EXPECT_GT(a.events_executed, 0u);

    const auto expect_only = [&a](const char* field, auto mutate) {
        harness::RunArtifacts changed = a;
        mutate(changed);
        EXPECT_EQ(harness::diff(a, changed), Names{field});
    };
    expect_only("metrics_json", [](auto& x) { x.metrics_json += " "; });
    expect_only("trace_jsonl", [](auto& x) { x.trace_jsonl.clear(); });
    expect_only("chain_fingerprint", [](auto& x) { ++x.chain_fingerprint; });
    expect_only("state_fingerprint", [](auto& x) { ++x.state_fingerprint; });
    expect_only("blocks", [](auto& x) { ++x.blocks; });
    expect_only("events_executed", [](auto& x) { ++x.events_executed; });
    expect_only("violations", [](auto& x) { x.violations.push_back("double_commit"); });

    // A different seed changes the run itself, not just one field.
    EXPECT_TRUE(contains(harness::diff(a, harness::run_once(spec, 6).artifacts),
                         "metrics_json"));
}

}  // namespace
}  // namespace fl::core
