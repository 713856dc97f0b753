// Ablation A5 — fault injection and graceful degradation (DESIGN.md §11).
//
// Runs the paper pipeline under increasingly hostile deterministic fault
// mixes — message drop/duplication/delay, OSN crash + replay recovery,
// endorser outages survived by the k-of-n policy, broker unavailability.
// Like every bench, each run is checked by core::check_invariants
// (prefix-consistent OSN block sequences, verified hash chains, no double
// commit, exactly one terminal state per submission) and the process exits
// non-zero on any violation, so this bench doubles as the chaos gate in CI.
// Because every fault is driven by the simulated clock and the seeded fault
// RNG streams, the JSON output is byte-identical at any --threads value.
#include "fig_common.h"

namespace {

using namespace fl;

client::RetryParams chaos_retry() {
    client::RetryParams retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(500);
    retry.max_endorse_retries = 3;
    retry.commit_timeout = Duration::seconds(3);
    retry.max_resubmissions = 3;
    retry.backoff_base = Duration::millis(100);
    return retry;
}

sim::MessageFaultParams chaos_messages() {
    sim::MessageFaultParams m;
    m.drop_prob = 0.02;
    m.dup_prob = 0.02;
    m.delay_prob = 0.05;
    m.delay_mean = Duration::millis(50);
    return m;
}

/// Post-run probe: the degradation counters of the drained network.
void chaos_probe(core::FabricNetwork& net, std::map<std::string, double>& extra) {
    for (const auto& osn : net.osns()) {
        extra["osn_crashes"] += static_cast<double>(osn->crashes());
    }
    for (const auto& c : net.clients()) {
        extra["endorse_retries"] += static_cast<double>(c->endorse_retries());
        extra["resubmissions"] += static_cast<double>(c->resubmissions());
    }
    extra["messages_dropped"] = static_cast<double>(net.network().messages_dropped());
    extra["faults_applied"] = static_cast<double>(net.faults_applied());
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli = harness::parse_sweep_cli(argc, argv, 6000, "ablation_faults");
    const unsigned runs = cli.runs_or(2);
    const std::uint64_t total_txs = cli.txs_or(6'000);
    const double total_tps = 300.0;
    const Duration horizon =
        Duration::from_seconds(static_cast<double>(total_txs) / total_tps);

    harness::print_banner(
        std::cout, "Ablation A5: fault injection and graceful degradation",
        "2:3:1 @ 300 tps, k-of-n endorsement (k=2), client retry enabled");

    // Every point shares the baseline arrival process (same seed group) and
    // the same retry config; only the fault mix varies.
    struct Mix {
        const char* label;
        fault::FaultSpec faults;
    };
    std::vector<Mix> mixes;
    mixes.push_back({"none", {}});
    {
        fault::FaultSpec f;
        f.messages = chaos_messages();
        mixes.push_back({"msg_faults", std::move(f)});
    }
    {
        fault::FaultSpec f;
        fault::FaultProfile p;
        p.horizon = horizon;
        p.expected_osn_crashes = 2.0;
        p.osn_downtime_mean = Duration::seconds(2);
        f.profile = p;
        mixes.push_back({"osn_crash", std::move(f)});
    }
    {
        fault::FaultSpec f;
        fault::FaultProfile p;
        p.horizon = horizon;
        p.expected_endorser_outages = 2.0;
        p.endorser_downtime_mean = Duration::seconds(1);
        p.expected_endorser_slowdowns = 1.0;
        p.endorser_slow_mean = Duration::seconds(2);
        f.profile = p;
        mixes.push_back({"endorser_outage", std::move(f)});
    }
    {
        fault::FaultSpec f;
        f.messages = chaos_messages();
        fault::FaultProfile p;
        p.horizon = horizon;
        p.expected_osn_crashes = 1.0;
        p.osn_downtime_mean = Duration::seconds(2);
        p.expected_endorser_outages = 1.0;
        p.endorser_downtime_mean = Duration::seconds(1);
        p.expected_broker_outages = 1.0;
        p.broker_outage_mean = Duration::millis(500);
        f.profile = p;
        mixes.push_back({"combined", std::move(f)});
    }

    harness::SweepSpec sweep;
    sweep.name = "ablation_faults";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        auto cfg = paper_config(true);
        cfg.endorsement_k = 2;
        cfg.client_params.retry = chaos_retry();
        cfg.faults = mixes[i].faults;
        harness::ExperimentPoint point = paper_point(
            mixes[i].label, {{"mix", static_cast<double>(i)}}, std::move(cfg),
            total_tps, total_txs, runs, /*seed_group=*/0);
        point.spec.run_probe = chaos_probe;
        sweep.points.push_back(std::move(point));
    }

    const auto results = run_timed_sweep(sweep, cli);

    harness::Table table({"fault mix", "committed", "failed", "endorse retries",
                          "resubmissions", "msgs dropped", "faults"});
    for (const auto& pr : results) {
        const auto& r = pr.result;
        table.add_row(
            {pr.label,
             std::to_string(r.total_committed + r.total_invalid),
             std::to_string(r.total_client_failures),
             harness::fmt(r.extra_total("endorse_retries"), 0),
             harness::fmt(r.extra_total("resubmissions"), 0),
             harness::fmt(r.extra_total("messages_dropped"), 0),
             harness::fmt(r.extra_total("faults_applied"), 0)});
    }
    table.print(std::cout);
    std::cout << "\nEvery run passed core::check_invariants: prefix-consistent "
                 "OSN block\nsequences, verified hash chains, no double commits, "
                 "every submission in\nexactly one terminal state.\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
