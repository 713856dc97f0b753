// Figure 3 — Effect of Block Formation Policy on relative transaction latency.
//
// Paper setup: arrival ratio 1:2:1 at 500 tps, block size 500, timeout 1 s,
// policies {1:2:1, 1:1:1, 2:3:1, 3:5:1}.  Every latency is normalized to the
// average latency of the same system *without* priorities (the y=1 baseline
// line in the figure).
//
// Expected shape (paper §5.2):
//   * policy == arrival ratio (1:2:1): all classes ~= 1 (small overhead);
//   * 2:3:1 / 3:5:1: high (and medium) below 1, low above 1;
//   * the farther the policy skews from the arrival ratio, the higher the
//     overall system average.
//
// Sweep layout: point 0 is the shared no-priority baseline, points 1..4 the
// policies.  All points share seed_group 0 so every policy faces the exact
// arrival process the baseline saw.
#include "fig_common.h"

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli =
        harness::parse_sweep_cli(argc, argv, 9000, "fig3_block_policy");
    const unsigned runs = cli.runs_or(3);
    const std::uint64_t total_txs = cli.txs_or(15'000);
    const double rate = 500.0;
    const std::vector<std::string> policies = {"1:2:1", "1:1:1", "2:3:1",
                                               "3:5:1"};

    harness::print_banner(
        std::cout, "Figure 3: block formation policy vs relative latency",
        "arrivals 1:2:1 @ " + harness::fmt(rate, 0) + " tps, BS=500, timeout=1s, " +
            std::to_string(runs) + " runs x " + std::to_string(total_txs) + " txs");

    harness::SweepSpec sweep;
    sweep.name = "fig3_block_policy";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    sweep.points.push_back(paper_point(
        "baseline/no-priority", {{"priority_enabled", 0.0}, {"send_rate", rate}},
        paper_config(false), rate, total_txs, runs, /*seed_group=*/0));
    for (const std::string& policy : policies) {
        sweep.points.push_back(paper_point(
            "policy=" + policy, {{"priority_enabled", 1.0}, {"send_rate", rate}},
            paper_config(true, policy), rate, total_txs, runs, /*seed_group=*/0));
    }

    const auto results = run_timed_sweep(sweep, cli);

    // Shared baseline: the same system without priorities.
    const double base = results[0].result.overall_latency.mean();
    std::cout << "baseline (no priority) avg latency: " << harness::fmt(base, 3)
              << " s  [all rows below normalized to this = 1.0]\n\n";

    harness::Table table({"block policy", "high (rel)", "medium (rel)", "low (rel)",
                          "system avg (rel)", "throughput (tps)"});
    for (std::size_t i = 1; i < results.size(); ++i) {
        const auto& r = results[i].result;
        table.add_row({policies[i - 1], harness::fmt(r.priority_latency(0) / base, 3),
                       harness::fmt(r.priority_latency(1) / base, 3),
                       harness::fmt(r.priority_latency(2) / base, 3),
                       harness::fmt(r.overall_latency.mean() / base, 3),
                       harness::fmt(r.throughput_tps.mean(), 1)});
    }
    table.print(std::cout);
    std::cout << "\n(paper Figure 3: with policy 1:2:1 all classes sit just above "
                 "the baseline;\n 2:3:1 and 3:5:1 push high/medium below 1 at the "
                 "cost of low; skewing away\n from the arrival ratio raises the "
                 "overall average.)\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
