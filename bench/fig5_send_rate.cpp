// Figure 5 — Relative latency with increasing send rate.
//
// Paper setup: send rates swept around the 500 tps capacity knee, arrivals
// 1:2:1, policy 2:3:1.  At each rate the latencies are normalized to the
// no-priority system *at that same rate*.
//
// Expected shape (paper §5.4):
//   * below 500 tps priorities barely matter (all classes ~ 1);
//   * from 500 tps the high class drops below 1, the low class climbs;
//   * the overhead gap between the with-priority system average and the
//     baseline shrinks as the rate grows.
//
// Sweep layout: two points per rate (baseline, with-priority), paired
// through a shared seed_group.  This is the sweep the determinism
// regression test mirrors (tests/harness/sweep_test.cpp): the JSON output
// here is byte-identical across --threads for a fixed --seed.
#include "fig_common.h"

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli = harness::parse_sweep_cli(argc, argv, 9200, "fig5_send_rate");
    const unsigned runs = cli.runs_or(3);
    const std::uint64_t total_txs = cli.txs_or(15'000);
    const std::vector<double> rates = {250.0, 400.0, 500.0, 625.0, 750.0, 1000.0};

    harness::print_banner(
        std::cout, "Figure 5: send rate vs relative latency",
        "arrivals 1:2:1, policy 2:3:1, per-rate no-priority baseline = 1");

    harness::SweepSpec sweep;
    sweep.name = "fig5_send_rate";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    for (std::size_t s = 0; s < rates.size(); ++s) {
        for (const bool priority : {false, true}) {
            sweep.points.push_back(paper_point(
                "rate=" + harness::fmt(rates[s], 0) +
                    (priority ? "/priority" : "/baseline"),
                {{"send_rate", rates[s]},
                 {"priority_enabled", priority ? 1.0 : 0.0}},
                paper_config(priority), rates[s], total_txs, runs,
                /*seed_group=*/s));
        }
    }

    const auto results = run_timed_sweep(sweep, cli);

    harness::Table table({"send rate (tps)", "high (rel)", "medium (rel)",
                          "low (rel)", "system avg (rel)", "baseline avg (s)"});
    for (std::size_t s = 0; s < rates.size(); ++s) {
        const auto& baseline = results[2 * s].result;
        const auto& with = results[2 * s + 1].result;
        const double base = baseline.overall_latency.mean();
        table.add_row({harness::fmt(rates[s], 0),
                       harness::fmt(with.priority_latency(0) / base, 3),
                       harness::fmt(with.priority_latency(1) / base, 3),
                       harness::fmt(with.priority_latency(2) / base, 3),
                       harness::fmt(with.overall_latency.mean() / base, 3),
                       harness::fmt(base, 3)});
    }
    table.print(std::cout);
    std::cout << "\n(paper Figure 5: below 500 tps priorities don't help — the "
                 "system is under\n capacity; from 500 tps high-priority "
                 "transactions benefit, and the relative\n overhead of the scheme "
                 "shrinks as the send rate grows.)\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
