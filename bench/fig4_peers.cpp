// Figure 4 — Effect of increasing the number of peers on relative latency.
//
// Paper setup: peer counts {4, 8, 12}, 500 tps, arrivals 1:2:1, default
// policy 2:3:1.  For each size the latencies are normalized to the average
// latency of the *same size* network without priorities, so the figure shows
// whether the priority machinery's overhead grows with network scale (it
// must not).  The paper also notes absolute latency grows with peer count
// (x2.7 at 8 peers, x4.3 at 12, driven by endorsement collection and
// validation work) — we report the measured absolute ratios too.
//
// Sweep layout: two points per network size (baseline, with-priority),
// paired through a shared seed_group so both see identical arrivals.
#include "fig_common.h"

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli = harness::parse_sweep_cli(argc, argv, 9100, "fig4_peers");
    const unsigned runs = cli.runs_or(3);
    const std::uint64_t total_txs = cli.txs_or(15'000);
    const double rate = 500.0;
    const std::vector<std::uint32_t> peer_counts = {4, 8, 12};

    harness::print_banner(
        std::cout, "Figure 4: number of peers vs relative latency",
        "arrivals 1:2:1 @ 500 tps, policy 2:3:1, per-size no-priority baseline = 1");

    harness::SweepSpec sweep;
    sweep.name = "fig4_peers";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    for (std::size_t s = 0; s < peer_counts.size(); ++s) {
        const std::uint32_t peers = peer_counts[s];
        for (const bool priority : {false, true}) {
            auto cfg = paper_config(priority);
            cfg.orgs = peers;
            sweep.points.push_back(paper_point(
                "peers=" + std::to_string(peers) +
                    (priority ? "/priority" : "/baseline"),
                {{"peers", static_cast<double>(peers)},
                 {"priority_enabled", priority ? 1.0 : 0.0}},
                std::move(cfg), rate, total_txs, runs, /*seed_group=*/s));
        }
    }

    const auto results = run_timed_sweep(sweep, cli);

    harness::Table table({"peers", "high (rel)", "medium (rel)", "low (rel)",
                          "avg (rel)", "abs baseline (s)", "abs vs 4 peers"});
    double four_peer_base = 0.0;
    for (std::size_t s = 0; s < peer_counts.size(); ++s) {
        const auto& baseline = results[2 * s].result;
        const auto& with = results[2 * s + 1].result;

        const double base = baseline.overall_latency.mean();
        if (peer_counts[s] == 4) four_peer_base = base;
        table.add_row({std::to_string(peer_counts[s]),
                       harness::fmt(with.priority_latency(0) / base, 3),
                       harness::fmt(with.priority_latency(1) / base, 3),
                       harness::fmt(with.priority_latency(2) / base, 3),
                       harness::fmt(with.overall_latency.mean() / base, 3),
                       harness::fmt(base, 3),
                       harness::fmt(base / four_peer_base, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n(paper Figure 4: the with-priority overhead stays small and "
                 "flat as peers\n increase; absolute latency grows with peer count "
                 "— paper reports ~2.7x @8\n and ~4.3x @12 on their testbed.)\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
