// Figure 6 — Resource fairness: relative latency as one client floods.
//
// Paper setup (§5.5): three clients C1, C2, C3, one priority class each,
// equal fair shares (block formation policy 1:1:1 — "an equal weight if
// equality is desired").  All start at 100 tps; C1's rate then rises by
// 100 tps per run up to 500 tps.  Latencies are normalized to the average
// latency of the no-priority system at the initial 100/100/100 load.
//
// Expected shape: without priority every client's latency climbs as C1
// floods (unfair); with the fair-queueing system C2/C3 remain flat at ~1 and
// only C1 pays.
//
// Sweep layout: point 0 is the calm 100/100/100 no-priority normalizer;
// then two points per C1 rate (FIFO, fair) paired through seed_group.
#include "fig_common.h"

namespace {

fl::core::NetworkConfig fairness_config(bool priority_enabled) {
    auto cfg = fl::bench::paper_config(priority_enabled, "1:1:1");
    cfg.calculator_factory = [] {
        return std::make_unique<fl::peer::ClientClassCalculator>(
            std::unordered_map<fl::ClientId, fl::PriorityLevel>{
                {fl::ClientId{0}, 0}, {fl::ClientId{1}, 1}, {fl::ClientId{2}, 2}},
            0);
    };
    return cfg;
}

fl::harness::ExperimentPoint flood_point(bool priority_enabled, double c1_tps,
                                         unsigned runs, std::uint64_t total_txs,
                                         std::uint64_t seed_group) {
    fl::harness::ExperimentPoint point;
    point.label = "c1=" + fl::harness::fmt(c1_tps, 0) +
                  (priority_enabled ? "/fair" : "/fifo");
    point.params = {{"c1_tps", c1_tps},
                    {"priority_enabled", priority_enabled ? 1.0 : 0.0}};
    point.spec.config = fairness_config(priority_enabled);
    point.spec.make_workload = [c1_tps, total_txs] {
        fl::harness::Workload w;
        for (std::size_t c = 0; c < 3; ++c) {
            fl::harness::LoadSpec load;
            load.client_index = c;
            load.tps = c == 0 ? c1_tps : 100.0;
            // All clients run the same record-keeping contract: only *who
            // submits* differs, as in the paper's flooding scenario.
            load.generate = fl::harness::single_chaincode("record_keeper");
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(total_txs);
        return w;
    };
    point.spec.runs = runs;
    point.seed_group = seed_group;
    return point;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli = harness::parse_sweep_cli(argc, argv, 9300, "fig6_fairness");
    const unsigned runs = cli.runs_or(3);
    // Scale the per-run volume with the offered load (paper: fixed wall
    // duration per run); 15000 txs at the 300 tps starting point ~ 50 s.
    const std::uint64_t base_total = cli.txs_or(15'000);
    const std::vector<double> c1_rates = {100.0, 200.0, 300.0, 400.0, 500.0};

    harness::print_banner(
        std::cout, "Figure 6: one client floods (C1), per-client relative latency",
        "policy 1:1:1, one class per client; baseline = no-priority @ 100 tps each");

    harness::SweepSpec sweep;
    sweep.name = "fig6_fairness";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    // Normalization: no-priority system at the initial 100/100/100 load.
    sweep.points.push_back(
        flood_point(false, 100.0, runs, base_total / 3, /*seed_group=*/0));
    for (std::size_t s = 0; s < c1_rates.size(); ++s) {
        const std::uint64_t total = static_cast<std::uint64_t>(
            static_cast<double>(base_total) * (c1_rates[s] + 200.0) / 900.0);
        sweep.points.push_back(
            flood_point(false, c1_rates[s], runs, total, /*seed_group=*/s + 1));
        sweep.points.push_back(
            flood_point(true, c1_rates[s], runs, total, /*seed_group=*/s + 1));
    }

    const auto results = run_timed_sweep(sweep, cli);

    const double base = results[0].result.overall_latency.mean();
    std::cout << "baseline (no priority, 100 tps each) avg latency: "
              << harness::fmt(base, 3) << " s\n\n";

    harness::Table table({"C1 rate (tps)", "noprio C1", "noprio C2", "noprio C3",
                          "fair C1", "fair C2", "fair C3"});
    for (std::size_t s = 0; s < c1_rates.size(); ++s) {
        const auto& noprio = results[1 + 2 * s].result;
        const auto& fair = results[2 + 2 * s].result;
        table.add_row({harness::fmt(c1_rates[s], 0),
                       harness::fmt(noprio.client_latency(0) / base, 3),
                       harness::fmt(noprio.client_latency(1) / base, 3),
                       harness::fmt(noprio.client_latency(2) / base, 3),
                       harness::fmt(fair.client_latency(0) / base, 3),
                       harness::fmt(fair.client_latency(1) / base, 3),
                       harness::fmt(fair.client_latency(2) / base, 3)});
    }
    table.print(std::cout);
    std::cout << "\n(paper Figure 6: without priority C2/C3 suffer as C1 floods; "
                 "with resource\n fairness C2/C3 stay flat and only C1's latency "
                 "rises — flooding protection.)\n";
    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return 0;
}
