// Fairness-audit gate: replays the Figure 6 flooding scenario plus a
// starvation adversary with the obs/audit accountant attached, and checks
// that the online detectors fire exactly when they should.
//
// Four points, two seed-paired scenarios:
//   flood/fair        C1 floods at 800 tps, policy 1:1:1, priority on —
//                     the fair system must protect C2/C3 (per-resource Jain
//                     over the non-flooding clients >= 0.95), with zero
//                     priority inversions, alarms or starvation incidents.
//   flood/fifo        same load, priority off — the unfairness alarm must
//                     trip (Jain below threshold for K consecutive windows).
//   starve/besteffort C3 trickles at 50 tps into a weight-0 best-effort
//                     level while C1/C2 saturate the orderer — the
//                     starvation watchdog must report C3.
//   starve/protected  same load under 1:1:1 — no starvation.
//
// Exit status: 0 iff every gate holds in every run; 1 otherwise (the CI
// fairness-audit job also cmp's the JSON across --threads 1 vs 4).
#include "fig_common.h"

#include "obs/audit/fairness.h"

namespace {

// Fig-6 network: policy per scenario, one priority class per client.
fl::core::NetworkConfig audit_config_for(bool priority_enabled,
                                         const std::string& policy) {
    auto cfg = fl::bench::paper_config(priority_enabled, policy);
    cfg.calculator_factory = [] {
        return std::make_unique<fl::peer::ClientClassCalculator>(
            std::unordered_map<fl::ClientId, fl::PriorityLevel>{
                {fl::ClientId{0}, 0}, {fl::ClientId{1}, 1}, {fl::ClientId{2}, 2}},
            0);
    };
    return cfg;
}

fl::harness::ExperimentPoint audit_point(std::string label, bool priority_enabled,
                                         const std::string& policy,
                                         std::vector<double> tps, unsigned runs,
                                         std::uint64_t total_txs,
                                         std::uint64_t seed_group) {
    fl::harness::ExperimentPoint point;
    point.label = std::move(label);
    point.params = {{"priority_enabled", priority_enabled ? 1.0 : 0.0},
                    {"c1_tps", tps[0]},
                    {"c2_tps", tps[1]},
                    {"c3_tps", tps[2]}};
    point.spec.config = audit_config_for(priority_enabled, policy);
    point.spec.make_workload = [tps, total_txs] {
        fl::harness::Workload w;
        for (std::size_t c = 0; c < tps.size(); ++c) {
            fl::harness::LoadSpec load;
            load.client_index = c;
            load.tps = tps[c];
            load.generate = fl::harness::single_chaincode("record_keeper");
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(total_txs);
        return w;
    };
    point.spec.runs = runs;
    point.spec.keep_run_metrics = true;
    // 2 s windows: block formation quantizes service into ~1 s bursts, so a
    // 1 s window would see sawtooth shares and flap the detectors.
    fl::obs::audit::AuditConfig audit;
    audit.window = fl::Duration::millis(2000);
    point.spec.audit = audit;
    point.seed_group = seed_group;
    return point;
}

struct Gate {
    std::string point;
    std::string check;
    double value = 0.0;
    std::string bound;
    bool pass = false;
};

double client_share(const fl::obs::audit::ResourceReport& r, std::uint64_t client) {
    const auto it = r.by_client.find(client);
    return it == r.by_client.end() ? 0.0 : it->second;
}

/// Jain's index over the non-flooding clients' cumulative shares of one
/// resource — the paper's flooding-protection claim, per resource meter.
double victim_jain(const fl::obs::audit::ResourceReport& r) {
    return fl::obs::audit::jain_index({client_share(r, 1), client_share(r, 2)});
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fl;
    using namespace fl::bench;

    const auto cli = harness::parse_sweep_cli(argc, argv, 4200, "audit_fairness");
    const unsigned runs = cli.runs_or(1);
    const std::uint64_t total = cli.txs_or(9'000);

    harness::print_banner(
        std::cout, "Fairness audit: flooding + starvation adversaries, gated",
        "detectors must stay quiet under fairness and fire without it");

    harness::SweepSpec sweep;
    sweep.name = "audit_fairness";
    sweep.base_seed = cli.base_seed;
    sweep.threads = cli.threads;
    sweep.points.push_back(audit_point("flood/fair", true, "1:1:1",
                                       {800.0, 100.0, 100.0}, runs, total,
                                       /*seed_group=*/0));
    sweep.points.push_back(audit_point("flood/fifo", false, "1:1:1",
                                       {800.0, 100.0, 100.0}, runs, total,
                                       /*seed_group=*/0));
    sweep.points.push_back(audit_point("starve/besteffort", true, "1:1:0",
                                       {300.0, 300.0, 50.0}, runs, total,
                                       /*seed_group=*/1));
    sweep.points.push_back(audit_point("starve/protected", true, "1:1:1",
                                       {300.0, 300.0, 50.0}, runs, total,
                                       /*seed_group=*/1));

    const auto results = run_timed_sweep(sweep, cli);

    std::vector<Gate> gates;
    const auto add = [&gates](const std::string& point, const std::string& check,
                              double value, const std::string& bound, bool pass) {
        gates.push_back({point, check, value, bound, pass});
    };
    for (const auto& point : results) {
        for (const auto& audit : point.result.audit_reports) {
            const auto& label = point.label;
            const double inversions =
                static_cast<double>(audit.priority_inversions);
            add(label, "priority_inversions", inversions, "== 0",
                audit.priority_inversions == 0);
            if (label == "flood/fair") {
                for (std::size_t r = 0; r < audit.resources.size(); ++r) {
                    const double j = victim_jain(audit.resources[r]);
                    const auto kind = static_cast<obs::audit::ResourceKind>(r);
                    add(label,
                        std::string("victim_jain(") + obs::audit::to_string(kind) +
                            ")",
                        j, ">= 0.95", j >= 0.95);
                }
                add(label, "alarm_trips",
                    static_cast<double>(audit.alarm_trips), "== 0",
                    audit.alarm_trips == 0);
                add(label, "starvation_incidents",
                    static_cast<double>(audit.starvation_incidents), "== 0",
                    audit.starvation_incidents == 0);
            } else if (label == "flood/fifo") {
                add(label, "alarm_trips",
                    static_cast<double>(audit.alarm_trips), ">= 1",
                    audit.alarm_trips >= 1);
            } else if (label == "starve/besteffort") {
                add(label, "starvation_incidents",
                    static_cast<double>(audit.starvation_incidents), ">= 1",
                    audit.starvation_incidents >= 1);
                add(label, "starved_client_2",
                    audit.starved_clients.count(2) != 0 ? 1.0 : 0.0, "== 1",
                    audit.starved_clients.count(2) != 0);
            } else if (label == "starve/protected") {
                add(label, "starvation_incidents",
                    static_cast<double>(audit.starvation_incidents), "== 0",
                    audit.starvation_incidents == 0);
            }
        }
    }

    harness::Table table({"point", "gate", "value", "bound", "status"});
    bool all_pass = true;
    for (const auto& g : gates) {
        all_pass = all_pass && g.pass;
        table.add_row({g.point, g.check, harness::fmt(g.value, 3), g.bound,
                       g.pass ? "PASS" : "FAIL"});
    }
    table.print(std::cout);
    std::cout << "\n" << (all_pass ? "all fairness-audit gates hold\n"
                                   : "FAIL: fairness-audit gate violated\n");

    harness::emit_sweep_json(cli, sweep, results, std::cout);
    return all_pass ? 0 : 1;
}
