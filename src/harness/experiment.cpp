#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "harness/sweep.h"
#include "obs/trace.h"

namespace fl::harness {

std::unique_ptr<obs::audit::AuditAccountant> make_audit(
    obs::audit::AuditConfig config, const policy::ChannelConfig& channel) {
    if (config.level_weights.empty()) {
        config.level_weights = channel.priority_enabled
                                   ? channel.block_policy.fractions()
                                   : std::vector<double>{1.0};
    }
    return std::make_unique<obs::audit::AuditAccountant>(std::move(config));
}

RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                   unsigned run_index) {
    core::NetworkConfig config = spec.config;
    config.seed = seed;
    obs::TraceSink trace;  // outlives the network that points at it
    core::FabricNetwork net(config);

    RunResult result;
    std::uint64_t sink_records = 0;
    net.set_tx_sink([&result, &spec, &net, &sink_records](const client::TxRecord& r) {
        ++sink_records;
        result.metrics.record(r);
        if (spec.tx_probe) spec.tx_probe(r, net, result.extra);
    });

    // Attach the audit before any traffic: it is purely observational (no
    // events scheduled, no rng draws), so results are identical either way.
    std::unique_ptr<obs::audit::AuditAccountant> audit;
    if (spec.audit) {
        audit = make_audit(*spec.audit, config.channel);
        net.set_audit(audit.get());
    }

    Workload workload = spec.make_workload();
    WorkloadDriver driver(net, std::move(workload), Rng(seed ^ 0x574B4C44ull));
    driver.start();
    if (spec.capture_trace) net.set_trace_sink(&trace);
    // Instrument after the workload is scheduled: a sampling recorder armed
    // against an empty event queue would never fire (it only re-arms while
    // other events are pending, so the sim can drain).
    if (spec.instrument) spec.instrument(net, run_index);
    const auto drain_started = std::chrono::steady_clock::now();
    net.run();
    result.drain_wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - drain_started)
                              .count();

    if (audit) {
        audit->finalize(net.simulator().now());
        result.audit = audit->report();
    }
    // Probes see the network after the checker and before the artifact
    // fingerprints: world-state read-lock counters (scale_state) count every
    // fingerprint taken, so this order is part of the byte contract.
    std::vector<std::string> violations = core::check_invariants(net, sink_records);
    if (spec.run_probe) spec.run_probe(net, result.extra);

    result.artifacts =
        capture_artifacts(net, result.metrics, result.audit ? &*result.audit : nullptr,
                          spec.capture_trace ? &trace : nullptr, std::move(violations));
    result.txs_invalid = net.peers().front()->txs_invalid();
    for (const auto& osn : net.osns()) {
        result.consolidation_failures += osn->consolidation_failures();
    }
    result.level_totals = net.osns().front()->level_totals();
    return result;
}

AggregateResult run_experiment(const ExperimentSpec& spec) {
    if (!spec.make_workload) {
        throw std::invalid_argument("run_experiment: no workload factory");
    }
    if (spec.runs == 0) {
        throw std::invalid_argument("run_experiment: runs must be >= 1");
    }
    AggregateResult agg;
    for (unsigned run = 0; run < spec.runs; ++run) {
        const RunResult r = run_once(spec, spec.base_seed + run, run);

        agg.overall_latency.add_run(r.metrics.avg_latency());
        agg.throughput_tps.add_run(r.metrics.throughput_tps());
        agg.blocks_per_run.add_run(static_cast<double>(r.artifacts.blocks));
        for (const auto& [level, hist] : r.metrics.by_priority()) {
            agg.latency_by_priority[level].add_run(hist.mean());
        }
        for (const auto& [cid, hist] : r.metrics.by_client()) {
            agg.latency_by_client[cid.value()].add_run(hist.mean());
        }
        for (const auto& [level, phases] : r.metrics.phases_by_priority()) {
            PhaseAggregate& pa = agg.phases_by_priority[level];
            pa.endorsement.add_run(phases.endorsement.mean());
            pa.ordering.add_run(phases.ordering.mean());
            pa.validation.add_run(phases.validation.mean());
            pa.notification.add_run(phases.notification.mean());
        }
        for (const auto& [key, value] : r.extra) {
            agg.extra[key].add_run(value);
        }
        agg.total_committed += r.metrics.committed_valid();
        agg.total_invalid += r.metrics.committed_invalid();
        agg.total_client_failures += r.metrics.client_failures();
        agg.total_consolidation_failures += r.consolidation_failures;
        for (const std::string& v : r.artifacts.violations) {
            if (std::find(agg.violations.begin(), agg.violations.end(), v) ==
                agg.violations.end()) {
                agg.violations.push_back(v);
            }
        }
        if (r.audit) agg.audit_reports.push_back(*r.audit);
        if (spec.keep_run_metrics) {
            agg.run_metrics_json.push_back(r.artifacts.metrics_json);
        }
    }
    return agg;
}

double AggregateResult::extra_mean(const std::string& key) const {
    const auto it = extra.find(key);
    return it == extra.end() ? 0.0 : it->second.mean();
}

double AggregateResult::extra_total(const std::string& key) const {
    const auto it = extra.find(key);
    if (it == extra.end()) return 0.0;
    return it->second.mean() * static_cast<double>(it->second.runs());
}

namespace {
/// A count from the environment, held to the --runs/--txs contract:
/// digits only and >= 1, else a message and exit 2.  Unset or empty means
/// `fallback`.
std::uint64_t env_count(const char* name, std::uint64_t fallback) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    const std::optional<std::uint64_t> v = parse_cli_u64(raw);
    if (!v) {
        std::cerr << name << ": not a non-negative integer: " << raw << "\n";
        std::exit(2);
    }
    if (*v == 0) {
        std::cerr << name << ": must be >= 1\n";
        std::exit(2);
    }
    return *v;
}
}  // namespace

unsigned runs_from_env(unsigned default_runs) {
    return static_cast<unsigned>(env_count("FAIRLEDGER_RUNS", default_runs));
}

std::uint64_t total_txs_from_env(std::uint64_t default_total) {
    return env_count("FAIRLEDGER_TOTAL_TXS", default_total);
}

}  // namespace fl::harness
