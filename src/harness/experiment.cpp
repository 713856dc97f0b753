#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

namespace {

/// The one network lifecycle, applied to every network of a run: attach
/// the observers, drain all networks with `drain`, collect.  run_once
/// passes one network and run_multi_channel one per channel, so the order
/// here is the byte contract for both.  A network's instrument index is
/// `first_index` plus its position.
std::vector<RunResult> drive(const ExperimentSpec& spec,
                             const std::vector<core::FabricNetwork*>& nets,
                             unsigned first_index, const std::function<void()>& drain) {
    if (!spec.make_workload) throw std::invalid_argument("harness: no workload factory");
    const std::size_t n = nets.size();
    std::vector<RunResult> results(n);  // stable slots: the tx sinks write into them
    std::vector<std::uint64_t> sink_records(n, 0);
    std::vector<std::unique_ptr<obs::audit::AuditAccountant>> audits(n);
    std::vector<obs::TraceSink> traces(n);
    std::vector<std::unique_ptr<WorkloadDriver>> drivers;
    for (std::size_t i = 0; i < n; ++i) {
        core::FabricNetwork& net = *nets[i];
        net.set_tx_sink([&spec, &net, &result = results[i],
                         &records = sink_records[i]](const client::TxRecord& r) {
            ++records;
            result.metrics.record(r);
            if (spec.tx_probe) spec.tx_probe(r, net, result.extra);
        });
        // Attach the audit before any traffic: it is purely observational (no
        // events scheduled, no rng draws), so results are identical either way.
        if (spec.audit) {
            audits[i] = make_audit(*spec.audit, net.config().channel);
            net.set_audit(audits[i].get());
        }
        drivers.push_back(std::make_unique<WorkloadDriver>(
            net, spec.make_workload(), Rng(net.config().seed ^ 0x574B4C44ull)));
        drivers.back()->start();
        if (spec.capture_trace) {
            // Tag only real multi-channel traces: a 1-channel capture stays
            // byte-identical to run_once's.
            if (n > 1) traces[i].set_channel(net.config().channel.id.value());
            net.set_trace_sink(&traces[i]);
        }
        // Instrument after the workload is scheduled: a sampling recorder
        // armed against an empty event queue would never fire (it only
        // re-arms while other events are pending, so the sim can drain).
        if (spec.instrument) spec.instrument(net, first_index + static_cast<unsigned>(i));
    }

    const auto drain_started = std::chrono::steady_clock::now();
    drain();
    const double drain_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - drain_started)
            .count();

    for (std::size_t i = 0; i < n; ++i) {
        core::FabricNetwork& net = *nets[i];
        RunResult& result = results[i];
        // The last executed event is what now() reads after a plain run();
        // the windowed engine's now() stops at the window boundary instead.
        if (audits[i]) {
            audits[i]->finalize(net.last_event_at());
            result.audit = audits[i]->report();
        }
        // Probes see the network after the checker and before the artifact
        // fingerprints: world-state read-lock counters (scale_state) count
        // every fingerprint taken, so this order is part of the byte contract.
        std::vector<std::string> violations = core::check_invariants(net, sink_records[i]);
        if (spec.run_probe) spec.run_probe(net, result.extra);
        result.artifacts =
            capture_artifacts(net, result.metrics, result.audit ? &*result.audit : nullptr,
                              spec.capture_trace ? &traces[i] : nullptr, std::move(violations));
        result.txs_invalid = net.peers().front()->txs_invalid();
        for (const auto& osn : net.osns()) {
            result.consolidation_failures += osn->consolidation_failures();
        }
        result.level_totals = net.osns().front()->level_totals();
        result.drain_wall_s = drain_wall_s;
    }
    return results;
}

}  // namespace

RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                   unsigned run_index) {
    core::NetworkConfig config = spec.config;
    config.seed = seed;
    core::FabricNetwork net(std::move(config));
    return std::move(drive(spec, {&net}, run_index, [&net] { net.run(); }).front());
}

MultiChannelResult run_multi_channel(const ExperimentSpec& spec,
                                     const core::ChannelLayout& layout,
                                     std::uint64_t seed, ThreadPool* pool) {
    core::NetworkConfig base = spec.config;
    base.seed = seed;
    core::MultiChannelNetwork engine(std::move(base), layout);
    std::vector<core::FabricNetwork*> nets;
    for (std::size_t i = 0; i < engine.channel_count(); ++i) nets.push_back(&engine.channel(i));

    MultiChannelResult result;
    result.channels =
        drive(spec, nets, 0, [&] { result.events_executed = engine.run(pool); });
    result.meter = engine.meter();
    result.windows = engine.windows_executed();
    return result;
}

AggregateResult run_experiment(const ExperimentSpec& spec) {
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
