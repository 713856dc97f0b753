// Experiment runner: builds a fresh network per run (new seed), drives a
// workload to completion, collects metrics, and aggregates across runs —
// the paper's "each experiment 10 times, 15000 transactions per run, report
// the average".
//
// Each run owns its Simulator, FabricNetwork and MetricsCollector and shares
// no state with other runs, which is what lets `harness::run_sweep`
// (harness/sweep.h) execute independent experiment points on a thread pool
// without changing any result.
//
// One network's lifecycle is written once (experiment.cpp) and driven two
// ways: run_once drains one network, run_multi_channel drains every channel
// of a core::MultiChannelNetwork.  Fabric channels are independent ledgers,
// so each channel runs run_once's lifecycle and a fault-free 1-channel run
// is byte-identical to run_once on the same spec and seed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "core/metrics.h"
#include "core/multi_channel.h"
#include "harness/artifacts.h"
#include "harness/workload.h"
#include "obs/audit/audit.h"

namespace fl::harness {

struct ExperimentSpec {
    core::NetworkConfig config;
    /// Builds the workload for one run (fresh generator state per run).
    std::function<Workload()> make_workload;
    unsigned runs = 5;
    std::uint64_t base_seed = 1000;

    /// Optional per-completed-transaction probe, called from the tx sink with
    /// the drained network available; accumulate custom counters into `extra`
    /// (they aggregate across runs into AggregateResult::extra).
    std::function<void(const client::TxRecord&, core::FabricNetwork&,
                       std::map<std::string, double>&)>
        tx_probe;
    /// Optional post-run probe over the drained network (chain shape, OSN
    /// counters, ...); accumulates into the same `extra` map.
    std::function<void(core::FabricNetwork&, std::map<std::string, double>&)>
        run_probe;
    /// When true, run_experiment keeps a per-run JSON metrics dump (see
    /// core::write_metrics_json) in AggregateResult::run_metrics_json.
    bool keep_run_metrics = false;
    /// When true, every run records a trace into RunArtifacts::trace_jsonl.
    /// The sink attaches after the workload is scheduled and before
    /// `instrument`; under run_multi_channel it is tagged with the channel
    /// id when the run has more than one channel.
    bool capture_trace = false;

    /// Observability hook, invoked once per run after the workload is
    /// scheduled but before the simulation drains — the point where a trace
    /// sink or a TimeSeriesRecorder can attach to the live network (the
    /// recorder needs pending events to arm its sampling timer against).
    /// The second argument is the run index (0-based) under run_once and
    /// the channel index under run_multi_channel.
    std::function<void(core::FabricNetwork&, unsigned)> instrument;

    /// When set, each run attaches a fresh AuditAccountant (obs/audit) with
    /// this configuration.  The level_weights field is derived automatically
    /// from the run's block formation policy when left empty.  The audit is
    /// purely observational — results with and without it are identical —
    /// and its report lands in RunResult::audit plus, with keep_run_metrics,
    /// as an "audit" block inside the per-run metrics JSON.
    std::optional<obs::audit::AuditConfig> audit;
};

/// Results of a single run.
struct RunResult {
    core::MetricsCollector metrics;
    /// Bytes, fingerprints and invariant violations of the drained network.
    RunArtifacts artifacts;
    std::uint64_t txs_invalid = 0;
    std::uint64_t consolidation_failures = 0;
    std::vector<std::uint64_t> level_totals;  ///< per-level txs ordered (OSN 0)
    std::map<std::string, double> extra;      ///< probe-filled counters
    /// Finalized fairness-audit report (only when ExperimentSpec::audit).
    std::optional<obs::audit::AuditReport> audit;
    /// Host wall-clock seconds of the drain alone (under run_multi_channel,
    /// the whole engine's drain).  Host-dependent: for stdout and timing
    /// artifacts, never deterministic JSON.
    double drain_wall_s = 0.0;
};

/// Everything observable about one multi-channel run.
struct MultiChannelResult {
    /// One result per channel, in layout order.
    std::vector<RunResult> channels;
    core::CrossChannelMeter meter;
    std::uint64_t events_executed = 0;
    std::uint64_t windows = 0;
};

/// Per-run means of the pipeline-phase latencies, aggregated across runs.
struct PhaseAggregate {
    RunAggregator endorsement;
    RunAggregator ordering;
    RunAggregator validation;
    RunAggregator notification;
};

/// Aggregates across runs.
struct AggregateResult {
    RunAggregator overall_latency;                           ///< seconds
    std::map<PriorityLevel, RunAggregator> latency_by_priority;
    std::map<std::uint64_t, RunAggregator> latency_by_client;  ///< key: client id
    std::map<PriorityLevel, PhaseAggregate> phases_by_priority;
    RunAggregator throughput_tps;
    RunAggregator blocks_per_run;
    std::uint64_t total_committed = 0;
    std::uint64_t total_invalid = 0;
    std::uint64_t total_client_failures = 0;
    std::uint64_t total_consolidation_failures = 0;
    /// Union of the runs' core::check_invariants names, in first-seen order.
    std::vector<std::string> violations;
    /// Per-run means of the probe counters in RunResult::extra.
    std::map<std::string, RunAggregator> extra;
    /// Per-run metrics dumps (only when ExperimentSpec::keep_run_metrics).
    std::vector<std::string> run_metrics_json;
    /// Per-run audit reports (only when ExperimentSpec::audit).
    std::vector<obs::audit::AuditReport> audit_reports;

    /// True when no run reported an invariant violation.
    [[nodiscard]] bool all_consistent() const { return violations.empty(); }
    [[nodiscard]] double priority_latency(PriorityLevel level) const {
        const auto it = latency_by_priority.find(level);
        return it == latency_by_priority.end() ? 0.0 : it->second.mean();
    }
    [[nodiscard]] double client_latency(std::uint64_t client) const {
        const auto it = latency_by_client.find(client);
        return it == latency_by_client.end() ? 0.0 : it->second.mean();
    }
    /// Mean of a probe counter across runs (0 when the key never appeared).
    [[nodiscard]] double extra_mean(const std::string& key) const;
    /// Sum of a probe counter across runs.
    [[nodiscard]] double extra_total(const std::string& key) const;
};

/// Executes one run with the given seed through the network lifecycle:
/// network → tx sink → audit → WorkloadDriver(Rng(seed ^ 0x574B4C44)) →
/// start → trace → instrument → drain → audit finalize at the last event →
/// core::check_invariants → run_probe → artifacts.  `run_index` is forwarded
/// to ExperimentSpec::instrument.
[[nodiscard]] RunResult run_once(const ExperimentSpec& spec, std::uint64_t seed,
                                 unsigned run_index = 0);

/// Runs every channel of `layout` over the base spec.config, each through
/// run_once's lifecycle with seed core::channel_seed(seed, i) and
/// instrument index i, and drains them together on the channel-sharded
/// engine.  `pool == nullptr` selects the serial reference engine; the
/// results are byte-identical either way (DESIGN.md §16).
[[nodiscard]] MultiChannelResult run_multi_channel(const ExperimentSpec& spec,
                                                   const core::ChannelLayout& layout,
                                                   std::uint64_t seed,
                                                   ThreadPool* pool = nullptr);

/// A fresh fairness-audit accountant for one network; empty level_weights
/// default from the channel's block policy (one level when priorities are
/// off).
[[nodiscard]] std::unique_ptr<obs::audit::AuditAccountant> make_audit(
    obs::audit::AuditConfig config, const policy::ChannelConfig& channel);

/// Executes spec.runs runs (seeds base_seed, base_seed+1, ...) and aggregates.
[[nodiscard]] AggregateResult run_experiment(const ExperimentSpec& spec);

/// Number of repetitions: the FAIRLEDGER_RUNS environment variable when set,
/// otherwise `default_runs` (the paper uses 10; benches default lower to
/// keep CI fast — see EXPERIMENTS.md).  A value that --runs would reject
/// (not digits only, out of range, or 0) prints a message and exits 2.
[[nodiscard]] unsigned runs_from_env(unsigned default_runs);

/// Total transactions per run: FAIRLEDGER_TOTAL_TXS or `default_total`,
/// validated like FAIRLEDGER_RUNS.
[[nodiscard]] std::uint64_t total_txs_from_env(std::uint64_t default_total);

}  // namespace fl::harness
