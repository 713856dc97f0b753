// The benchmark's metric catalog: every metric it prints, with its unit and
// direction.  BENCHMARK.json lists the same names and units; run.py refuses
// a result whose metric set differs from it.
#pragma once

#include <array>
#include <string_view>

namespace hostbench {

struct MetricDef {
    std::string_view name;
    std::string_view unit;
    bool higher_is_better;
};

/// Printed by untraced runs (--trace 0).  Timed runs are untraced.
inline constexpr std::array<MetricDef, 11> kEndToEnd = {{
    {"host_tx_per_s", "tx/s", true},
    {"cpu_s", "s", false},
    {"wall_s", "s", false},
    {"setup_s", "s", false},
    {"peak_rss_mib", "MiB", false},
    {"valid_frac", "ratio", true},
    {"sim_tps", "tx/sim-s", true},
    {"sim_latency_p50_s", "sim-s", false},
    {"sim_latency_p99_s", "sim-s", false},
    {"sim_latency_p99_top_s", "sim-s", false},
    {"sim_max_commit_gap_s", "sim-s", false},
}};

/// Printed by traced runs (--trace 1).
inline constexpr std::array<MetricDef, 33> kPerLayer = {{
    {"peer.host_us_per_tx", "us", false},
    {"peer.events_per_tx", "events/tx", false},
    {"peer.validate_us_per_tx", "us", false},
    {"peer.valid_ratio", "ratio", true},
    {"peer.validate_phase_p99_s", "sim-s", false},
    {"crypto.verify_us", "us", false},
    {"crypto.verifies_per_tx", "count/tx", false},
    {"ledger.apply_us_per_tx", "us", false},
    {"ledger.append_us_per_block", "us", false},
    {"client.host_us_per_tx", "us", false},
    {"client.events_per_tx", "events/tx", false},
    {"client.resubmissions_per_tx", "count/tx", false},
    {"client.endorse_retries_per_tx", "count/tx", false},
    {"client.endorse_phase_p99_s", "sim-s", false},
    {"orderer.host_us_per_tx", "us", false},
    {"orderer.events_per_tx", "events/tx", false},
    {"orderer.txs_per_block", "tx/block", true},
    {"orderer.ordering_phase_p99_s", "sim-s", false},
    {"mq.host_us_per_tx", "us", false},
    {"raft.host_us_per_tx", "us", false},
    {"raft.events_per_tx", "events/tx", false},
    {"raft.leader_changes", "count", false},
    {"raft.elections", "count", false},
    {"sim.events_per_tx", "events/tx", false},
    {"sim.host_ns_per_event", "ns", false},
    {"harness.seed_state_s", "s", false},
    {"harness.schedule_s", "s", false},
    {"core.build_s", "s", false},
    {"core.check_s", "s", false},
    {"trace.overhead_frac", "ratio", false},
    {"trace.coverage_frac", "ratio", true},
    {"failed_frac", "ratio", false},
    {"txs_attempted", "count", true},
}};

}  // namespace hostbench
