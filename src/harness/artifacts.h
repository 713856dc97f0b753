// One run's observable outputs in one bundle: the bytes the determinism
// contract covers (metrics JSON, trace JSONL, ledger fingerprints, counts)
// plus the safety verdict of core::check_invariants.
//
// The one network run lifecycle (harness/experiment.cpp) fills one per
// network through capture_artifacts — per run under harness::run_once, per
// channel under harness::run_multi_channel — so every equivalence gate —
// serial vs parallel validator, serial vs channel-sharded, multi-channel vs
// the single-network harness — is `diff(a, b).empty()`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "core/metrics.h"
#include "obs/audit/audit.h"
#include "obs/trace.h"

namespace fl::harness {

struct RunArtifacts {
    std::string metrics_json;  ///< core::write_metrics_json (audit block included)
    std::string trace_jsonl;   ///< empty unless the spec set capture_trace
    std::uint64_t chain_fingerprint = 0;  ///< peer 0 block chain
    std::uint64_t state_fingerprint = 0;  ///< peer 0 world state
    std::uint64_t blocks = 0;             ///< peer 0 chain height
    std::uint64_t events_executed = 0;    ///< simulator events run
    /// core::check_invariants names; empty when the run is safe.
    std::vector<std::string> violations;
};

/// Names of the RunArtifacts fields (as spelled above) whose values differ,
/// in declaration order; empty when the bundles are identical.
[[nodiscard]] std::vector<std::string> diff(const RunArtifacts& a,
                                            const RunArtifacts& b);

/// Captures a drained network's artifacts.  `audit` and `trace` may be
/// null; `violations` is the run's core::check_invariants verdict.
[[nodiscard]] RunArtifacts capture_artifacts(core::FabricNetwork& net,
                                             const core::MetricsCollector& metrics,
                                             const obs::audit::AuditReport* audit,
                                             const obs::TraceSink* trace,
                                             std::vector<std::string> violations);

}  // namespace fl::harness
