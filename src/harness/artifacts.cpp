#include "harness/artifacts.h"

#include <sstream>
#include <utility>

namespace fl::harness {

std::vector<std::string> diff(const RunArtifacts& a, const RunArtifacts& b) {
    std::vector<std::string> fields;
    const auto check = [&fields](bool equal, const char* name) {
        if (!equal) fields.emplace_back(name);
    };
    check(a.metrics_json == b.metrics_json, "metrics_json");
    check(a.trace_jsonl == b.trace_jsonl, "trace_jsonl");
    check(a.chain_fingerprint == b.chain_fingerprint, "chain_fingerprint");
    check(a.state_fingerprint == b.state_fingerprint, "state_fingerprint");
    check(a.blocks == b.blocks, "blocks");
    check(a.events_executed == b.events_executed, "events_executed");
    check(a.violations == b.violations, "violations");
    return fields;
}

RunArtifacts capture_artifacts(core::FabricNetwork& net,
                               const core::MetricsCollector& metrics,
                               const obs::audit::AuditReport* audit,
                               const obs::TraceSink* trace,
                               std::vector<std::string> violations) {
    RunArtifacts out;
    std::ostringstream metrics_os;
    core::write_metrics_json(metrics_os, metrics, audit);
    out.metrics_json = metrics_os.str();
    if (trace != nullptr) {
        std::ostringstream trace_os;
        trace->write_jsonl(trace_os);
        out.trace_jsonl = trace_os.str();
    }
    const peer::Peer& p0 = *net.peers().front();
    out.chain_fingerprint = p0.chain().chain_fingerprint();
    out.state_fingerprint = p0.state().fingerprint();
    out.blocks = p0.chain().height();
    out.events_executed = net.events_executed();
    out.violations = std::move(violations);
    return out;
}

}  // namespace fl::harness
