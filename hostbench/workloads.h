// The benchmark's workloads and the machinery one repetition needs: build
// the network exactly like harness::run_once, drain it (plain or stepped
// with per-layer host-time attribution), check the safety invariants,
// derive the paper outputs, and replay the committed chain through the
// peer/ledger/crypto layers on their own.
//
// Everything here drives the public library API only.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric_network.h"
#include "harness/workload.h"

namespace hostbench {

using namespace fl;

/// One benchmark workload: network, open-loop traffic and fault plan.
struct WorkloadDef {
    std::string name;
    core::NetworkConfig config;  ///< seed is set per run
    std::uint64_t total_txs = 0;
    double total_tps = 0.0;
    /// Builds one client's transaction generator (fresh state per run).
    std::function<harness::TxGenerator()> make_generator;
    /// Scale accounts seeded on every peer before traffic (0 = none).
    std::uint64_t accounts = 0;
    /// A Raft leader kill every this many simulated seconds of traffic,
    /// each followed by a restart of every crashed node (0 = no faults).
    std::int64_t leader_kill_period_s = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Full-size definition of `name`; throws std::invalid_argument if unknown.
[[nodiscard]] WorkloadDef make_workload(const std::string& name);

// -- layers ----------------------------------------------------------------

/// Host-time owners, named after the src/ modules whose nodes run there.
enum class Layer : std::uint8_t { kPeer, kOrderer, kClient, kMq, kRaft, kOther };
inline constexpr std::size_t kLayerCount = 6;

[[nodiscard]] const char* layer_name(Layer layer);

/// Layer owning scheduling domain `domain` (node bases from core/config.h;
/// the ordering endpoint and Raft nodes sit at 9000+ and belong to the
/// active backend).
[[nodiscard]] Layer layer_of(std::uint64_t domain, orderer::OrderingBackendKind backend);

/// Host time and events charged to each layer by a stepped drain.
struct LayerTimes {
    std::array<double, kLayerCount> seconds{};
    std::array<std::uint64_t, kLayerCount> events{};

    [[nodiscard]] double at(Layer l) const { return seconds[static_cast<std::size_t>(l)]; }
    [[nodiscard]] std::uint64_t events_of(Layer l) const {
        return events[static_cast<std::size_t>(l)];
    }
    /// Seconds charged to a named layer (everything but kOther).
    [[nodiscard]] double attributed() const;
};

// -- one repetition ----------------------------------------------------------

/// Deterministic outputs of one run: pure functions of (workload, seed).
struct SimOutcome {
    std::uint64_t submitted = 0;
    std::uint64_t terminal = 0;      ///< submissions that reached a terminal state
    std::uint64_t valid = 0;         ///< committed valid
    std::uint64_t completed = 0;     ///< got a commit notification (valid or not)
    double sim_tps = 0.0;
    double latency_p50_s = 0.0;
    double latency_p99_s = 0.0;
    double latency_p99_top_s = 0.0;
    double max_commit_gap_s = 0.0;
    double endorse_phase_p99_s = 0.0;
    double ordering_phase_p99_s = 0.0;
    double validate_phase_p99_s = 0.0;
    std::uint64_t endorse_retries = 0;
    std::uint64_t resubmissions = 0;
    std::uint64_t leader_changes = 0;
    std::uint64_t elections = 0;
    std::uint64_t blocks = 0;
    std::uint64_t block_txs = 0;       ///< transactions in peer 0's chain
    std::uint64_t block_valid = 0;     ///< of which committed valid
    std::uint64_t endorsements = 0;    ///< endorsements in peer 0's chain
    std::uint64_t events = 0;
    std::uint64_t chain_fingerprint = 0;
    std::uint64_t state_fingerprint = 0;
    /// Safety-invariant violations; empty when the run is correct.
    std::vector<std::string> violations;

    /// Digest of every field above except `violations`: equal across
    /// repetitions of one (workload, seed), and between the plain and the
    /// stepped drain.
    [[nodiscard]] std::uint64_t digest() const;
};

/// Host time the replay spent in each layer, over peer 0's whole chain.
struct ReplayTimes {
    double validate_s = 0.0;
    double apply_s = 0.0;
    double append_s = 0.0;
    double verify_s = 0.0;
    std::uint64_t verifies = 0;
    /// Cross-check failures (codes, state fingerprint, append, verify).
    std::vector<std::string> mismatches;
};

/// One repetition of a workload.  The constructor does the set-up in
/// harness::run_once order (network, tx sink, workload driver start, then
/// state seeding) and times each step.
class Run {
public:
    Run(const WorkloadDef& def, std::uint64_t seed);
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    /// FabricNetwork::run(), timed.
    void drain();
    /// Drains with Simulator::step(), charging the host time since the
    /// previous event to the layer that owns the event just run.
    void drain_stepped();
    /// Safety checks and paper outputs over the drained network, timed.
    [[nodiscard]] SimOutcome check();
    /// Replays peer 0's chain through validate_block, apply_block,
    /// BlockStore::append and verify_endorsement on fresh state.
    [[nodiscard]] ReplayTimes replay();

    double build_s = 0.0;      ///< FabricNetwork construction + tx sink
    double schedule_s = 0.0;   ///< workload construction + driver start
    double seed_state_s = 0.0; ///< scale-account seeding
    double drain_s = 0.0;
    double check_s = 0.0;
    LayerTimes layers;         ///< filled by drain_stepped()

    [[nodiscard]] double setup_s() const { return build_s + schedule_s + seed_state_s; }

private:
    const WorkloadDef& def_;
    std::unique_ptr<core::FabricNetwork> net_;
    std::unique_ptr<harness::WorkloadDriver> driver_;
    std::vector<client::TxRecord> records_;
};

/// Nearest-rank percentile (p in (0, 100]) of `values`, sorted in place;
/// 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& values, double p);

}  // namespace hostbench
