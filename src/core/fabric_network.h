// FabricNetwork — builds and owns a complete simulated network: the
// discrete-event simulator(s), the network fabric, the mq broker (Kafka),
// the key store (PKI), the chaincode registry, and all peers, OSNs and
// clients, fully wired per a NetworkConfig.
//
// This is the library's main entry point:
//
//   fl::core::NetworkConfig cfg;                 // paper defaults
//   fl::core::FabricNetwork net(cfg);
//   fl::core::MetricsCollector metrics;
//   net.set_tx_sink([&](const auto& r) { metrics.record(r); });
//   net.clients()[0]->submit("asset_transfer", "create", {"alice", "100"});
//   net.run();                                   // drain the simulation
//
// Partitioned engine (DESIGN.md §17): `config.partition` splits the node
// set into groups — each group gets its own sim::Simulator and the groups
// advance concurrently on pool workers inside conservative lookahead
// windows (sim/partition.h).  Output is byte-identical at every layout and
// worker count; PartitionScheme::kSingle (the default) is the plain serial
// engine.  In multi-group mode the per-simulator accessor `simulator()`
// throws — use run(pool)/advance_until/next_event_time/last_event_at.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chaincode/registry.h"
#include "client/client.h"
#include "core/config.h"
#include "core/metrics.h"
#include "crypto/signature.h"
#include "fault/fault_spec.h"
#include "mq/broker.h"
#include "orderer/ordering_backend.h"
#include "orderer/osn.h"
#include "raft/raft.h"
#include "peer/peer.h"
#include "sim/network.h"
#include "sim/partition.h"
#include "sim/simulator.h"

namespace fl {
class ThreadPool;
}
namespace fl::obs {
class MetricRegistry;
class TraceSink;
}  // namespace fl::obs
namespace fl::obs::audit {
class AuditAccountant;
}

namespace fl::core {

class FabricNetwork {
public:
    explicit FabricNetwork(NetworkConfig config);
    ~FabricNetwork();

    FabricNetwork(const FabricNetwork&) = delete;
    FabricNetwork& operator=(const FabricNetwork&) = delete;

    /// The simulator — single-group (serial) engines only; throws
    /// std::logic_error when the network runs partitioned (no single
    /// "the" clock exists).  Use the engine-level accessors below instead.
    [[nodiscard]] sim::Simulator& simulator();
    [[nodiscard]] const NetworkConfig& config() const { return config_; }

    /// Number of partition groups (1 = serial engine).
    [[nodiscard]] std::size_t partition_groups() const { return sims_.size(); }
    /// The engine lookahead (minimum cross-group link floor).
    [[nodiscard]] Duration lookahead() const { return partitions_->lookahead(); }
    /// Synchronization windows executed so far (0 for the serial engine).
    [[nodiscard]] std::uint64_t partition_windows() const {
        return partitions_->windows();
    }
    /// Group simulator owning `node`'s scheduling domain.
    [[nodiscard]] sim::Simulator& sim_of(NodeId node) {
        return partitions_->sim_of(node.value());
    }
    /// Partition group owning `node`.
    [[nodiscard]] std::size_t group_of(NodeId node) const {
        return partitions_->group_of(node.value());
    }

    [[nodiscard]] std::vector<std::unique_ptr<peer::Peer>>& peers() { return peers_; }
    [[nodiscard]] std::vector<std::unique_ptr<orderer::Osn>>& osns() { return osns_; }
    [[nodiscard]] std::vector<std::unique_ptr<client::Client>>& clients() {
        return clients_;
    }
    [[nodiscard]] const chaincode::Registry& registry() const { return registry_; }
    [[nodiscard]] const crypto::KeyStore& keys() const { return keys_; }
    /// The ordering substrate, whichever backend is configured.
    [[nodiscard]] orderer::OrderingBackend& ordering() { return *ordering_; }
    /// The Raft cluster, or null when the mq backend is configured.
    [[nodiscard]] raft::RaftOrderingBackend* raft_backend() {
        return raft_backend_.get();
    }
    [[nodiscard]] sim::Network& network() { return *net_; }

    /// Registers a completion callback wired to every client.  Partitioned
    /// runs buffer records per group and replay them to the sink in the
    /// serial completion order at every engine-call boundary.
    void set_tx_sink(std::function<void(const client::TxRecord&)> sink);

    /// Attaches a trace sink to every component (clients, peers, OSNs and
    /// the broker); null detaches everywhere.  The sink only records —
    /// attaching it schedules no simulator events, so results are
    /// byte-identical with and without a trace.  Partitioned runs record
    /// into per-group sinks and merge into `sink` in serial emission order
    /// at every engine-call boundary.
    void set_trace_sink(obs::TraceSink* sink);

    /// Attaches the fairness-audit accountant to every component: all
    /// clients (submit/terminal service events), all peers (endorse and
    /// validation CPU, state I/O, commit order), the broker append hook
    /// (ordering bandwidth + arrival order) and OSN 0's block generator
    /// (dequeue order — all OSNs cut identical blocks, so one observer
    /// suffices and crash replay cannot double-count).  Null detaches.
    /// Like set_trace_sink, attaching schedules no simulator events.
    /// Throws in multi-group mode: the accountant observes global order
    /// across every component, so audited runs use the serial engine
    /// (byte-identical by the partition-equivalence contract).
    void set_audit(obs::audit::AuditAccountant* audit);

    /// Registers the standard gauge set (per-priority queue depth and block
    /// fill, generator/validator/consolidation counters) on `registry`.
    /// Gauges read live component state; sample them via a
    /// TimeSeriesRecorder on this network's simulator.
    void register_metrics(obs::MetricRegistry& registry) {
        register_metrics(registry, std::string{});
    }
    /// Same, with every gauge name prefixed (identifier characters only,
    /// e.g. "ch7_") so multiple networks — one per channel in a
    /// MultiChannelNetwork — share one registry without name collisions.
    void register_metrics(obs::MetricRegistry& registry, const std::string& prefix);

    /// Runs the simulation until all scheduled work drains.  `pool`
    /// parallelizes partition groups (ignored by the serial engine; null
    /// runs every group on the calling thread — byte-identical either way).
    void run(ThreadPool* pool = nullptr);

    /// Runs all groups up to and including `end` (clocks finish at `end`);
    /// returns the number of events executed.  The multi-channel engine's
    /// per-window step.
    std::uint64_t advance_until(TimePoint end, ThreadPool* pool = nullptr);

    /// Earliest live pending event across groups; TimePoint::max() if idle.
    [[nodiscard]] TimePoint next_event_time() { return partitions_->next_event_time(); }

    /// Latest dequeued-event timestamp across groups (see
    /// Simulator::last_event_at for the exact semantics).
    [[nodiscard]] TimePoint last_event_at() const { return partitions_->last_event_at(); }

    /// Events executed across all groups.
    [[nodiscard]] std::uint64_t events_executed() const;

    /// Seeds a committed key on every peer (bootstrap for contended
    /// workloads); must be called before any traffic.
    void seed_state(const std::string& key, const std::string& value);

    /// Submits a channel-configuration transaction that changes the block
    /// formation policy at run time; all OSNs switch at the same block
    /// boundary (the paper's §3.3 online-reconfiguration scenarios).
    void update_block_policy(const policy::BlockFormationPolicy& new_policy);

    // -- consistency checks (core::check_invariants composes them) ----------
    /// True iff every peer holds the identical chain.
    [[nodiscard]] bool chains_identical() const;
    /// True iff every peer holds the identical world state.
    [[nodiscard]] bool states_identical() const;
    /// True iff every OSN produced the identical block-hash sequence.
    [[nodiscard]] bool osn_blocks_identical() const;
    /// Weaker form for runs where an OSN is down at drain time: every OSN's
    /// block-hash sequence must be a prefix of the longest one (surviving
    /// OSNs emit byte-identical sequences; a crashed one just stopped early).
    [[nodiscard]] bool osn_blocks_prefix_consistent() const;

    /// Faults applied so far (scheduled component faults, not per-message).
    [[nodiscard]] std::uint64_t faults_applied() const {
        return faults_applied_.load(std::memory_order_relaxed);
    }
    /// The resolved fault schedule (explicit + profile-generated, sorted).
    [[nodiscard]] const std::vector<fault::ScheduledFault>& fault_schedule() const {
        return fault_schedule_;
    }

private:
    /// Resolved node→group layout for this config.
    struct PartitionPlan {
        std::size_t group_count = 1;
        std::size_t ordering_group = 0;
        std::vector<std::pair<std::uint64_t, std::size_t>> node_group;
    };

    void build();
    [[nodiscard]] PartitionPlan resolve_partition_plan() const;
    /// Scheduling domain a fault event runs under (its target component).
    [[nodiscard]] std::uint64_t fault_domain(const fault::ScheduledFault& f) const;
    void apply_fault(const fault::ScheduledFault& f, std::size_t group);
    /// (Re)installs the broker append hook composing the current trace sink
    /// and audit accountant (the broker holds a single hook slot).
    void install_broker_hook();
    /// The sink a component in `group` should emit to (null when untraced).
    [[nodiscard]] obs::TraceSink* group_trace(std::size_t group);
    /// Merges per-group trace/tx buffers into the user sinks in serial
    /// emission order.  No-op for the serial engine (sinks wired directly).
    void drain_observers();

    NetworkConfig config_;
    Rng rng_;
    std::vector<std::unique_ptr<sim::Simulator>> sims_;  ///< one per group
    std::unique_ptr<sim::PartitionSet> partitions_;
    std::size_t ordering_group_ = 0;
    std::unique_ptr<sim::Network> net_;
    std::unique_ptr<mq::Broker<orderer::OrderedRecord>> broker_;  ///< kMq only
    std::unique_ptr<orderer::MqOrderingBackend> mq_backend_;      ///< kMq only
    std::unique_ptr<raft::RaftOrderingBackend> raft_backend_;     ///< kRaft only
    orderer::OrderingBackend* ordering_ = nullptr;  ///< the active backend
    crypto::KeyStore keys_;
    chaincode::Registry registry_;

    std::vector<std::unique_ptr<peer::Peer>> peers_;
    std::vector<std::unique_ptr<orderer::Osn>> osns_;
    std::vector<std::unique_ptr<client::Client>> clients_;

    std::vector<fault::ScheduledFault> fault_schedule_;
    std::atomic<std::uint64_t> faults_applied_{0};
    obs::TraceSink* trace_ = nullptr;  ///< user sink (kFault events)
    obs::audit::AuditAccountant* audit_ = nullptr;

    /// Multi-group observer buffering (empty for the serial engine).
    std::vector<std::unique_ptr<obs::TraceSink>> group_sinks_;
    struct BufferedTxRecord {
        sim::EventKey key;
        client::TxRecord rec;
    };
    std::vector<std::vector<BufferedTxRecord>> tx_buffers_;  ///< per group
    std::function<void(const client::TxRecord&)> user_tx_sink_;
};

}  // namespace fl::core
