#include "core/fabric_network.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "fault/injector.h"
#include "obs/audit/audit.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace fl::core {

FabricNetwork::FabricNetwork(NetworkConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      registry_(chaincode::Registry::with_standard_contracts(
          config_.channel.effective_levels())) {
    if (config_.orgs == 0 || config_.peers_per_org == 0 || config_.osns == 0 ||
        config_.clients == 0) {
        throw std::invalid_argument("NetworkConfig: all component counts must be >= 1");
    }
    build();
}

FabricNetwork::~FabricNetwork() = default;

sim::Simulator& FabricNetwork::simulator() {
    if (sims_.size() != 1) {
        throw std::logic_error(
            "FabricNetwork::simulator: partitioned engine has no single clock — "
            "use run()/advance_until/next_event_time/last_event_at or sim_of()");
    }
    return *sims_[0];
}

FabricNetwork::PartitionPlan FabricNetwork::resolve_partition_plan() const {
    // Message faults draw per-send from one shared fault stream — a
    // cross-group hazard — so a multi-group layout refuses them.
    if (config_.faults.messages.any() && config_.partition != PartitionScheme::kSingle) {
        throw std::invalid_argument(
            "NetworkConfig: message faults share one fault stream across "
            "senders — run them on PartitionScheme::kSingle");
    }

    const PartitionScheme scheme = config_.partition;
    const std::size_t clients = config_.clients;
    const std::size_t peers = config_.total_peers();
    PartitionPlan plan;
    // kRoles: clients | one group per peer org | ordering service;
    // kPerNode: each client | each peer | ordering service.
    plan.group_count = scheme == PartitionScheme::kSingle  ? 1
                       : scheme == PartitionScheme::kRoles ? config_.orgs + 2
                                                           : clients + peers + 1;
    plan.ordering_group = plan.group_count - 1;
    std::map<std::uint64_t, std::size_t> groups;  // node -> group, in node order
    for (std::size_t c = 0; c < clients; ++c) {
        groups[kClientNodeBase + c] = scheme == PartitionScheme::kPerNode ? c : 0;
    }
    for (std::size_t i = 0; i < peers; ++i) {
        std::size_t& group = groups[kPeerNodeBase + i];
        if (scheme == PartitionScheme::kRoles) group = 1 + i / config_.peers_per_org;
        if (scheme == PartitionScheme::kPerNode) group = clients + i;
    }
    // The ordering service — every OSN plus the broker or the whole Raft
    // cluster — takes the last group whole: OSNs call into the backend
    // synchronously (core/config.h).
    for (std::uint32_t i = 0; i < config_.osns; ++i) {
        groups[kOsnNodeBase + i] = plan.ordering_group;
    }
    if (config_.ordering_backend == orderer::OrderingBackendKind::kRaft) {
        // Raft node 0 shares the broker's well-known address (raft/raft.h).
        for (std::uint32_t i = 0; i < config_.raft.nodes; ++i) {
            groups[raft::kRaftNodeBase + i] = plan.ordering_group;
        }
    } else {
        groups[kBrokerNode] = plan.ordering_group;
    }
    plan.node_group.assign(groups.begin(), groups.end());
    return plan;
}

void FabricNetwork::build() {
    const PartitionPlan plan = resolve_partition_plan();
    ordering_group_ = plan.ordering_group;
    sims_.reserve(plan.group_count);
    for (std::size_t g = 0; g < plan.group_count; ++g) {
        sims_.push_back(std::make_unique<sim::Simulator>());
    }
    std::vector<sim::Simulator*> raw;
    raw.reserve(sims_.size());
    for (const auto& s : sims_) raw.push_back(s.get());
    // Lookahead = the guaranteed cross-group latency floor.  With one group
    // the value is unused (serial fast path); with more, the PartitionSet
    // constructor rejects a non-positive floor (zero-latency links admit no
    // conservative window).
    partitions_ = std::make_unique<sim::PartitionSet>(
        std::move(raw), sim::Network::link_floor(config_.link_params));
    for (const auto& [node, group] : plan.node_group) {
        partitions_->map_domain(node, group);
    }

    net_ = std::make_unique<sim::Network>(*sims_[0], rng_.split("network"),
                                          config_.link_params);
    // Always attached — even single-group — so the jitter stream layout is
    // identical at every partition scheme (per-from streams, sim/network.h).
    net_->attach_partitions(partitions_.get());
    for (const auto& [node, group] : plan.node_group) {
        net_->register_node(NodeId{node});
    }

    sim::Simulator& osim = *sims_[ordering_group_];
    if (config_.ordering_backend == orderer::OrderingBackendKind::kRaft) {
        // The Raft rng is derived straight from the seed (like the key
        // store's), NOT split from rng_: Rng::split advances the parent, so
        // splitting here would shift every later component stream and break
        // the mq-vs-raft byte-identity contract (DESIGN.md §15).
        sim::DomainScope scope(osim, kBrokerNode);
        raft_backend_ = std::make_unique<raft::RaftOrderingBackend>(
            osim, *net_, Rng(config_.seed ^ 0x5241465453454431ull),  // "RAFTSED1"
            config_.raft);
        ordering_ = raft_backend_.get();
    } else {
        mq::BrokerParams broker_params;
        broker_params.node = NodeId{kBrokerNode};
        sim::DomainScope scope(osim, kBrokerNode);
        broker_ = std::make_unique<mq::Broker<orderer::OrderedRecord>>(
            osim, *net_, broker_params);
        mq_backend_ = std::make_unique<orderer::MqOrderingBackend>(*broker_);
        ordering_ = mq_backend_.get();
    }

    keys_.set_seed(config_.seed ^ 0x4B45595345454431ull);  // "KEYSEED1"

    // Endorsement policy: k-of-n over the organizations (0 = all orgs).
    const std::uint32_t k =
        config_.endorsement_k == 0 ? config_.orgs
                                   : std::min(config_.endorsement_k, config_.orgs);
    config_.channel.endorsement_policy =
        policy::EndorsementPolicy::k_of_n_orgs(k, config_.orgs);

    // Topics: one per priority level (a single one in baseline mode).
    for (std::uint32_t level = 0; level < config_.channel.effective_levels(); ++level) {
        ordering_->create_topic(config_.channel.topic_for_level(level));
    }

    peer::CalculatorFactory factory = config_.calculator_factory;
    if (!factory) {
        factory = [] { return std::make_unique<peer::StaticChaincodeCalculator>(); };
    }

    // Peers — each constructed on its group's simulator, under its own
    // scheduling domain so any constructor-scheduled event keys identically
    // at every layout.
    for (std::uint32_t org = 0; org < config_.orgs; ++org) {
        for (std::uint32_t p = 0; p < config_.peers_per_org; ++p) {
            const std::uint64_t index = org * config_.peers_per_org + p;
            const std::uint64_t node = kPeerNodeBase + index;
            crypto::Identity identity{
                "org" + std::to_string(org) + ".peer" + std::to_string(p), OrgId{org}};
            keys_.register_identity(identity);
            sim::Simulator& psim = partitions_->sim_of(node);
            sim::DomainScope scope(psim, node);
            peers_.push_back(std::make_unique<peer::Peer>(
                psim, *net_, keys_, registry_, config_.channel, config_.peer_params,
                PeerId{index}, NodeId{node}, identity, factory(),
                rng_.split("peer" + std::to_string(index))));
        }
    }

    // OSNs, each with its own local-clock skew; all on the ordering group.
    for (std::uint32_t i = 0; i < config_.osns; ++i) {
        crypto::Identity identity{"osn" + std::to_string(i), OrgId{0}};
        keys_.register_identity(identity);
        orderer::OsnParams params = config_.osn_params;
        params.clock_skew = Duration::from_seconds(
            rng_.split("osnskew" + std::to_string(i))
                .uniform(0.0, config_.max_osn_clock_skew.as_seconds()));
        sim::DomainScope scope(osim, kOsnNodeBase + i);
        osns_.push_back(std::make_unique<orderer::Osn>(
            osim, *net_, *ordering_, keys_, config_.channel, params, OsnId{i},
            NodeId{kOsnNodeBase + i}));
    }

    // Each peer receives blocks from one OSN (round-robin).
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        peer::Peer* p = peers_[i].get();
        osns_[i % osns_.size()]->connect_peer(
            p->node(),
            [p](std::shared_ptr<const ledger::Block> block) {
                p->deliver_block(std::move(block));
            });
    }

    // Clients: endorse at every peer, anchor at a round-robin peer.
    for (std::uint32_t c = 0; c < config_.clients; ++c) {
        const std::uint64_t node = kClientNodeBase + c;
        crypto::Identity identity{"client" + std::to_string(c),
                                  OrgId{c % config_.orgs}};
        keys_.register_identity(identity);
        sim::Simulator& csim = partitions_->sim_of(node);
        sim::DomainScope scope(csim, node);
        clients_.push_back(std::make_unique<client::Client>(
            csim, *net_, keys_, config_.channel, config_.client_params, ClientId{c},
            NodeId{node}, identity, rng_.split("client" + std::to_string(c))));

        std::vector<peer::Peer*> endorsers;
        endorsers.reserve(peers_.size());
        for (const auto& p : peers_) {
            endorsers.push_back(p.get());
        }
        std::vector<orderer::Osn*> osn_ptrs;
        osn_ptrs.reserve(osns_.size());
        for (const auto& o : osns_) {
            osn_ptrs.push_back(o.get());
        }
        clients_.back()->connect(std::move(endorsers), std::move(osn_ptrs),
                                 peers_[c % peers_.size()].get());
    }

    // Start the ordering service last so subscriptions see a clean log.
    // Generator timers scheduled here key under the OSN's domain.
    for (std::size_t i = 0; i < osns_.size(); ++i) {
        sim::DomainScope scope(osim, kOsnNodeBase + i);
        osns_[i]->start();
    }

    // Fault injection — gated so fault-free configs split no extra rng
    // streams and schedule no extra events (byte-identity contract).
    if (config_.faults.enabled()) {
        if (config_.faults.messages.any()) {
            // Only reachable in single-group mode (the plan demoted above).
            net_->set_message_faults(config_.faults.messages, rng_.split("msgfault"));
        }
        fault_schedule_ = config_.faults.schedule;
        if (config_.faults.profile) {
            const std::vector<fault::ScheduledFault> generated =
                fault::make_fault_schedule(*config_.faults.profile,
                                           rng_.split("faultplan"), config_.osns,
                                           config_.total_peers(),
                                           raft_backend_ ? config_.raft.nodes : 0);
            fault_schedule_.insert(fault_schedule_.end(), generated.begin(),
                                   generated.end());
        }
        std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                         [](const fault::ScheduledFault& a,
                            const fault::ScheduledFault& b) { return a.at < b.at; });
        // Each fault event runs on its target component's group, under the
        // target's domain (layout-identical keys, no cross-group access).
        for (const fault::ScheduledFault& f : fault_schedule_) {
            const std::uint64_t d = fault_domain(f);
            const std::size_t g = partitions_->group_of(d);
            sim::Simulator& s = *sims_[g];
            sim::DomainScope scope(s, d);
            s.schedule_after(f.at, [this, f, g] { apply_fault(f, g); });
        }
    }

    // Guard against runaway configurations (events scale with tx volume).
    for (const auto& s : sims_) {
        s->set_event_limit(500'000'000);
    }

    // Multi-group observer buffering: per-group sinks journal the executing
    // event's key with every emission; drain_observers() merges them into
    // the user sinks in exact serial emission order.
    if (sims_.size() > 1) {
        group_sinks_.reserve(sims_.size());
        for (const auto& s : sims_) {
            auto sink = std::make_unique<obs::TraceSink>();
            sink->set_order_source(s.get());
            group_sinks_.push_back(std::move(sink));
        }
        tx_buffers_.resize(sims_.size());
    }
}

std::uint64_t FabricNetwork::fault_domain(const fault::ScheduledFault& f) const {
    switch (f.kind) {
    case fault::FaultKind::kOsnCrash:
    case fault::FaultKind::kOsnRestart:
        return kOsnNodeBase + f.target % osns_.size();
    case fault::FaultKind::kEndorserDown:
    case fault::FaultKind::kEndorserUp:
    case fault::FaultKind::kEndorserSlow:
    case fault::FaultKind::kEndorserNormal:
        return kPeerNodeBase + f.target % peers_.size();
    default:
        // Broker and Raft faults act on the ordering service as a whole.
        return kBrokerNode;
    }
}

void FabricNetwork::apply_fault(const fault::ScheduledFault& f, std::size_t group) {
    faults_applied_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t actor = 0;
    obs::ActorKind kind = obs::ActorKind::kOsn;
    switch (f.kind) {
    case fault::FaultKind::kOsnCrash: {
        const std::size_t i = f.target % osns_.size();
        osns_[i]->crash();
        actor = i;
        break;
    }
    case fault::FaultKind::kOsnRestart: {
        const std::size_t i = f.target % osns_.size();
        osns_[i]->restart();
        actor = i;
        break;
    }
    case fault::FaultKind::kEndorserDown: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorser_down(true);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserUp: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorser_down(false);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserSlow: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorse_slowdown(f.factor);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kEndorserNormal: {
        const std::size_t i = f.target % peers_.size();
        peers_[i]->set_endorse_slowdown(1.0);
        actor = i;
        kind = obs::ActorKind::kPeer;
        break;
    }
    case fault::FaultKind::kBrokerDown:
        ordering_->set_down(true);
        kind = obs::ActorKind::kBroker;
        break;
    case fault::FaultKind::kBrokerUp:
        ordering_->set_down(false);
        kind = obs::ActorKind::kBroker;
        break;
    // Raft-backend faults: no-ops under mq, so a schedule mixing both kinds
    // can drive either backend.
    case fault::FaultKind::kRaftLeaderKill:
        if (raft_backend_) raft_backend_->kill_leader();
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftNodeCrash:
        if (raft_backend_) {
            const std::uint32_t i = f.target % raft_backend_->node_count();
            raft_backend_->crash_node(i);
            actor = i;
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftNodeRestart:
        if (raft_backend_) {
            raft_backend_->restart_node(f.target);
            actor = f.target == raft::kAllNodes
                        ? 0
                        : f.target % raft_backend_->node_count();
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftPartition:
        if (raft_backend_) {
            const std::uint32_t i = f.target % raft_backend_->node_count();
            raft_backend_->partition_node(i);
            actor = i;
        }
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftHeal:
        if (raft_backend_) raft_backend_->heal_partitions();
        kind = obs::ActorKind::kRaft;
        break;
    case fault::FaultKind::kRaftDrop:
        if (raft_backend_) raft_backend_->set_drop_prob(f.factor);
        kind = obs::ActorKind::kRaft;
        break;
    }
    if (obs::TraceSink* sink = group_trace(group)) {
        obs::TraceEvent ev;
        ev.at = sims_[group]->now();
        ev.type = obs::EventType::kFault;
        ev.actor_kind = kind;
        ev.actor = actor;
        ev.value = static_cast<std::uint64_t>(f.kind);
        ev.value2 = f.target;
        sink->emit(ev);
    }
}

void FabricNetwork::set_tx_sink(std::function<void(const client::TxRecord&)> sink) {
    if (sims_.size() == 1) {
        for (const auto& c : clients_) {
            c->set_on_complete(sink);
        }
        return;
    }
    user_tx_sink_ = std::move(sink);
    for (std::size_t c = 0; c < clients_.size(); ++c) {
        if (!user_tx_sink_) {
            clients_[c]->set_on_complete(nullptr);
            continue;
        }
        const std::size_t g = partitions_->group_of(kClientNodeBase + c);
        clients_[c]->set_on_complete([this, g](const client::TxRecord& r) {
            tx_buffers_[g].push_back({sims_[g]->current_key(), r});
        });
    }
}

obs::TraceSink* FabricNetwork::group_trace(std::size_t group) {
    if (trace_ == nullptr) return nullptr;
    return sims_.size() == 1 ? trace_ : group_sinks_[group].get();
}

void FabricNetwork::set_trace_sink(obs::TraceSink* sink) {
    trace_ = sink;  // kFault events + the merge target in multi-group mode
    for (std::size_t c = 0; c < clients_.size(); ++c) {
        clients_[c]->set_trace(group_trace(partitions_->group_of(kClientNodeBase + c)));
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        peers_[i]->set_trace(group_trace(partitions_->group_of(kPeerNodeBase + i)));
    }
    for (const auto& o : osns_) o->set_trace(group_trace(ordering_group_));
    if (raft_backend_) {
        raft_backend_->set_trace(group_trace(ordering_group_));  // election events
    }
    if (audit_) audit_->set_trace(sink);  // detector events (single-group only)
    install_broker_hook();
}

void FabricNetwork::set_audit(obs::audit::AuditAccountant* audit) {
    if (audit != nullptr && sims_.size() > 1) {
        throw std::logic_error(
            "FabricNetwork::set_audit: the audit accountant observes global "
            "order across every component — audited runs use the serial engine "
            "(PartitionScheme::kSingle); results are byte-identical");
    }
    audit_ = audit;
    if (audit_) audit_->set_trace(trace_);
    for (const auto& c : clients_) c->set_audit(audit);
    for (const auto& p : peers_) p->set_audit(audit);
    // One dequeue observer: all OSNs cut identical blocks, so the audit
    // replays OSN 0's generator decisions against the shadow scheduler.
    osns_.front()->set_audit(audit);
    install_broker_hook();
}

void FabricNetwork::install_broker_hook() {
    obs::TraceSink* sink = group_trace(ordering_group_);
    obs::audit::AuditAccountant* audit = audit_;
    if (sink == nullptr && audit == nullptr) {
        ordering_->set_on_append(nullptr);
        return;
    }
    // The broker is record-agnostic, so the topic->level mapping lives here.
    std::unordered_map<std::string, PriorityLevel> levels;
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        levels.emplace(config_.channel.topic_for_level(l), l);
    }
    ordering_->set_on_append(
        [sink, audit, levels = std::move(levels), sim = sims_[ordering_group_].get()](
            const std::string& topic, mq::Offset offset,
            const orderer::OrderedRecord& rec, std::size_t wire) {
            if (rec.is_config()) return;  // config updates carry no tx id
            PriorityLevel level = kUnassignedPriority;
            if (const auto it = levels.find(topic); it != levels.end()) {
                level = it->second;
            }
            if (audit && !rec.is_ttc()) {
                // Wire bytes are paid per append, resubmissions included;
                // arrival order is first-append only (on_enqueue dedups).
                audit->charge(obs::audit::ResourceKind::kOrderingBandwidth,
                              rec.envelope->proposal.client.value(),
                              rec.envelope->proposal.chaincode,
                              static_cast<double>(wire), sim->now());
                audit->on_enqueue(level, rec.envelope->tx_id().value(), sim->now());
            }
            if (sink == nullptr) return;
            obs::TraceEvent ev;
            ev.at = sim->now();
            ev.actor_kind = obs::ActorKind::kBroker;
            ev.actor = 0;
            ev.priority = level;
            ev.value = offset;
            ev.value2 = wire;
            if (rec.is_ttc()) {
                ev.type = obs::EventType::kTtcEnqueue;
                ev.block = rec.ttc_block;
            } else {
                ev.type = obs::EventType::kEnqueue;
                ev.tx = rec.envelope->tx_id().value();
            }
            sink->emit(ev);
        });
}

void FabricNetwork::run(ThreadPool* pool) {
    partitions_->run(pool);
    drain_observers();
}

std::uint64_t FabricNetwork::advance_until(TimePoint end, ThreadPool* pool) {
    const std::uint64_t executed = partitions_->advance_until(end, pool);
    drain_observers();
    return executed;
}

std::uint64_t FabricNetwork::events_executed() const {
    std::uint64_t total = 0;
    for (const auto& s : sims_) total += s->events_executed();
    return total;
}

void FabricNetwork::drain_observers() {
    if (sims_.size() == 1) return;  // sinks wired directly, nothing buffered

    // Serial emission order: every buffered entry carries the EventKey of
    // the simulator event that produced it; global heap-pop order equals
    // lexicographic key order, and within one event emissions happen in
    // buffer order — so sorting by (key, group, index) reconstructs the
    // exact order a single-simulator run would have emitted.  (The group
    // component of the tiebreak never actually decides: one event executes
    // in exactly one group.)
    struct Ref {
        sim::EventKey key;
        std::size_t group;
        std::size_t idx;
    };
    const auto by_serial_order = [](const Ref& a, const Ref& b) {
        if (a.key != b.key) return a.key < b.key;
        if (a.group != b.group) return a.group < b.group;
        return a.idx < b.idx;
    };

    std::size_t total_traces = 0;
    for (const auto& s : group_sinks_) total_traces += s->size();
    if (total_traces > 0) {
        std::vector<Ref> refs;
        refs.reserve(total_traces);
        for (std::size_t g = 0; g < group_sinks_.size(); ++g) {
            const auto& keys = group_sinks_[g]->keys();
            for (std::size_t i = 0; i < keys.size(); ++i) {
                refs.push_back({keys[i], g, i});
            }
        }
        std::sort(refs.begin(), refs.end(), by_serial_order);
        if (trace_ != nullptr) {
            for (const Ref& r : refs) {
                trace_->emit(group_sinks_[r.group]->events()[r.idx]);
            }
        }
        for (const auto& s : group_sinks_) s->clear();
    }

    std::size_t total_txs = 0;
    for (const auto& b : tx_buffers_) total_txs += b.size();
    if (total_txs > 0) {
        std::vector<Ref> refs;
        refs.reserve(total_txs);
        for (std::size_t g = 0; g < tx_buffers_.size(); ++g) {
            for (std::size_t i = 0; i < tx_buffers_[g].size(); ++i) {
                refs.push_back({tx_buffers_[g][i].key, g, i});
            }
        }
        std::sort(refs.begin(), refs.end(), by_serial_order);
        if (user_tx_sink_) {
            for (const Ref& r : refs) {
                user_tx_sink_(tx_buffers_[r.group][r.idx].rec);
            }
        }
        for (auto& b : tx_buffers_) b.clear();
    }
}

void FabricNetwork::register_metrics(obs::MetricRegistry& registry,
                                     const std::string& prefix) {
    // Queue depth (consumer lag) per priority level, seen by OSN 0's
    // generator: records appended minus records its subscription consumed.
    const orderer::Osn* osn0 = osns_.front().get();
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        const std::string topic = config_.channel.topic_for_level(l);
        registry.add_gauge(
            prefix + "queue_depth_p" + std::to_string(l), [this, osn0, topic, l] {
                const auto* gen = osn0->generator();
                const std::uint64_t consumed =
                    gen ? gen->subscriptions()[l]->consumed_count() : 0;
                return static_cast<double>(ordering_->topic_size(topic)) -
                       static_cast<double>(consumed);
            });
    }
    for (std::uint32_t l = 0; l < config_.channel.effective_levels(); ++l) {
        registry.add_gauge(prefix + "block_fill_p" + std::to_string(l), [osn0, l] {
            return static_cast<double>(osn0->level_totals()[l]);
        });
    }
    registry.add_gauge(prefix + "blocks_cut", [osn0] {
        const auto* gen = osn0->generator();
        return gen ? static_cast<double>(gen->blocks_cut()) : 0.0;
    });
    registry.add_gauge(prefix + "quota_transfers", [osn0] {
        const auto* gen = osn0->generator();
        return gen ? static_cast<double>(gen->quota_transfers()) : 0.0;
    });
    registry.add_gauge(prefix + "ttcs_sent", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            if (const auto* gen = o->generator()) {
                total += static_cast<double>(gen->ttcs_sent());
            }
        }
        return total;
    });
    registry.add_gauge(prefix + "stale_ttcs", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            if (const auto* gen = o->generator()) {
                total += static_cast<double>(gen->stale_ttcs_skipped());
            }
        }
        return total;
    });
    registry.add_gauge(prefix + "mvcc_priority_wins", [this] {
        double total = 0.0;
        for (const auto& p : peers_) {
            total += static_cast<double>(p->mvcc_priority_wins());
        }
        return total;
    });
    registry.add_gauge(prefix + "mvcc_fifo_wins", [this] {
        double total = 0.0;
        for (const auto& p : peers_) {
            total += static_cast<double>(p->mvcc_fifo_wins());
        }
        return total;
    });
    registry.add_gauge(prefix + "txs_valid", [this] {
        return static_cast<double>(peers_.front()->txs_valid());
    });
    registry.add_gauge(prefix + "txs_invalid", [this] {
        return static_cast<double>(peers_.front()->txs_invalid());
    });
    registry.add_gauge(prefix + "endorse_failures", [this] {
        double total = 0.0;
        for (const auto& c : clients_) {
            total += static_cast<double>(c->client_side_failures());
        }
        return total;
    });
    registry.add_gauge(prefix + "consolidation_failures", [this] {
        double total = 0.0;
        for (const auto& o : osns_) {
            total += static_cast<double>(o->consolidation_failures());
        }
        return total;
    });
    // Degradation gauges (appended — tests look gauges up by name, so new
    // entries never shift existing series).  All zero in fault-free runs.
    registry.add_gauge(prefix + "endorse_timeouts", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->endorse_timeouts());
        return total;
    });
    registry.add_gauge(prefix + "endorse_retries", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->endorse_retries());
        return total;
    });
    registry.add_gauge(prefix + "resubmissions", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->resubmissions());
        return total;
    });
    registry.add_gauge(prefix + "commit_timeouts", [this] {
        double total = 0.0;
        for (const auto& c : clients_) total += static_cast<double>(c->commit_timeouts());
        return total;
    });
    registry.add_gauge(prefix + "osn_crashes", [this] {
        double total = 0.0;
        for (const auto& o : osns_) total += static_cast<double>(o->crashes());
        return total;
    });
    registry.add_gauge(prefix + "osn_restarts", [this] {
        double total = 0.0;
        for (const auto& o : osns_) total += static_cast<double>(o->restarts());
        return total;
    });
    registry.add_gauge(prefix + "messages_dropped", [this] {
        return static_cast<double>(net_->messages_dropped());
    });
    registry.add_gauge(prefix + "messages_duplicated", [this] {
        return static_cast<double>(net_->messages_duplicated());
    });
    registry.add_gauge(prefix + "broker_deferred_appends", [this] {
        return static_cast<double>(ordering_->deferred_appends_total());
    });
    // Parallel-validation gauges (appended, same contract as above).  All
    // zero in ValidationMode::kSerial, and — since the wave schedule is a
    // pure function of block contents — identical at every pool size.
    registry.add_gauge(prefix + "validation_parallel_blocks", [this] {
        return static_cast<double>(peers_.front()->blocks_wave_validated());
    });
    registry.add_gauge(prefix + "validation_parallel_waves", [this] {
        return static_cast<double>(peers_.front()->validation_waves());
    });
    registry.add_gauge(prefix + "validation_conflict_edges", [this] {
        return static_cast<double>(peers_.front()->conflict_edges());
    });
    registry.add_gauge(prefix + "validation_parallel_txs", [this] {
        return static_cast<double>(peers_.front()->txs_parallel_checked());
    });
    registry.add_gauge(prefix + "validation_largest_component", [this] {
        return static_cast<double>(peers_.front()->largest_conflict_component());
    });

    // Sharded world-state gauges (peer 0).  Only the deterministic counters
    // are exported — lock *acquisitions* are a pure function of the access
    // sequence, so these samples stay byte-identical at any --threads; the
    // host-dependent try-lock contention counters deliberately never appear
    // here (DESIGN.md §13).
    registry.add_gauge(prefix + "state_keys", [this] {
        return static_cast<double>(peers_.front()->state().key_count());
    });
    registry.add_gauge(prefix + "state_bytes", [this] {
        return static_cast<double>(peers_.front()->state().approx_memory_bytes());
    });
    registry.add_gauge(prefix + "state_shard_max_keys", [this] {
        return static_cast<double>(peers_.front()->state().max_shard_keys());
    });
    registry.add_gauge(prefix + "state_shard_read_locks", [this] {
        return static_cast<double>(peers_.front()->state().total_stats().read_locks);
    });
    registry.add_gauge(prefix + "state_shard_write_locks", [this] {
        return static_cast<double>(
            peers_.front()->state().total_stats().write_locks);
    });
    registry.add_gauge(prefix + "state_shard_hottest_reads", [this] {
        const ledger::WorldState& state = peers_.front()->state();
        std::uint64_t hottest = 0;
        for (std::size_t i = 0; i < state.shard_count(); ++i) {
            hottest = std::max(hottest, state.shard_stats(i).read_locks);
        }
        return static_cast<double>(hottest);
    });

    // Fairness-audit gauges: live detector counters, 0 when no accountant is
    // attached (the gauges read through the member so set_audit ordering
    // relative to register_metrics does not matter).
    registry.add_gauge(prefix + "audit_priority_inversions", [this] {
        return audit_ ? static_cast<double>(audit_->priority_inversions()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_starvations", [this] {
        return audit_ ? static_cast<double>(audit_->starvation_incidents()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_alarm_trips", [this] {
        return audit_ ? static_cast<double>(audit_->alarm_trips()) : 0.0;
    });
    registry.add_gauge(prefix + "audit_windows_closed", [this] {
        return audit_ ? static_cast<double>(audit_->windows_closed()) : 0.0;
    });

    // Raft-backend gauges (appended, same never-shift contract).  All zero
    // under the mq backend, so mq metrics JSON gains only constant columns.
    registry.add_gauge(prefix + "raft_term", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->current_term())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_leader_changes", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->leader_changes())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_elections", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->elections_started())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_commit_index", [this] {
        return raft_backend_ ? static_cast<double>(raft_backend_->commit_index())
                             : 0.0;
    });
    registry.add_gauge(prefix + "raft_replication_lag", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->replication_lag())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_snapshot_installs", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->snapshot_installs())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_resubmissions", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->leader_resubmissions())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_dup_commits_skipped", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->duplicate_commits_skipped())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_messages_dropped", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->messages_dropped())
                   : 0.0;
    });
    registry.add_gauge(prefix + "raft_consensus_messages", [this] {
        return raft_backend_
                   ? static_cast<double>(raft_backend_->consensus_messages())
                   : 0.0;
    });
}

void FabricNetwork::update_block_policy(const policy::BlockFormationPolicy& new_policy) {
    // Tag the synchronous submit with OSN 0's domain (the submitting
    // component) so the resulting event keys are layout-identical.
    sim::DomainScope scope(*sims_[ordering_group_], kOsnNodeBase);
    osns_.front()->submit_config_update(new_policy);
}

void FabricNetwork::seed_state(const std::string& key, const std::string& value) {
    for (const auto& p : peers_) {
        p->seed_state(key, value);
    }
}

bool FabricNetwork::chains_identical() const {
    for (std::size_t i = 1; i < peers_.size(); ++i) {
        if (peers_[i]->chain().chain_fingerprint() !=
            peers_[0]->chain().chain_fingerprint()) {
            return false;
        }
        if (peers_[i]->chain().height() != peers_[0]->chain().height()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::states_identical() const {
    for (std::size_t i = 1; i < peers_.size(); ++i) {
        if (peers_[i]->state().fingerprint() != peers_[0]->state().fingerprint()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::osn_blocks_identical() const {
    for (std::size_t i = 1; i < osns_.size(); ++i) {
        if (osns_[i]->block_hashes() != osns_[0]->block_hashes()) {
            return false;
        }
    }
    return true;
}

bool FabricNetwork::osn_blocks_prefix_consistent() const {
    const std::vector<crypto::Digest>* longest = &osns_[0]->block_hashes();
    for (std::size_t i = 1; i < osns_.size(); ++i) {
        if (osns_[i]->block_hashes().size() > longest->size()) {
            longest = &osns_[i]->block_hashes();
        }
    }
    for (const auto& o : osns_) {
        const std::vector<crypto::Digest>& h = o->block_hashes();
        if (!std::equal(h.begin(), h.end(), longest->begin())) {
            return false;
        }
    }
    return true;
}

}  // namespace fl::core
