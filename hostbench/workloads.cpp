#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "fig_common.h"
#include "peer/endorser.h"
#include "peer/validator.h"
#include "policy/consolidation_policy.h"

namespace hostbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// Scale accounts start with this balance (harness::seed_scale_accounts'
// default); the replay seeds its fresh state the same way.
constexpr long long kInitialBalance = 1'000;

WorkloadDef paper_knee() {
    WorkloadDef w;
    w.name = "paper_knee";
    w.config = bench::paper_config(/*priority_enabled=*/true);
    w.total_txs = 20'000;
    w.total_tps = 500.0;
    w.make_generator = [] { return harness::priority_class_mix({1, 2, 1}); };
    return w;
}

WorkloadDef zipf_state() {
    WorkloadDef w;
    w.name = "zipf_state";
    core::NetworkConfig& cfg = w.config;
    cfg.orgs = 2;
    cfg.peers_per_org = 1;
    cfg.osns = 1;
    cfg.clients = 2;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.consolidation_spec = "kofn:2";
    cfg.channel.block_size = 500;
    cfg.channel.block_timeout = Duration::millis(250);
    // bench/scale_state validates in kParallel on a worker pool.  Here the
    // validator stays kSerial: on a shared 4-core host, 2 workers made the
    // drain noisier (coefficient of variation 0.12 vs 0.08 over 14
    // alternating repetitions) for no host-throughput gain.
    cfg.peer_params.state_shards = 16;
    w.total_txs = 18'000;
    w.total_tps = 2'000.0;
    w.accounts = 1'000'000;
    w.make_generator = [accounts = w.accounts] {
        return harness::zipfian_transfers(accounts, 0.99, 0.1);
    };
    return w;
}

WorkloadDef raft_failover() {
    WorkloadDef w;
    w.name = "raft_failover";
    core::NetworkConfig& cfg = w.config;
    cfg.orgs = 4;
    cfg.osns = 3;
    cfg.clients = 3;
    cfg.endorsement_k = 2;
    cfg.ordering_backend = orderer::OrderingBackendKind::kRaft;
    cfg.channel.priority_enabled = true;
    cfg.channel.priority_levels = 3;
    cfg.channel.block_policy = policy::BlockFormationPolicy::parse("2:3:1");
    cfg.channel.block_size = 50;
    cfg.channel.block_timeout = Duration::millis(200);
    client::RetryParams& retry = cfg.client_params.retry;
    retry.enabled = true;
    retry.endorsement_timeout = Duration::millis(300);
    retry.max_endorse_retries = 3;
    retry.commit_timeout = Duration::seconds(3);
    retry.max_resubmissions = 3;
    retry.backoff_base = Duration::millis(50);
    w.total_txs = 9'000;
    w.total_tps = 150.0;
    w.make_generator = [] { return harness::priority_class_mix({1, 2, 1}); };
    w.leader_kill_period_s = 10;
    return w;
}

/// Leader kills every period while traffic flows, each followed 2 s later
/// by a restart of every crashed Raft node.
std::vector<fault::ScheduledFault> leader_kills(const WorkloadDef& def) {
    std::vector<fault::ScheduledFault> schedule;
    const double traffic_s = static_cast<double>(def.total_txs) / def.total_tps;
    for (std::int64_t t = def.leader_kill_period_s;
         static_cast<double>(t) < traffic_s; t += def.leader_kill_period_s) {
        schedule.push_back(
            {Duration::seconds(t), fault::FaultKind::kRaftLeaderKill, 0});
        schedule.push_back({Duration::seconds(t + 2),
                            fault::FaultKind::kRaftNodeRestart, raft::kAllNodes});
    }
    return schedule;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

void fnv_mix(std::uint64_t& h, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fnv_mix(h, bits);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"paper_knee", "zipf_state",
                                                   "raft_failover"};
    return names;
}

WorkloadDef make_workload(const std::string& name) {
    if (name == "paper_knee") return paper_knee();
    if (name == "zipf_state") return zipf_state();
    if (name == "raft_failover") return raft_failover();
    throw std::invalid_argument("unknown workload: " + name);
}

const char* layer_name(Layer layer) {
    switch (layer) {
    case Layer::kPeer: return "peer";
    case Layer::kOrderer: return "orderer";
    case Layer::kClient: return "client";
    case Layer::kMq: return "mq";
    case Layer::kRaft: return "raft";
    case Layer::kOther: return "other";
    }
    return "other";
}

Layer layer_of(std::uint64_t domain, orderer::OrderingBackendKind backend) {
    if (domain >= core::kBrokerNode) {
        return backend == orderer::OrderingBackendKind::kRaft ? Layer::kRaft
                                                               : Layer::kMq;
    }
    if (domain >= core::kClientNodeBase) return Layer::kClient;
    if (domain >= core::kOsnNodeBase) return Layer::kOrderer;
    if (domain >= core::kPeerNodeBase) return Layer::kPeer;
    return Layer::kOther;
}

double LayerTimes::attributed() const {
    double total = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        if (static_cast<Layer>(l) != Layer::kOther) total += seconds[l];
    }
    return total;
}

std::uint64_t SimOutcome::digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t v :
         {submitted, terminal, valid, completed, endorse_retries, resubmissions,
          leader_changes, elections, blocks, block_txs, block_valid, endorsements,
          events, chain_fingerprint, state_fingerprint}) {
        fnv_mix(h, v);
    }
    for (const double v :
         {sim_tps, latency_p50_s, latency_p99_s, latency_p99_top_s, max_commit_gap_s,
          endorse_phase_p99_s, ordering_phase_p99_s, validate_phase_p99_s}) {
        fnv_mix(h, v);
    }
    return h;
}

double percentile(std::vector<double>& values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t idx =
        std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[idx];
}

Run::Run(const WorkloadDef& def, std::uint64_t seed) : def_(def) {
    const auto t0 = Clock::now();
    core::NetworkConfig cfg = def.config;
    cfg.seed = seed;
    if (def.leader_kill_period_s > 0) cfg.faults.schedule = leader_kills(def);
    net_ = std::make_unique<core::FabricNetwork>(std::move(cfg));
    records_.reserve(def.total_txs);
    net_->set_tx_sink([this](const client::TxRecord& r) { records_.push_back(r); });
    const auto t1 = Clock::now();

    harness::Workload workload;
    const std::size_t clients = net_->clients().size();
    for (std::size_t c = 0; c < clients; ++c) {
        harness::LoadSpec load;
        load.client_index = c;
        load.tps = def.total_tps / static_cast<double>(clients);
        load.generate = def.make_generator();
        workload.loads.push_back(std::move(load));
    }
    workload.distribute_total(def.total_txs);
    // Same driver stream as harness::run_once.
    driver_ = std::make_unique<harness::WorkloadDriver>(*net_, std::move(workload),
                                                        Rng(seed ^ 0x574B4C44ull));
    driver_->start();
    const auto t2 = Clock::now();

    if (def.accounts > 0) {
        harness::seed_scale_accounts(*net_, def.accounts, kInitialBalance);
    }
    const auto t3 = Clock::now();
    build_s = seconds_between(t0, t1);
    schedule_s = seconds_between(t1, t2);
    seed_state_s = seconds_between(t2, t3);
}

void Run::drain() {
    const auto start = Clock::now();
    net_->run();
    drain_s = seconds_between(start, Clock::now());
}

void Run::drain_stepped() {
    sim::Simulator& sim = net_->simulator();
    const orderer::OrderingBackendKind backend = net_->config().ordering_backend;
    layers = {};
    const auto start = Clock::now();
    auto prev = start;
    // Simulator::run_one installs the executing event's domain and leaves
    // it set after the callback returns, so domain() names the event just run.
    while (sim.step()) {
        const auto now = Clock::now();
        const auto l = static_cast<std::size_t>(layer_of(sim.domain(), backend));
        layers.seconds[l] += seconds_between(prev, now);
        ++layers.events[l];
        prev = now;
    }
    drain_s = seconds_between(start, Clock::now());
}

SimOutcome Run::check() {
    const auto start = Clock::now();
    core::FabricNetwork& net = *net_;
    SimOutcome o;
    auto fail = [&o](const char* what) { o.violations.emplace_back(what); };

    // Peer ledgers: identical, verified hash chains and identical states.
    if (!net.chains_identical()) fail("peer_chains_diverged");
    if (!net.states_identical()) fail("peer_states_diverged");
    for (const auto& p : net.peers()) {
        if (p->chain().height() == 0) fail("empty_chain");
        if (!p->chain().verify_chain()) fail("broken_hash_chain");
    }

    // Ordering service: identical block sequences, or prefix-consistent
    // while an OSN is down; crash replay re-derived every hash.
    bool all_alive = true;
    for (const auto& osn : net.osns()) {
        if (osn->replay_hash_mismatches() != 0) fail("osn_replay_hash_mismatch");
        all_alive = all_alive && osn->alive();
    }
    if (all_alive ? !net.osn_blocks_identical() : !net.osn_blocks_prefix_consistent()) {
        fail("osn_blocks_diverged");
    }

    // No transaction committed valid twice; chain shape.
    const peer::Peer& p0 = *net.peers().front();
    const ledger::BlockStore& chain = p0.chain();
    std::unordered_set<std::uint64_t> committed;
    for (std::size_t b = 0; b < chain.height(); ++b) {
        const ledger::Block& block = chain.at(b);
        ++o.blocks;
        o.block_txs += block.size();
        for (std::size_t i = 0; i < block.transactions.size(); ++i) {
            o.endorsements += block.transactions[i].endorsements.size();
            if (block.validation_codes[i] != TxValidationCode::kValid) continue;
            ++o.block_valid;
            if (!committed.insert(block.transactions[i].tx_id().value()).second) {
                fail("double_commit");
            }
        }
    }

    // Exactly one terminal state per submission, nothing left pending.
    for (const auto& c : net.clients()) {
        if (c->pending() != 0) fail("client_left_pending");
        if (c->submitted() != c->completed() + c->client_side_failures()) {
            fail("terminal_state_accounting");
        }
        o.submitted += c->submitted();
    }
    if (o.submitted != def_.total_txs) fail("workload_short");
    if (records_.size() != o.submitted) fail("tx_sink_accounting");

    if (raft::RaftOrderingBackend* rb = net.raft_backend()) {
        o.leader_changes = rb->leader_changes();
        o.elections = rb->elections_started();
        if (!rb->committed_prefixes_consistent()) fail("raft_log_matching");
        if (rb->pending_submissions() != 0) fail("raft_submission_stuck");
        if (def_.leader_kill_period_s > 0 && rb->leader_changes() == 0) {
            fail("no_failover_exercised");
        }
    }

    // Paper outputs, in simulated time.
    std::vector<double> latency, latency_top, endorse, ordering, validate, notified;
    latency.reserve(records_.size());
    notified.reserve(records_.size());
    TimePoint first_submit = TimePoint::max();
    TimePoint last_complete;
    PriorityLevel top = kUnassignedPriority;
    for (const client::TxRecord& r : records_) {
        o.endorse_retries += r.endorse_retries;
        o.resubmissions += r.resubmissions;
        first_submit = std::min(first_submit, r.submitted_at);
        last_complete = std::max(last_complete, r.completed_at);
        if (r.failed_before_ordering) continue;
        ++o.completed;
        if (is_valid(r.code)) ++o.valid;
        top = std::min(top, r.priority);
        latency.push_back(r.latency().as_seconds());
        endorse.push_back(r.endorsement_phase().as_seconds());
        ordering.push_back(r.ordering_phase().as_seconds());
        validate.push_back(r.validation_phase().as_seconds());
        notified.push_back(r.completed_at.as_seconds());
    }
    for (const client::TxRecord& r : records_) {
        if (!r.failed_before_ordering && r.priority == top) {
            latency_top.push_back(r.latency().as_seconds());
        }
    }
    o.terminal = records_.size();
    const double span_s = (last_complete - first_submit).as_seconds();
    o.sim_tps = span_s > 0.0 ? static_cast<double>(o.valid) / span_s : 0.0;
    o.latency_p50_s = percentile(latency, 50.0);
    o.latency_p99_s = percentile(latency, 99.0);
    o.latency_p99_top_s = percentile(latency_top, 99.0);
    o.endorse_phase_p99_s = percentile(endorse, 99.0);
    o.ordering_phase_p99_s = percentile(ordering, 99.0);
    o.validate_phase_p99_s = percentile(validate, 99.0);
    std::sort(notified.begin(), notified.end());
    for (std::size_t i = 1; i < notified.size(); ++i) {
        o.max_commit_gap_s = std::max(o.max_commit_gap_s, notified[i] - notified[i - 1]);
    }
    o.events = net.events_executed();
    o.chain_fingerprint = chain.chain_fingerprint();
    o.state_fingerprint = p0.state().fingerprint();
    check_s = seconds_between(start, Clock::now());
    return o;
}

ReplayTimes Run::replay() {
    ReplayTimes out;
    auto mismatch = [&out](const char* what) { out.mismatches.emplace_back(what); };
    core::FabricNetwork& net = *net_;
    const core::NetworkConfig& cfg = net.config();
    const peer::Peer& p0 = *net.peers().front();
    const ledger::BlockStore& chain = p0.chain();

    ledger::WorldState state(cfg.peer_params.state_shards);
    const std::string balance = std::to_string(kInitialBalance);
    for (std::uint64_t i = 0; i < def_.accounts; ++i) {
        state.apply(ledger::KvWrite{"acct/" + harness::scale_account_name(i), balance,
                                    false},
                    ledger::Version{0, 0});
    }
    ledger::BlockStore store;
    std::unordered_set<std::uint64_t> seen;
    std::unique_ptr<policy::ConsolidationPolicy> consolidation;
    if (cfg.channel.priority_enabled) {
        consolidation = policy::make_consolidation_policy(cfg.channel.consolidation_spec);
    }
    peer::ValidatorConfig vcfg;
    vcfg.prioritized = cfg.channel.priority_enabled;
    vcfg.verify_consolidation = cfg.channel.priority_enabled;
    vcfg.mode = cfg.peer_params.validation_mode;
    vcfg.parallel_min_txs = cfg.peer_params.validation_parallel_min_txs;

    bool codes_match = true;
    bool appended = true;
    for (std::size_t n = 0; n < chain.height(); ++n) {
        const ledger::Block& block = chain.at(n);
        const auto t0 = Clock::now();
        const peer::ValidationOutcome outcome = peer::validate_block(
            block, state, cfg.channel, consolidation.get(), net.keys(), seen, vcfg);
        const auto t1 = Clock::now();
        peer::apply_block(block, outcome, state);
        const auto t2 = Clock::now();
        out.validate_s += seconds_between(t0, t1);
        out.apply_s += seconds_between(t1, t2);
        codes_match = codes_match && outcome.codes == block.validation_codes;

        ledger::Block copy = block;
        const auto t3 = Clock::now();
        try {
            store.append(std::move(copy));
        } catch (const std::invalid_argument&) {
            appended = false;
        }
        out.append_s += seconds_between(t3, Clock::now());
    }
    if (!codes_match) mismatch("replayed_codes_differ");
    if (!appended) mismatch("append_rejected_block");
    if (state.fingerprint() != p0.state().fingerprint()) mismatch("replayed_state_differs");
    if (store.chain_fingerprint() != chain.chain_fingerprint()) {
        mismatch("replayed_chain_differs");
    }

    bool verified = true;
    const auto t0 = Clock::now();
    for (std::size_t n = 0; n < chain.height(); ++n) {
        for (const ledger::Envelope& tx : chain.at(n).transactions) {
            for (const ledger::Endorsement& e : tx.endorsements) {
                verified = peer::verify_endorsement(tx.proposal, tx.rwset, e, net.keys()) &&
                           verified;
                ++out.verifies;
            }
        }
    }
    out.verify_s = seconds_between(t0, Clock::now());
    if (!verified) mismatch("endorsement_rejected");
    return out;
}

}  // namespace hostbench
