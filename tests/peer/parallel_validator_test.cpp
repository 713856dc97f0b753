// Differential tests: the conflict-graph wave validator must reproduce the
// serial reference validator bit for bit — codes, counters, applied state —
// on adversarial randomized workloads and at every pool size.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "peer/validator.h"

namespace fl::peer {
namespace {

struct Fixture {
    crypto::KeyStore keys;
    policy::ChannelConfig channel;
    std::unique_ptr<policy::ConsolidationPolicy> consolidation;

    Fixture() {
        channel.priority_levels = 3;
        channel.priority_enabled = true;
        channel.consolidation_spec = "kofn:2";
        channel.endorsement_policy = policy::EndorsementPolicy::k_of_n_orgs(2, 4);
        consolidation = policy::make_consolidation_policy(channel.consolidation_spec);
        for (std::uint64_t org = 0; org < 4; ++org) {
            keys.register_identity(
                {"org" + std::to_string(org) + ".peer0", OrgId{org}});
        }
    }

    void endorse(ledger::Envelope& env, PriorityLevel priority) {
        env.endorsements.clear();
        for (std::uint64_t org = 0; org < 4; ++org) {
            ledger::Endorsement e;
            e.endorser_identity = "org" + std::to_string(org) + ".peer0";
            e.org = OrgId{org};
            e.priority = priority;
            const Bytes payload = ledger::Envelope::endorsement_payload(
                env.proposal, env.rwset, priority);
            e.response_hash =
                crypto::sha256(BytesView(payload.data(), payload.size()));
            e.signature = keys.sign(e.endorser_identity,
                                    BytesView(payload.data(), payload.size()));
            env.endorsements.push_back(e);
        }
    }
};

/// One validator's full lifecycle state, advanced block by block.
struct Committer {
    ledger::WorldState state;
    std::unordered_set<std::uint64_t> seen;
    ValidatorConfig cfg;

    ValidationOutcome commit(const Fixture& f, const ledger::Block& block) {
        ValidationOutcome out =
            validate_block(block, state, f.channel, f.consolidation.get(), f.keys,
                           seen, cfg);
        apply_block(block, out, state);
        return out;
    }
};

void expect_same_decisions(const ValidationOutcome& a, const ValidationOutcome& b,
                           const char* context) {
    SCOPED_TRACE(context);
    EXPECT_EQ(a.codes, b.codes);
    EXPECT_EQ(a.valid_count, b.valid_count);
    EXPECT_EQ(a.conflicts_priority_resolved, b.conflicts_priority_resolved);
    EXPECT_EQ(a.conflicts_fifo_resolved, b.conflicts_fifo_resolved);
}

/// Adversarial random block: hot-key contention, priority ties, duplicate tx
/// ids, forged endorsements, stale reads, bad consolidations, range reads.
ledger::Block random_block(Fixture& f, std::mt19937_64& rng,
                           const ledger::WorldState& state, BlockNumber number,
                           std::uint64_t& next_id, std::size_t n) {
    const auto hot = [&rng] { return "hot" + std::to_string(rng() % 12); };
    std::vector<ledger::Envelope> txs;
    txs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ledger::Envelope env;
        // ~1/12 replays: reuse an id from this or an earlier block.
        const bool duplicate = next_id > 1 && rng() % 12 == 0;
        env.proposal.tx_id =
            TxId{duplicate ? 1 + rng() % (next_id - 1) : next_id++};
        env.proposal.chaincode = "test";
        env.proposal.function = "fn";
        const PriorityLevel priority = static_cast<PriorityLevel>(rng() % 3);
        env.consolidated_priority = priority;
        for (std::uint64_t r = rng() % 3; r > 0; --r) {
            const std::string key = hot();
            auto version = state.version_of(key);
            if (rng() % 10 == 0) {
                version = ledger::Version{number + 77, 0};  // stale vs committed
            }
            env.rwset.reads.push_back(ledger::KvRead{key, version});
        }
        for (std::uint64_t w = 1 + rng() % 2; w > 0; --w) {
            env.rwset.writes.push_back(ledger::KvWrite{hot(), "v", false});
        }
        if (rng() % 8 == 0) {
            // Covers hot2..hot6 ("hot10"/"hot11" sort before "hot2").
            env.rwset.range_reads.push_back(ledger::RangeRead{"hot2", "hot7", {}});
        }
        f.endorse(env, priority);
        if (rng() % 12 == 0) {
            // Forge 3 of 4 signatures -> the 2-of-4 policy must fail.
            for (std::size_t e = 1; e < env.endorsements.size(); ++e) {
                env.endorsements[e].signature.mac[0] ^= 0xFF;
            }
        } else if (rng() % 12 == 0) {
            env.consolidated_priority = (priority + 1) % 3;  // bad consolidation
        }
        txs.push_back(std::move(env));
    }
    return ledger::make_block(number, nullptr, std::move(txs));
}

TEST(ParallelValidatorTest, RandomizedDifferentialAgainstSerialOracle) {
    ThreadPool pool(3);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Fixture f;
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL);
        Committer serial;
        serial.cfg.prioritized = true;
        serial.cfg.verify_consolidation = true;
        Committer parallel;  // WorldState is non-copyable; clone the cfg only
        parallel.cfg = serial.cfg;
        parallel.cfg.mode = ValidationMode::kParallel;
        parallel.cfg.pool = &pool;

        std::uint64_t next_id = 1;
        for (BlockNumber b = 1; b <= 3; ++b) {
            const ledger::Block block =
                random_block(f, rng, serial.state, b, next_id, 48);
            const ValidationOutcome s = serial.commit(f, block);
            const ValidationOutcome p = parallel.commit(f, block);
            const std::string ctx =
                "seed " + std::to_string(seed) + " block " + std::to_string(b);
            expect_same_decisions(s, p, ctx.c_str());
            ASSERT_EQ(serial.state.fingerprint(), parallel.state.fingerprint())
                << ctx;
            // The wave path must actually have run (48 txs >= min 16).
            EXPECT_GT(p.parallel_waves, 0u) << ctx;
            EXPECT_EQ(s.parallel_waves, 0u) << ctx;
        }
    }
}

TEST(ParallelValidatorTest, VanillaFifoModeAlsoMatches) {
    // Block-order (non-prioritized) processing through the wave path.
    ThreadPool pool(2);
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        Fixture f;
        std::mt19937_64 rng(seed);
        Committer serial;  // prioritized off, consolidation off
        Committer parallel;
        parallel.cfg.mode = ValidationMode::kParallel;
        parallel.cfg.pool = &pool;
        std::uint64_t next_id = 1;
        const ledger::Block block =
            random_block(f, rng, serial.state, 1, next_id, 40);
        expect_same_decisions(serial.commit(f, block), parallel.commit(f, block),
                              "vanilla");
        EXPECT_EQ(serial.state.fingerprint(), parallel.state.fingerprint());
    }
}

TEST(ParallelValidatorTest, OutcomeIdenticalAcrossPoolSizes) {
    Fixture f;
    std::mt19937_64 rng(7);
    ledger::WorldState state;
    std::uint64_t next_id = 1;
    const ledger::Block block = random_block(f, rng, state, 1, next_id, 64);

    std::vector<ValidationOutcome> outcomes;
    for (const unsigned threads : {1u, 3u, 8u}) {
        ThreadPool pool(threads);
        Committer c;
        c.cfg.prioritized = true;
        c.cfg.verify_consolidation = true;
        c.cfg.mode = ValidationMode::kParallel;
        c.cfg.pool = &pool;
        outcomes.push_back(c.commit(f, block));
    }
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        expect_same_decisions(outcomes[0], outcomes[i], "pool size");
        // The schedule is a pure function of the block: stats match too.
        EXPECT_EQ(outcomes[0].parallel_waves, outcomes[i].parallel_waves);
        EXPECT_EQ(outcomes[0].conflict_components, outcomes[i].conflict_components);
        EXPECT_EQ(outcomes[0].conflict_edges, outcomes[i].conflict_edges);
        EXPECT_EQ(outcomes[0].largest_component, outcomes[i].largest_component);
        EXPECT_EQ(outcomes[0].wave_sizes, outcomes[i].wave_sizes);
    }
    EXPECT_GT(outcomes[0].parallel_waves, 0u);
}

TEST(ParallelValidatorTest, FallsBackToSerialWithoutPoolOrOnSmallBlocks) {
    Fixture f;
    std::mt19937_64 rng(3);
    ledger::WorldState state;
    std::uint64_t next_id = 1;

    Committer no_pool;
    no_pool.cfg.prioritized = true;
    no_pool.cfg.verify_consolidation = true;
    no_pool.cfg.mode = ValidationMode::kParallel;  // pool stays null
    const ledger::Block big = random_block(f, rng, state, 1, next_id, 32);
    EXPECT_EQ(no_pool.commit(f, big).parallel_waves, 0u);

    ThreadPool pool(2);
    Committer small_blocks;
    small_blocks.cfg.prioritized = true;
    small_blocks.cfg.verify_consolidation = true;
    small_blocks.cfg.mode = ValidationMode::kParallel;
    small_blocks.cfg.pool = &pool;
    const ledger::Block small = random_block(f, rng, state, 1, next_id, 8);
    EXPECT_EQ(small_blocks.commit(f, small).parallel_waves, 0u);  // 8 < 16

    small_blocks.cfg.parallel_min_txs = 4;
    const ledger::Block small2 = random_block(f, rng, state, 2, next_id, 8);
    EXPECT_GT(small_blocks.commit(f, small2).parallel_waves, 0u);
}

TEST(ParallelValidatorTest, PriorityWinVisibleEarlyDoesNotLeakAcrossOrder) {
    // Regression for the order_pos filter: a LOW-priority tx early in block
    // order writes "k" and is independent (wave 0); a HIGH-priority tx later
    // in block order also writes "k".  In prioritized processing order the
    // high tx comes first and must win — even though wave processing could
    // have decided the low tx in the same wave batch.
    Fixture f;
    ThreadPool pool(2);
    Committer serial;
    serial.cfg.prioritized = true;
    serial.cfg.verify_consolidation = true;
    serial.cfg.parallel_min_txs = 2;
    Committer parallel;
    parallel.cfg = serial.cfg;
    parallel.cfg.mode = ValidationMode::kParallel;
    parallel.cfg.pool = &pool;

    std::vector<ledger::Envelope> txs;
    std::uint64_t id = 1;
    const auto tx = [&](PriorityLevel prio, std::vector<std::string> writes) {
        ledger::Envelope env;
        env.proposal.tx_id = TxId{id++};
        env.proposal.chaincode = "test";
        env.proposal.function = "fn";
        for (auto& k : writes) {
            env.rwset.writes.push_back(ledger::KvWrite{std::move(k), "v", false});
        }
        env.consolidated_priority = prio;
        f.endorse(env, prio);
        return env;
    };
    txs.push_back(tx(2, {"k"}));        // low priority, first in block
    txs.push_back(tx(0, {"k", "m"}));   // high priority, later in block
    txs.push_back(tx(1, {"m", "q"}));   // chained behind the high tx via "m"
    const ledger::Block block = ledger::make_block(1, nullptr, txs);

    const ValidationOutcome s = serial.commit(f, block);
    const ValidationOutcome p = parallel.commit(f, block);
    expect_same_decisions(s, p, "early-visibility");
    EXPECT_EQ(s.codes[0], TxValidationCode::kWriteConflict);  // low loses "k"
    EXPECT_TRUE(is_valid(s.codes[1]));                        // high wins both
    EXPECT_EQ(s.codes[2], TxValidationCode::kWriteConflict);  // mid loses "m"
    EXPECT_EQ(s.conflicts_priority_resolved, 2u);
    EXPECT_EQ(serial.state.fingerprint(), parallel.state.fingerprint());
}

TEST(ParallelValidatorTest, EndToEndNetworkMatchesSerialReference) {
    // Full pipeline: two runs with identical seeds, one committing serially,
    // one through the wave validator, must produce identical artifacts —
    // metrics JSON, hash chain, world state, event count — and no violation.
    harness::ExperimentSpec spec;
    spec.config.channel.priority_enabled = true;
    spec.config.channel.block_size = 50;
    spec.config.channel.block_timeout = Duration::millis(300);
    spec.make_workload = [] {
        harness::Workload w;
        for (std::size_t c = 0; c < 3; ++c) {
            harness::LoadSpec load;
            load.client_index = c;
            load.tps = 120.0;
            load.generate = harness::contended_transfers(5);
            w.loads.push_back(std::move(load));
        }
        w.distribute_total(600);
        return w;
    };
    spec.instrument = [](core::FabricNetwork& net, unsigned) {
        harness::seed_hot_accounts(net, 5);
    };
    spec.run_probe = [](core::FabricNetwork& net,
                        std::map<std::string, double>& extra) {
        extra["wave_blocks"] =
            static_cast<double>(net.peers().front()->blocks_wave_validated());
    };

    const harness::RunResult serial = harness::run_once(spec, 91);

    ThreadPool pool(3);
    spec.config.peer_params.validation_mode = ValidationMode::kParallel;
    spec.config.peer_params.validation_pool = &pool;
    const harness::RunResult parallel = harness::run_once(spec, 91);

    EXPECT_EQ(harness::diff(serial.artifacts, parallel.artifacts),
              std::vector<std::string>{});
    EXPECT_EQ(serial.artifacts.violations, std::vector<std::string>{});
    EXPECT_EQ(serial.extra.at("wave_blocks"), 0.0);
    EXPECT_GT(parallel.extra.at("wave_blocks"), 0.0);
}

}  // namespace
}  // namespace fl::peer
