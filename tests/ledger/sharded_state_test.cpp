// Differential tests: sharded WorldState vs the single-map reference.
//
// The sharding determinism contract (ledger/world_state.h, DESIGN.md §13)
// says a WorldState at ANY shard count is observably identical to the
// pre-sharding single-map implementation.  These tests machine-check that:
// randomized write/delete streams are replayed into a ReferenceWorldState
// and into WorldStates at several shard counts (including the 1-shard
// degenerate case), and every observable — get, version_of, range,
// validate_reads, key_count, fingerprint — must agree.  A TSan-able stress
// test drives concurrent readers against the store to exercise the
// per-shard locking the wave validator relies on.
#include "ledger/world_state.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "ledger/reference_state.h"

namespace fl::ledger {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 3, 8, 16, 64};

std::string random_key(std::mt19937_64& rng) {
    // Small enough space to hit overwrite/delete paths, wide enough to
    // spread over 64 shards; mixed prefixes exercise the range merge.
    static const char* const prefixes[] = {"acct/u", "hot", "k", "zz/"};
    return prefixes[rng() % 4] + std::to_string(rng() % 400);
}

/// One random mutation applied identically to every store under test.
template <typename... Stores>
void apply_random(std::mt19937_64& rng, std::uint64_t step,
                  Stores&... stores) {
    const std::string key = random_key(rng);
    const bool is_delete = rng() % 8 == 0;
    const KvWrite write{key, is_delete ? "" : "v" + std::to_string(rng() % 100),
                        is_delete};
    const Version version{step / 16 + 1, static_cast<std::uint32_t>(step % 16)};
    (stores.apply(write, version), ...);
}

TEST(ShardedStateTest, RandomizedDifferentialAgainstReference) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const std::size_t shards : kShardCounts) {
            std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL);
            ReferenceWorldState reference;
            WorldState sharded(shards);
            for (std::uint64_t step = 0; step < 600; ++step) {
                apply_random(rng, step, reference, sharded);
            }
            const std::string ctx = "seed " + std::to_string(seed) +
                                    " shards " + std::to_string(shards);
            SCOPED_TRACE(ctx);
            ASSERT_EQ(reference.key_count(), sharded.key_count());
            ASSERT_EQ(reference.fingerprint(), sharded.fingerprint());

            // Point lookups across the whole key space (present and absent).
            for (std::uint64_t probe = 0; probe < 400; ++probe) {
                const std::string key = random_key(rng);
                EXPECT_EQ(reference.get(key), sharded.get(key)) << key;
                EXPECT_EQ(reference.version_of(key), sharded.version_of(key))
                    << key;
            }

            // Range scans must merge back into global key order.
            const std::pair<const char*, const char*> ranges[] = {
                {"", "\x7f"}, {"acct/", "acct0"}, {"hot1", "hot4"},
                {"k", "l"},   {"zz/", "zz0"},     {"nope", "nopf"},
            };
            for (const auto& [lo, hi] : ranges) {
                const auto expect = reference.range(lo, hi);
                const auto got = sharded.range(lo, hi);
                ASSERT_EQ(expect.size(), got.size()) << lo << ".." << hi;
                for (std::size_t i = 0; i < expect.size(); ++i) {
                    EXPECT_EQ(expect[i].key, got[i].key);
                    EXPECT_EQ(expect[i].version, got[i].version);
                }
            }

            // validate_reads: matching, stale and phantom cases.
            ReadWriteSet ok;
            ok.range_reads.push_back(
                RangeRead{"acct/", "acct0", reference.range("acct/", "acct0")});
            for (std::uint64_t probe = 0; probe < 50; ++probe) {
                ok.reads.push_back(
                    KvRead{random_key(rng),
                           reference.version_of(random_key(rng))});
            }
            EXPECT_EQ(reference.validate_reads(ok), sharded.validate_reads(ok));
            ReadWriteSet stale = ok;
            stale.reads.push_back(KvRead{"k1", Version{999, 0}});
            EXPECT_FALSE(sharded.validate_reads(stale));
        }
    }
}

TEST(ShardedStateTest, FingerprintIdenticalAcrossShardCounts) {
    // Same stream into every shard count at once: all fingerprints equal.
    std::vector<std::unique_ptr<WorldState>> stores;
    for (const std::size_t shards : kShardCounts) {
        stores.push_back(std::make_unique<WorldState>(shards));
    }
    std::mt19937_64 rng(42);
    for (std::uint64_t step = 0; step < 500; ++step) {
        const std::string key = random_key(rng);
        const KvWrite write{key, "v" + std::to_string(step), rng() % 9 == 0};
        for (auto& store : stores) {
            store->apply(write, Version{1, static_cast<std::uint32_t>(step)});
        }
    }
    for (std::size_t i = 1; i < stores.size(); ++i) {
        EXPECT_EQ(stores[0]->fingerprint(), stores[i]->fingerprint());
        EXPECT_EQ(stores[0]->key_count(), stores[i]->key_count());
    }
}

TEST(ShardedStateTest, ShardStatsAccounting) {
    WorldState ws(4);
    EXPECT_EQ(ws.shard_count(), 4u);
    EXPECT_EQ(ws.approx_memory_bytes(), 0u);

    ws.apply(KvWrite{"alpha", "12345", false}, Version{1, 0});
    ws.apply(KvWrite{"beta", "6", false}, Version{1, 1});
    WorldState::ShardStats totals = ws.total_stats();
    EXPECT_EQ(totals.keys, 2u);
    // Payload bytes: |alpha|+|12345| + |beta|+|6| = 10 + 5.
    EXPECT_EQ(totals.bytes, 15u);
    EXPECT_EQ(ws.approx_memory_bytes(),
              15u + 2u * WorldState::kPerEntryOverhead);
    EXPECT_GE(ws.max_shard_keys(), 1u);
    EXPECT_LE(ws.max_shard_keys(), 2u);

    // Overwrite adjusts bytes in place; delete releases them.
    ws.apply(KvWrite{"alpha", "1", false}, Version{2, 0});
    EXPECT_EQ(ws.total_stats().bytes, 11u);
    ws.apply(KvWrite{"alpha", "", true}, Version{3, 0});
    ws.apply(KvWrite{"beta", "", true}, Version{3, 1});
    totals = ws.total_stats();
    EXPECT_EQ(totals.keys, 0u);
    EXPECT_EQ(totals.bytes, 0u);
    EXPECT_EQ(ws.approx_memory_bytes(), 0u);

    // Five applies, each under the exclusive lock; per-shard sums match.
    EXPECT_EQ(totals.write_locks, 5u);
    std::uint64_t summed = 0;
    for (std::size_t s = 0; s < ws.shard_count(); ++s) {
        summed += ws.shard_stats(s).write_locks;
    }
    EXPECT_EQ(summed, 5u);
}

TEST(ShardedStateTest, ReadLockCountsAreDeterministic) {
    // The acquisition counters feed deterministic JSON: the same access
    // sequence must produce the same totals, run after run.
    const auto run_once = [] {
        WorldState ws(8);
        for (int i = 0; i < 50; ++i) {
            ws.apply(KvWrite{"k" + std::to_string(i), "v", false}, Version{1, 0});
        }
        for (int i = 0; i < 100; ++i) {
            (void)ws.get("k" + std::to_string(i % 60));
        }
        (void)ws.range("k1", "k5");
        (void)ws.fingerprint();
        return ws.total_stats();
    };
    const WorldState::ShardStats a = run_once();
    const WorldState::ShardStats b = run_once();
    EXPECT_EQ(a.read_locks, b.read_locks);
    EXPECT_EQ(a.write_locks, b.write_locks);
    EXPECT_GT(a.read_locks, 0u);
}

TEST(ShardedStateTest, ConcurrentReadersSeeConsistentState) {
    // TSan-able: many reader threads against a committed store, exactly the
    // access pattern of the wave validator's parallel MVCC prechecks.
    WorldState ws;
    ReferenceWorldState reference;
    for (int i = 0; i < 500; ++i) {
        const KvWrite w{"acct/u" + std::to_string(i), std::to_string(i), false};
        ws.apply(w, Version{1, static_cast<std::uint32_t>(i)});
        reference.apply(w, Version{1, static_cast<std::uint32_t>(i)});
    }
    const std::uint64_t want_fp = reference.fingerprint();

    ThreadPool pool(4);
    std::atomic<int> failures{0};
    parallel_for_each(pool, 64, [&](std::size_t task) {
        std::mt19937_64 rng(task);
        for (int i = 0; i < 200; ++i) {
            const std::string key = "acct/u" + std::to_string(rng() % 600);
            const auto value = ws.get(key);
            const auto version = ws.version_of(key);
            if (value.has_value() != version.has_value()) {
                failures.fetch_add(1);
            }
            ReadWriteSet s;
            s.reads.push_back(KvRead{key, version});
            if (!ws.validate_reads(s)) failures.fetch_add(1);
        }
        if (ws.fingerprint() != want_fp) failures.fetch_add(1);
        if (ws.range("acct/u10", "acct/u12").size() !=
            reference.range("acct/u10", "acct/u12").size()) {
            failures.fetch_add(1);
        }
    });
    EXPECT_EQ(failures.load(), 0);
}

TEST(ShardedStateTest, ConcurrentReadersWithWriterOnDisjointShards) {
    // Readers and a writer on different keys: per-shard locking must keep
    // this race-free (TSan checks the locking, the asserts check values).
    WorldState ws(16);
    for (int i = 0; i < 100; ++i) {
        ws.apply(KvWrite{"stable" + std::to_string(i), "s", false},
                 Version{1, 0});
    }
    std::atomic<int> failures{0};
    // The writer always completes its 2,000 writes, so all 50 moving keys
    // exist at the end however the threads are scheduled.
    std::thread writer([&] {
        for (int i = 0; i < 2000; ++i) {
            ws.apply(KvWrite{"moving" + std::to_string(i % 50),
                             std::to_string(i), false},
                     Version{2, static_cast<std::uint32_t>(i)});
        }
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            for (int i = 0; i < 2000; ++i) {
                const auto v = ws.get("stable" + std::to_string((i + t) % 100));
                if (!v || *v != "s") failures.fetch_add(1);
            }
        });
    }
    for (auto& r : readers) r.join();
    writer.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(ws.total_stats().keys, 150u);
}

}  // namespace
}  // namespace fl::ledger
