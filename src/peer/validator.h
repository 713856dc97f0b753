// Block validation — including the paper's Prioritized Validator (§3.4).
//
// For every transaction in a block the committer checks, in order:
//   1. duplicate transaction id (replay);
//   2. endorsement signatures + endorsement policy;
//   3. (priority mode) that the consolidated priority the OSN stamped is
//      what the consolidation policy yields from the endorsers' signed
//      votes — a byzantine/buggy OSN cannot silently promote a transaction;
//   4. MVCC read-set validity against committed state;
//   5. intra-block conflicts against already-accepted transactions.
//
// Conflict resolution order is the one novel bit: the standard Fabric
// validator accepts the transaction that appears *earlier in the block*;
// the prioritized validator processes transactions in consolidated-priority
// order (stable within a level, preserving the generator's per-level FIFO),
// so on a rw/ww conflict the higher-priority transaction survives.
// Validation codes are reported in block order either way, and writes are
// applied with block-order version stamps, so all committers converge.
//
// Two execution strategies produce that result (ValidationMode):
//   * kSerial — the reference oracle: one pass over the processing order.
//   * kParallel — checks 1–4 for all transactions fan out over a borrowed
//     ThreadPool (signature verification dominates block validation cost,
//     per the Fabric bottleneck studies in PAPERS.md), then step 5 runs in
//     conflict-graph waves (peer/conflict_graph.h): transactions with no
//     write-set dependency on an undecided predecessor are resolved
//     concurrently, wave by wave.  The outcome — codes, counters, applied
//     state — is bit-identical to kSerial at any pool size; the equivalence
//     argument is spelled out in DESIGN.md §12 and enforced by the
//     differential tests and bench/equivalence.
#pragma once

#include <unordered_set>
#include <vector>

#include "crypto/signature.h"
#include "ledger/block.h"
#include "ledger/world_state.h"
#include "policy/channel_config.h"
#include "policy/consolidation_policy.h"

namespace fl {
class ThreadPool;
}

namespace fl::peer {

/// How validate_block executes (never what it computes).
enum class ValidationMode : std::uint8_t {
    kSerial = 0,   ///< single-threaded reference path
    kParallel = 1  ///< pool-parallel signature phase + conflict-graph waves
};

struct ValidationOutcome {
    /// One code per transaction, in block order.
    std::vector<TxValidationCode> codes;
    std::size_t valid_count = 0;
    /// Intra-block conflicts where the surviving transaction had a strictly
    /// higher (numerically lower) priority than the loser — i.e. where the
    /// prioritized processing order changed who wins vs vanilla Fabric.
    std::uint64_t conflicts_priority_resolved = 0;
    /// Intra-block conflicts resolved purely by arrival order (equal
    /// priorities, or the validator is running in vanilla block-order mode).
    std::uint64_t conflicts_fifo_resolved = 0;

    // -- parallel-path schedule statistics ----------------------------------
    // Filled only when the wave path ran (parallel_waves > 0); pure
    // functions of the block contents, so identical at any pool size.
    /// Conflict-resolution waves the block needed (1 = fully independent).
    std::uint32_t parallel_waves = 0;
    /// Connected components of the conflict graph over the candidate txs.
    std::uint32_t conflict_components = 0;
    /// Dependency edges in the conflict graph.
    std::uint64_t conflict_edges = 0;
    /// Largest conflict component (bounds achievable wave parallelism).
    std::uint64_t largest_component = 0;
    /// Transactions whose checks 1–4 ran on the pool.
    std::uint64_t parallel_checked = 0;
    /// Candidate transactions per wave, in wave order (for trace events).
    std::vector<std::uint32_t> wave_sizes;
};

struct ValidatorConfig {
    /// Resolve intra-block conflicts by priority (the paper's validator)
    /// instead of block order (vanilla Fabric).
    bool prioritized = false;
    /// Re-check the OSN's consolidated priority against endorser votes.
    bool verify_consolidation = false;
    /// Execution strategy; kParallel needs `pool` (falls back to the serial
    /// path when the pool is null or the block is below parallel_min_txs).
    ValidationMode mode = ValidationMode::kSerial;
    /// Borrowed worker pool for kParallel.  Safe to pass the sweep harness's
    /// pool even though validation runs inside a sweep-point task —
    /// parallel_for_each supports nested fork-join (common/thread_pool.h).
    ThreadPool* pool = nullptr;
    /// Blocks smaller than this run serially even in kParallel: fan-out
    /// overhead beats the win on tiny blocks, and the outcome is identical
    /// either way.
    std::size_t parallel_min_txs = 16;
};

/// Validates `block` against `state`.  `seen_tx_ids` is the committer's
/// replay filter; validated ids are inserted into it.  Does not modify
/// `state` — call apply_block() afterwards.
[[nodiscard]] ValidationOutcome validate_block(
    const ledger::Block& block, const ledger::WorldState& state,
    const policy::ChannelConfig& channel, const policy::ConsolidationPolicy* consolidation,
    const crypto::KeyStore& keys, std::unordered_set<std::uint64_t>& seen_tx_ids,
    const ValidatorConfig& cfg);

/// Applies the writes of all valid transactions, stamping versions with the
/// block number and the *block-order* transaction index.
void apply_block(const ledger::Block& block, const ValidationOutcome& outcome,
                 ledger::WorldState& state);

}  // namespace fl::peer
