#include "core/invariants.h"

#include <algorithm>
#include <unordered_set>

#include "core/fabric_network.h"

namespace fl::core {

std::vector<std::string> check_invariants(FabricNetwork& net,
                                          std::uint64_t sink_records) {
    std::vector<std::string> violations;
    const auto fail = [&violations](const char* name) {
        if (std::find(violations.begin(), violations.end(), name) ==
            violations.end()) {
            violations.emplace_back(name);
        }
    };

    // Ordering service: agreement on the block sequence.  A crashed OSN
    // just stopped early, so only prefix consistency holds while one is
    // down; once all are alive, OSNs and the peers they feed must agree.
    bool all_alive = true;
    for (const auto& osn : net.osns()) {
        if (osn->replay_hash_mismatches() != 0) fail("replay_hash_mismatch");
        all_alive = all_alive && osn->alive();
    }
    if (!net.osn_blocks_prefix_consistent()) fail("osn_block_divergence");
    if (all_alive) {
        if (!net.osn_blocks_identical()) fail("osn_block_divergence_final");
        if (!net.chains_identical()) fail("peer_chain_divergence");
        if (!net.states_identical()) fail("peer_state_divergence");
    }

    // Exactly one state per submission — terminal, or still pending — and
    // every terminal state reached the sink.  The one terminal state a
    // client never hears of is an ordering-service rejection at priority
    // consolidation (k-of-n disagreement, paper §3.2): without a retry the
    // submission stays pending, so pending submissions must not outnumber
    // those rejections.
    std::uint64_t pending = 0;
    std::uint64_t terminal = 0;
    std::uint64_t completed = 0;
    for (const auto& client : net.clients()) {
        if (client->submitted() != client->completed() +
                                       client->client_side_failures() +
                                       client->pending()) {
            fail("terminal_state_accounting");
        }
        pending += client->pending();
        terminal += client->completed() + client->client_side_failures();
        completed += client->completed();
    }
    std::uint64_t rejected = 0;
    for (const auto& osn : net.osns()) rejected += osn->consolidation_failures();
    if (pending > rejected) fail("client_left_pending");
    if (terminal != sink_records) fail("sink_accounting");

    // Peer ledgers: verified hash chains, well-formed blocks, and no tx id
    // carrying the VALID verdict twice (resubmitted duplicates must land as
    // kDuplicateTxId).
    for (const auto& peer : net.peers()) {
        const ledger::BlockStore& chain = peer->chain();
        if (!chain.verify_chain()) fail("broken_hash_chain");
        if (chain.height() == 0 && completed != 0) fail("empty_chain");
        std::unordered_set<std::uint64_t> committed;
        for (std::size_t b = 0; b < chain.height(); ++b) {
            const ledger::Block& block = chain.at(b);
            if (block.validation_codes.size() != block.transactions.size()) {
                fail("validation_code_count");
                continue;
            }
            for (std::size_t i = 0; i < block.transactions.size(); ++i) {
                if (block.validation_codes[i] == TxValidationCode::kValid &&
                    !committed.insert(block.transactions[i].tx_id().value()).second) {
                    fail("double_commit");
                }
            }
        }
    }

    if (raft::RaftOrderingBackend* rb = net.raft_backend()) {
        if (!rb->committed_prefixes_consistent()) fail("raft_log_matching");
        if (rb->pending_submissions() != 0) fail("raft_submission_stuck");
    }
    return violations;
}

}  // namespace fl::core
