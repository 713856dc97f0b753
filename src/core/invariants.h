// Post-drain safety invariants of one FabricNetwork (DESIGN.md §11): the
// ledger properties the paper's fairness numbers rest on — agreement on the
// order, valid hash chains, no transaction committed twice — plus exactly
// one terminal state per client submission.
//
// The one network run lifecycle behind harness::run_once and
// harness::run_multi_channel evaluates them after every drain (per
// channel), so every bench is a safety gate.  The checker reports only
// safety: scenario expectations (an OSN left dead on purpose, a failover
// that must have happened) stay with the caller.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fl::core {

class FabricNetwork;

/// Checks a drained network and returns the names of the violated
/// invariants, each at most once, in check order; empty when the run is
/// safe.  `sink_records` is the number of TxRecords the tx sink received.
///
/// Names (stable — benches print them, tests match them; DESIGN.md §11
/// tabulates when each fires): replay_hash_mismatch, osn_block_divergence,
/// osn_block_divergence_final, peer_chain_divergence, peer_state_divergence,
/// terminal_state_accounting, client_left_pending, sink_accounting,
/// broken_hash_chain, empty_chain, validation_code_count, double_commit,
/// raft_log_matching, raft_submission_stuck.
///
/// A dead OSN is not a violation by itself.  Cost: one pass over every
/// peer's chain, including a full hash-chain re-verification.
[[nodiscard]] std::vector<std::string> check_invariants(FabricNetwork& net,
                                                        std::uint64_t sink_records);

}  // namespace fl::core
