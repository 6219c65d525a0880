/// \file replay.hpp
/// \brief The traced replay: re-runs a workload's designs and
/// configurations single-threaded, calling the library's public stage
/// functions in flow order with a span around each call.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/flows.hpp"
#include "spans.hpp"

namespace qbench
{

/// One design of a replay and the configurations run on it (configs
/// sharing a stage artifact share it here too, as in `flow_artifact_cache`).
struct replay_design
{
  qsyn::reciprocal_design design = qsyn::reciprocal_design::intdiv;
  unsigned bitwidth = 0;
  std::string name;
  std::vector<qsyn::flow_params> configs;
};

/// What the replay computed for one configuration — the fields the
/// consistency check compares with the program's own `flow_result`.
struct replay_outcome
{
  qsyn::cost_report costs;
  bool verified = false;
  std::size_t aig_nodes_optimized = 0;
  std::size_t esop_terms = 0;
  std::size_t xmg_maj = 0;
  std::size_t xmg_xor = 0;
};

/// Work counts of a replay (the per-layer counters).
struct replay_counts
{
  std::size_t verilog_ands = 0;
  std::size_t optimize_ands_in = 0;
  std::size_t optimize_ands_out = 0;
  std::size_t lut_map_ands_in = 0;
  std::size_t luts = 0;
  std::size_t xmg_maj = 0;
  std::size_t xmg_xor = 0;
  std::size_t embed_lines = 0;
  std::size_t exorcism_terms = 0;
  std::size_t rsynth_gates = 0;
  std::uint64_t verify_assignments = 0;
  std::size_t sat_checks = 0;
  std::uint64_t sat_conflicts = 0;
  std::size_t sat_fraig_merges = 0;
  /// Per design: elaborate + optimize + the slowest artifact branch with
  /// its slowest tail — the sweep's critical path with no lock and
  /// unlimited workers — maximised over designs.
  double crit_ideal_seconds = 0.0;
  /// Replayed optimize rounds whose AIG hash differed from `optimize()`.
  std::size_t hash_mismatches = 0;
};

struct replay_result
{
  std::vector<std::vector<replay_outcome>> outcomes; ///< [design][config]
  replay_counts counts;
  double seconds = 0.0; ///< whole replay, end to end
};

/// Replays `designs` under the verification tier `mode`.  With
/// `deferred_sim_verify` the sampled checks of non-functional flows are
/// left out of the per-design critical path (the sweep engine runs them in
/// a batch after its graph).  `check_optimize_hash` re-runs `optimize()`
/// outside every span and compares content hashes.
replay_result replay_designs( const std::vector<replay_design>& designs, qsyn::verify_mode mode,
                              bool deferred_sim_verify, bool check_optimize_hash,
                              span_recorder& spans );

/// Compares a replay outcome with the program's result for the same
/// configuration; returns an empty string when they agree.
std::string compare_outcome( const replay_outcome& replayed, const qsyn::flow_result& program );

/// The stage spans whose self times make up the per-layer ranking.
const std::vector<std::string>& stage_names();

/// Adds the replay's per-layer metrics (`<stage>.ms`, `<stage>.share`,
/// the counters, `trace.overhead_frac`) to `metrics`.
void add_replay_metrics( std::map<std::string, double>& metrics, const replay_result& traced,
                         const span_recorder& spans, double plain_seconds );

/// `qbench replay --workload NAME --seed N --trace-out FILE`.
int run_replay_command( const std::map<std::string, std::string>& args );

} // namespace qbench
