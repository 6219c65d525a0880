/// \file mix.hpp
/// \brief The `daemon_mix` workload: its key space, the seeded open-loop
/// request schedule and the load generator that drives a running `qsynd`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flows.hpp"

namespace qbench
{

/// One synthesize query of the mix — a result-cache key of the daemon.
struct mix_key
{
  qsyn::reciprocal_design design = qsyn::reciprocal_design::intdiv;
  unsigned bitwidth = 0;
  qsyn::flow_params params;
};

/// Every key the mix can ask for, in a fixed order: design × n = 4..9 ×
/// rounds 1..3 × {functional (n <= 8), ESOP p = 0..2, hierarchical cleanup
/// × cut size 3..5}.
std::vector<mix_key> mix_key_space();

/// The request line the daemon receives for a key.
std::string mix_request_line( const mix_key& key );

enum class mix_op
{
  synthesize,
  ping,
  stats
};

struct mix_event
{
  double due = 0.0;          ///< seconds after the run's start
  unsigned connection = 0;   ///< 0..2 synthesize, 3 control
  mix_op op = mix_op::synthesize;
  std::size_t key = 0;       ///< index into `mix_key_space()` (synthesize)
  bool cold = false;         ///< first request of its key
};

/// The mix's load.  60 synthesize requests per second leaves the median
/// request on the cache-hit path: at 100 req/s queueing behind slow hits
/// and cold syntheses already reaches ~40% of requests, and the median
/// then swings with the machine's speed; at 200 req/s a seed can overload
/// the daemon.
struct mix_config
{
  std::uint64_t seed = 1;
  double seconds = 20.0;
  double rate = 60.0;       ///< synthesize requests per second
  double cold_share = 0.03; ///< share of synthesize requests that introduce a key
};

/// Number of synthesize connections; the control probes use one more.
inline constexpr unsigned mix_synth_connections = 3;

/// The run's request sequence, ordered by due time.  The keys the run
/// introduces, and their order, are a fixed sample of the key space (a
/// constant shuffle, cut to `cold_share` of the requests), so every seed
/// does the same cold work; the seed decides the arrival times, where in
/// the sequence each key is introduced and which seen keys the hot
/// requests re-ask.
std::vector<mix_event> mix_schedule( const mix_config& config );

/// Order-sensitive hash of a schedule (the determinism test compares it).
std::uint64_t mix_schedule_hash( const std::vector<mix_event>& events );

/// `qbench mix --socket PATH --seed N --seconds S [--trace-out FILE]`.
int run_mix_command( const std::map<std::string, std::string>& args );
/// `qbench mix-schedule --seed N --seconds S`.
int run_mix_schedule_command( const std::map<std::string, std::string>& args );

} // namespace qbench
