/// \file sweep.cpp
/// \brief `qbench sweep`: one cold `explore_designs` run of a DSE workload
/// in this (fresh) process, followed by the independent output check.
///
/// Prints one JSON line.  Everything timed happens before the check; the
/// check evaluates every synthesized circuit over its whole input range and
/// compares it with the host reciprocal model, so a wrong circuit is caught
/// even when the program's own verification tier would accept it.

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/thread_pool.hpp"
#include "core/dse.hpp"
#include "reversible/verify.hpp"
#include "sweep.hpp"
#include "verilog/generators.hpp"

namespace qbench
{

namespace
{

/// Evaluates the circuit on every input x in [0, 2^n) at once, 64
/// assignments per word, and returns y(x) — the benchmark's own evaluator,
/// sharing no code with the library's simulation engines.
std::vector<std::uint64_t> evaluate_all_inputs( const qsyn::reversible_circuit& circuit,
                                                const std::vector<std::uint32_t>& in_lines,
                                                const std::vector<std::uint32_t>& out_lines,
                                                unsigned n )
{
  const std::uint64_t count = std::uint64_t{ 1 } << n;
  const std::size_t words = static_cast<std::size_t>( ( count + 63u ) / 64u );
  std::vector<std::uint64_t> state( circuit.num_lines() * words, 0u );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input && circuit.line( l ).constant_value )
    {
      std::fill_n( state.begin() + l * words, words, ~std::uint64_t{ 0 } );
    }
  }
  static constexpr std::uint64_t low_patterns[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull };
  for ( unsigned i = 0; i < n; ++i )
  {
    for ( std::size_t w = 0; w < words; ++w )
    {
      state[in_lines[i] * words + w] =
          i < 6u ? low_patterns[i] : ( ( ( w >> ( i - 6u ) ) & 1u ) ? ~std::uint64_t{ 0 } : 0u );
    }
  }
  for ( const auto& gate : circuit.gates() )
  {
    for ( std::size_t w = 0; w < words; ++w )
    {
      std::uint64_t fire = ~std::uint64_t{ 0 };
      for ( const auto& c : gate.controls )
      {
        const auto v = state[c.line * words + w];
        fire &= c.positive ? v : ~v;
      }
      state[gate.target * words + w] ^= fire;
    }
  }
  std::vector<std::uint64_t> y( count, 0u );
  for ( std::uint64_t x = 0; x < count; ++x )
  {
    for ( unsigned b = 0; b < n; ++b )
    {
      y[x] |= ( ( state[out_lines[b] * words + x / 64u] >> ( x % 64u ) ) & 1u ) << b;
    }
  }
  return y;
}

} // namespace

std::string check_reciprocal_circuit( qsyn::reciprocal_design design, unsigned n,
                                      const qsyn::reversible_circuit& circuit )
{
  const auto in_lines = qsyn::input_lines_of( circuit );
  const auto out_lines = qsyn::output_lines_of( circuit );
  if ( in_lines.size() != n || out_lines.size() != n )
  {
    return "interface is not " + std::to_string( n ) + " -> " + std::to_string( n ) + " bits";
  }
  const auto y = evaluate_all_inputs( circuit, in_lines, out_lines, n );
  // NEWTON approximates the reciprocal: start at x = 2 and allow an error
  // of 2, the tolerance the design's own test uses.  INTDIV is exact.
  const bool exact = design == qsyn::reciprocal_design::intdiv;
  for ( std::uint64_t x = exact ? 1u : 2u; x < y.size(); ++x )
  {
    const auto expected = qsyn::verilog::reciprocal_reference( n, x );
    const auto error = y[x] > expected ? y[x] - expected : expected - y[x];
    if ( error > ( exact ? 0u : 2u ) )
    {
      return "x=" + std::to_string( x ) + " gives " + std::to_string( y[x] ) + ", expected " +
             std::to_string( expected );
    }
  }
  // The library's scalar reference evaluator must agree on a spread of
  // inputs (all 2^n per circuit would cost more than the sweep itself).
  std::vector<bool> inputs( n );
  for ( std::uint64_t k = 0; k < 8u; ++k )
  {
    const auto x = 1u + ( k * 0x9e3779b97f4a7c15ull >> 7 ) % ( y.size() - 1u );
    for ( unsigned b = 0; b < n; ++b )
    {
      inputs[b] = ( ( x >> b ) & 1u ) != 0u;
    }
    const auto out = qsyn::evaluate_circuit( circuit, inputs );
    std::uint64_t scalar = 0;
    for ( unsigned b = 0; b < n; ++b )
    {
      scalar |= static_cast<std::uint64_t>( out[b] ) << b;
    }
    if ( scalar != y[x] )
    {
      return "evaluate_circuit disagrees with the word-parallel check at x=" + std::to_string( x );
    }
  }
  return {};
}

void outcome_tally::add( const qsyn::flow_result& result, const std::string& where,
                         const std::string& check_error )
{
  const bool ok = result.status == qsyn::flow_status::ok;
  bool bad = !( ok && result.verified );
  if ( ok && result.counterexample )
  {
    add_error( where + ": the program's verify tier found a counterexample" );
  }
  if ( !check_error.empty() )
  {
    add_error( where + ": " + check_error );
    bad = true;
  }
  failed += bad ? 1u : 0u;
}

void outcome_tally::add_error( const std::string& error )
{
  ++wrong;
  if ( first_error.empty() )
  {
    first_error = error;
  }
}

sweep_totals summarize_sweep( const std::vector<qsyn::design_exploration>& batch )
{
  sweep_totals totals;
  for ( const auto& entry : batch )
  {
    totals.design_wall_ms.push_back( entry.wall_seconds * 1e3 );
    totals.cache_hits += entry.cache.hits;
    totals.cache_misses += entry.cache.misses;
    for ( const auto& point : entry.points )
    {
      ++totals.flows;
      const auto& r = point.result;
      if ( r.status == qsyn::flow_status::ok && r.verified )
      {
        ++totals.flows_ok_verified;
      }
      totals.t_count_sum += r.costs.t_count;
      totals.qubits_sum += r.costs.qubits;
    }
  }
  return totals;
}

int run_sweep_command( const std::map<std::string, std::string>& args )
{
  const auto seed = std::stoull( arg_or( args, "seed", "1" ) );
  const auto workload = sweep_workload_named( arg_or( args, "workload", "" ), seed );
  const auto threads = sweep_threads();

  // Set-up ends when the work could be submitted: the process is up and a
  // pool of the sweep's size has been built (and torn down again — the
  // sweep builds its own).
  {
    qsyn::thread_pool pool( threads );
  }
  const double ready = mono_now();

  qsyn::explore_options options;
  options.num_threads = threads;
  options.functional_max_bitwidth = workload.functional_max_bitwidth;
  options.verification = workload.verification;
  const double start = mono_now();
  const auto batch = qsyn::explore_designs( workload.designs, workload.min_bitwidth,
                                            workload.max_bitwidth, options );
  const double wall = mono_now() - start;
  const double rss = peak_rss_mb();

  const auto totals = summarize_sweep( batch );
  outcome_tally tally;
  for ( const auto& entry : batch )
  {
    if ( entry.points.empty() )
    {
      tally.add_error( entry.name + ": " + entry.status_detail );
    }
    for ( const auto& point : entry.points )
    {
      tally.add( point.result, entry.name + " " + point.label,
                 check_reciprocal_circuit( entry.design, entry.bitwidth, point.result.circuit ) );
    }
  }

  json_object out;
  out.num( "ready_mono", ready )
      .num( "wall_s", wall )
      .num( "peak_rss_mb", rss )
      .integer( "flows", totals.flows )
      .integer( "flows_ok_verified", totals.flows_ok_verified )
      .integer( "failed", tally.failed )
      .integer( "wrong", tally.wrong )
      .str( "first_error", tally.first_error )
      .integer( "t_count_sum", totals.t_count_sum )
      .integer( "qubits_sum", totals.qubits_sum )
      .raw( "design_wall_ms", json_array( totals.design_wall_ms ) );
  std::printf( "%s\n", out.text().c_str() );
  return 0;
}

} // namespace qbench
