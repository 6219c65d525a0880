#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/dse.hpp"
#include "reversible/verify.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

dse_point make_point( unsigned qubits, std::uint64_t t_count )
{
  dse_point p;
  p.result.costs.qubits = qubits;
  p.result.costs.t_count = t_count;
  return p;
}

bool contains( const std::vector<std::size_t>& front, std::size_t index )
{
  return std::find( front.begin(), front.end(), index ) != front.end();
}

} // namespace

// --- pareto_front edge cases -------------------------------------------------

TEST( dse_pareto, dominated_point_is_excluded )
{
  const std::vector<dse_point> points = {
      make_point( 10, 100 ), // dominated by both others
      make_point( 5, 100 ),
      make_point( 10, 50 ),
  };
  const auto front = pareto_front( points );
  EXPECT_FALSE( contains( front, 0 ) );
  EXPECT_TRUE( contains( front, 1 ) );
  EXPECT_TRUE( contains( front, 2 ) );
}

TEST( dse_pareto, tied_points_are_both_kept )
{
  // Equal on both axes: neither strictly improves the other, so both stay.
  const std::vector<dse_point> points = { make_point( 5, 50 ), make_point( 5, 50 ) };
  const auto front = pareto_front( points );
  EXPECT_EQ( front.size(), 2u );
}

TEST( dse_pareto, duplicates_of_a_dominated_point_all_fall )
{
  const std::vector<dse_point> points = {
      make_point( 9, 90 ),
      make_point( 9, 90 ),
      make_point( 3, 30 ),
  };
  const auto front = pareto_front( points );
  EXPECT_EQ( front.size(), 1u );
  EXPECT_TRUE( contains( front, 2 ) );
}

TEST( dse_pareto, incomparable_points_all_survive )
{
  const std::vector<dse_point> points = {
      make_point( 1, 100 ), make_point( 2, 50 ), make_point( 3, 10 ) };
  EXPECT_EQ( pareto_front( points ).size(), 3u );
}

TEST( dse_pareto, single_and_empty )
{
  EXPECT_TRUE( pareto_front( {} ).empty() );
  const std::vector<dse_point> one = { make_point( 4, 4 ) };
  EXPECT_EQ( pareto_front( one ).size(), 1u );
}

// --- dse_label ---------------------------------------------------------------

TEST( dse_label, covers_every_configuration )
{
  flow_params p;
  p.kind = flow_kind::functional;
  p.bidirectional_tbs = true;
  EXPECT_EQ( dse_label( p ), "functional(tbs,bidir)" );
  p.bidirectional_tbs = false;
  EXPECT_EQ( dse_label( p ), "functional(tbs,uni)" );

  p.kind = flow_kind::esop_based;
  for ( unsigned esop_p = 0; esop_p <= 2u; ++esop_p )
  {
    p.esop_p = esop_p;
    EXPECT_EQ( dse_label( p ), "esop(p=" + std::to_string( esop_p ) + ")" );
  }

  p.kind = flow_kind::hierarchical;
  p.cleanup = cleanup_strategy::keep_garbage;
  EXPECT_EQ( dse_label( p ), "hierarchical(garbage)" );
  p.cleanup = cleanup_strategy::bennett;
  EXPECT_EQ( dse_label( p ), "hierarchical(bennett)" );
  p.cleanup = cleanup_strategy::eager;
  EXPECT_EQ( dse_label( p ), "hierarchical(eager)" );
}

TEST( dse_label, default_sweep_labels_are_distinct )
{
  const auto configs = default_dse_configurations( true );
  std::vector<std::string> labels;
  for ( const auto& c : configs )
  {
    labels.push_back( dse_label( c ) );
  }
  auto sorted = labels;
  std::sort( sorted.begin(), sorted.end() );
  EXPECT_EQ( std::unique( sorted.begin(), sorted.end() ), sorted.end() );
}

// --- parallel cached explore == one run_flow_on_aig per configuration -------

TEST( dse_engine, parallel_cached_matches_sequential_bit_for_bit )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  const auto configs = default_dse_configurations( true );

  explore_options parallel;
  parallel.num_threads = 4;
  flow_artifact_cache cache;
  const auto par = explore( mod.aig, configs, parallel, &cache );

  ASSERT_EQ( configs.size(), par.size() );
  for ( std::size_t i = 0; i < configs.size(); ++i )
  {
    const auto seq = run_flow_on_aig( mod.aig, configs[i] );
    EXPECT_EQ( dse_label( configs[i] ), par[i].label ) << i;
    EXPECT_EQ( seq.costs.qubits, par[i].result.costs.qubits ) << par[i].label;
    EXPECT_EQ( seq.costs.t_count, par[i].result.costs.t_count ) << par[i].label;
    EXPECT_EQ( seq.costs.gates, par[i].result.costs.gates ) << par[i].label;
    EXPECT_EQ( seq.esop_terms, par[i].result.esop_terms ) << par[i].label;
    EXPECT_TRUE( par[i].result.verified ) << par[i].label;
  }
  // One miss per distinct artifact (optimized AIG, functional, ESOP, XMG),
  // everything else hits.
  EXPECT_EQ( cache.stats().misses, 4u );
  EXPECT_GT( cache.stats().hits, 0u );
}

TEST( dse_engine, runtime_excludes_verification )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verify = false;
  const auto unverified = run_flow_on_aig( mod.aig, params );
  EXPECT_EQ( unverified.verify_seconds, 0.0 );
  EXPECT_FALSE( unverified.verified );

  params.verify = true;
  const auto verified = run_flow_on_aig( mod.aig, params );
  EXPECT_TRUE( verified.verified );
  EXPECT_GE( verified.verify_seconds, 0.0 );
}

TEST( dse_engine, cache_is_bound_to_one_design )
{
  const auto a = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  const auto b = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 5 ) );
  flow_artifact_cache cache;
  flow_params params;
  params.kind = flow_kind::esop_based;
  run_flow_staged( a.aig, params, cache );
  EXPECT_THROW( run_flow_staged( b.aig, params, cache ), std::invalid_argument );
}

TEST( dse_engine, second_staged_run_hits_every_stage )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  flow_artifact_cache cache;
  flow_params params;
  params.kind = flow_kind::hierarchical;
  run_flow_staged( mod.aig, params, cache );
  const auto misses_before = cache.stats().misses;
  const auto r = run_flow_staged( mod.aig, params, cache );
  EXPECT_EQ( cache.stats().misses, misses_before ); // no new stage work
  EXPECT_TRUE( r.verified );
}

TEST( dse_engine, explore_designs_batches_both_designs )
{
  explore_options options;
  options.functional_max_bitwidth = 4;
  const auto explorations = explore_designs(
      { reciprocal_design::intdiv, reciprocal_design::newton }, 4, 5, options );
  ASSERT_EQ( explorations.size(), 4u );
  EXPECT_EQ( explorations[0].name, "INTDIV(4)" );
  EXPECT_EQ( explorations[1].name, "NEWTON(4)" );
  EXPECT_EQ( explorations[2].name, "INTDIV(5)" );
  EXPECT_EQ( explorations[3].name, "NEWTON(5)" );
  // n = 4 includes the functional flow (7 configs), n = 5 does not (6).
  EXPECT_EQ( explorations[0].points.size(), 7u );
  EXPECT_EQ( explorations[2].points.size(), 6u );
  for ( const auto& e : explorations )
  {
    EXPECT_GT( e.cache.misses, 0u );
    EXPECT_GT( e.cache.hits, 0u );
    for ( const auto& p : e.points )
    {
      EXPECT_TRUE( p.result.verified ) << e.name << " " << p.label;
    }
  }
}

// --- exhaustive small-design verification ------------------------------------

TEST( dse_verify, exhaustive_below_sample_budget_finds_rare_counterexample )
{
  // f(x0, x1) = x0 AND x1.  The circuit instead computes x0 OR x1 — wrong
  // on exactly the two single-bit patterns.  Exhaustive enumeration (4
  // vectors <= any sample budget) must find one; before the fix, tiny
  // designs were "verified" by drawing duplicate random vectors, which
  // could in principle miss a rare pattern entirely.
  aig_network aig( 2 );
  aig.add_po( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ) );

  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).constant_value = false;
  circuit.line( 2 ).output_index = 0;
  circuit.line( 2 ).is_garbage = false;
  // OR via De Morgan: negative-control Toffoli then NOT.
  circuit.add_gate( toffoli_gate{ { { 0, false }, { 1, false } }, 2 } );
  circuit.add_not( 2 );

  const auto cex = verify_against_aig_sampled( circuit, aig, 256, 1 );
  ASSERT_TRUE( cex.has_value() );
  // The counterexample must be one of the two patterns where OR != AND.
  EXPECT_NE( ( *cex )[0], ( *cex )[1] );
}

TEST( dse_verify, exhaustive_certifies_correct_circuit )
{
  aig_network aig( 2 );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );

  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).output_index = 0;
  circuit.line( 2 ).is_garbage = false;
  circuit.add_cnot( 0, 2 );
  circuit.add_cnot( 1, 2 );

  EXPECT_FALSE( verify_against_aig_sampled( circuit, aig, 256, 1 ).has_value() );
}

// --- thread pool -------------------------------------------------------------

TEST( dse_threads, pool_runs_every_job_exactly_once )
{
  thread_pool pool( 4 );
  constexpr std::size_t num_jobs = 64;
  std::vector<std::atomic<int>> ran( num_jobs );
  for ( std::size_t i = 0; i < num_jobs; ++i )
  {
    pool.submit( [&ran, i] { ran[i].fetch_add( 1 ); } );
  }
  pool.wait();
  for ( std::size_t i = 0; i < num_jobs; ++i )
  {
    EXPECT_EQ( ran[i].load(), 1 ) << i;
  }
}

TEST( dse_threads, inline_pool_runs_jobs_in_submission_order )
{
  thread_pool pool( 1 ); // no workers: inline, deterministic
  EXPECT_EQ( pool.num_workers(), 0u );
  std::vector<int> order;
  for ( int i = 0; i < 8; ++i )
  {
    pool.submit( [&order, i] { order.push_back( i ); } );
  }
  pool.wait();
  ASSERT_EQ( order.size(), 8u );
  EXPECT_TRUE( std::is_sorted( order.begin(), order.end() ) );
}

TEST( dse_threads, first_job_exception_is_rethrown_from_wait )
{
  thread_pool pool( 2 );
  for ( int i = 0; i < 4; ++i )
  {
    pool.submit( [] { throw std::runtime_error( "boom" ); } );
  }
  EXPECT_THROW( pool.wait(), std::runtime_error );
  // The pool stays usable after an exception.
  std::atomic<int> ran{ 0 };
  pool.submit( [&ran] { ran.fetch_add( 1 ); } );
  pool.wait();
  EXPECT_EQ( ran.load(), 1 );
}
