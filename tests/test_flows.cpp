#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/dse.hpp"
#include "core/flows.hpp"
#include "sat/incremental.hpp"
#include "reversible/verify.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

TEST( flows, functional_flow_verifies_and_is_line_optimum )
{
  flow_params params;
  params.kind = flow_kind::functional;
  for ( const unsigned n : { 3u, 4u, 5u } )
  {
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    EXPECT_TRUE( result.verified ) << "n=" << n;
    // The Table II observation: optimum embedding uses 2n-1 qubits.
    EXPECT_EQ( result.costs.qubits, 2u * n - 1u ) << "n=" << n;
    EXPECT_EQ( result.embedding_lines, 2u * n - 1u );
  }
}

TEST( flows, esop_flow_uses_2n_qubits_at_p0 )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  for ( const unsigned n : { 3u, 4u, 5u } )
  {
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    EXPECT_TRUE( result.verified ) << "n=" << n;
    EXPECT_EQ( result.costs.qubits, 2u * n ) << "n=" << n; // Table III, p = 0
  }
}

TEST( flows, esop_p1_adds_lines )
{
  flow_params p0;
  p0.kind = flow_kind::esop_based;
  p0.esop_p = 0;
  flow_params p1 = p0;
  p1.esop_p = 2;
  const auto r0 = run_reciprocal_flow( reciprocal_design::intdiv, 5, p0 );
  const auto r1 = run_reciprocal_flow( reciprocal_design::intdiv, 5, p1 );
  EXPECT_TRUE( r0.verified );
  EXPECT_TRUE( r1.verified );
  EXPECT_GE( r1.costs.qubits, r0.costs.qubits ); // factoring costs lines
}

TEST( flows, hierarchical_flow_all_cleanups_verify )
{
  for ( const auto cleanup : { cleanup_strategy::keep_garbage, cleanup_strategy::bennett,
                               cleanup_strategy::eager } )
  {
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cleanup = cleanup;
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
    EXPECT_TRUE( result.verified );
    EXPECT_GT( result.xmg_maj + result.xmg_xor, 0u );
  }
}

TEST( flows, newton_design_through_flows )
{
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    const auto result = run_reciprocal_flow( reciprocal_design::newton, 4, params );
    EXPECT_TRUE( result.verified );
  }
}

TEST( flows, qubit_t_count_ordering_matches_paper )
{
  // Sec. V: functional has fewest qubits but by far the largest T-count;
  // ESOP sits between the flows on qubits; hierarchical pays the most
  // qubits.  (ESOP vs. hierarchical T-count flips with n — Table III/IV —
  // so only the functional flow's extremes are asserted.)
  const unsigned n = 5;
  flow_params functional;
  functional.kind = flow_kind::functional;
  flow_params esop;
  esop.kind = flow_kind::esop_based;
  flow_params hier;
  hier.kind = flow_kind::hierarchical;
  const auto rf = run_reciprocal_flow( reciprocal_design::intdiv, n, functional );
  const auto re = run_reciprocal_flow( reciprocal_design::intdiv, n, esop );
  const auto rh = run_reciprocal_flow( reciprocal_design::intdiv, n, hier );
  EXPECT_LT( rf.costs.qubits, re.costs.qubits );
  EXPECT_LT( re.costs.qubits, rh.costs.qubits );
  EXPECT_GT( rf.costs.t_count, re.costs.t_count );
  EXPECT_GT( rf.costs.t_count, rh.costs.t_count );
}

TEST( flows, optimization_reduces_aig )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 5, params );
  EXPECT_LE( result.aig_nodes_optimized, result.aig_nodes_initial );
}

TEST( flows, custom_verilog_through_flow )
{
  const std::string source = R"(
    module popcount(input [4:0] x, output [2:0] y);
      assign y = {1'b0, {1'b0, x[0]} + {1'b0, x[1]}} + {1'b0, {1'b0, x[2]} + {1'b0, x[3]}} + {2'b00, x[4]};
    endmodule
  )";
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    const auto result = run_flow_on_verilog( source, params );
    EXPECT_TRUE( result.verified );
  }
}

TEST( dse, exploration_produces_all_points )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  const auto configs = default_dse_configurations( true );
  const auto points = explore( mod.aig, configs );
  EXPECT_EQ( points.size(), configs.size() );
  for ( const auto& p : points )
  {
    EXPECT_TRUE( p.result.verified ) << p.label;
  }
}

TEST( dse, pareto_front_contains_extremes )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  const auto points = explore( mod.aig, default_dse_configurations( true ) );
  const auto front = pareto_front( points );
  EXPECT_GE( front.size(), 2u ); // at least the two extremes of the tradeoff
  // The minimum-qubit and minimum-T points must be on the frontier.
  std::size_t min_q = 0;
  std::size_t min_t = 0;
  for ( std::size_t i = 1; i < points.size(); ++i )
  {
    if ( points[i].result.costs.qubits < points[min_q].result.costs.qubits )
    {
      min_q = i;
    }
    if ( points[i].result.costs.t_count < points[min_t].result.costs.t_count )
    {
      min_t = i;
    }
  }
  EXPECT_NE( std::find( front.begin(), front.end(), min_q ), front.end() );
  EXPECT_NE( std::find( front.begin(), front.end(), min_t ), front.end() );
}

TEST( dse, table_formatting )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 3 ) );
  std::vector<flow_params> configs;
  flow_params esop;
  esop.kind = flow_kind::esop_based;
  configs.push_back( esop );
  const auto points = explore( mod.aig, configs );
  const auto table = format_dse_table( points );
  EXPECT_NE( table.find( "esop(p=0)" ), std::string::npos );
  EXPECT_NE( table.find( "qubits" ), std::string::npos );
}

TEST( flows, verification_tiers_agree_on_accept_for_every_flow )
{
  // Each tier is a different engine (64-way simulation on truth
  // tables/samples, 64-way counter enumeration, SAT miter); a correct
  // synthesis result must pass all of them, with verified_with recording
  // the tier that ran.
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    for ( const auto mode :
          { verify_mode::sampled, verify_mode::exhaustive, verify_mode::sat } )
    {
      flow_params params;
      params.kind = kind;
      params.verification = mode;
      const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
      EXPECT_TRUE( result.verified )
          << "kind=" << static_cast<int>( kind ) << " mode=" << verify_mode_name( mode );
      EXPECT_EQ( result.verified_with, mode );
      EXPECT_FALSE( result.counterexample.has_value() );
    }
  }
}

TEST( flows, verify_mode_none_and_legacy_toggle_skip_verification )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::none;
  const auto none = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_FALSE( none.verified );
  EXPECT_EQ( none.verified_with, verify_mode::none );
  EXPECT_EQ( none.verify_seconds, 0.0 );

  params.verification = verify_mode::sat;
  params.verify = false; // the legacy master toggle wins
  const auto off = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_FALSE( off.verified );
  EXPECT_EQ( off.verified_with, verify_mode::none );
}

TEST( flows, corrupted_circuit_is_rejected_by_every_tier_with_a_valid_counterexample )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    params.verify = false;
    const auto result = run_flow_on_aig( mod.aig, params );
    const auto spec = optimize( mod.aig, params.optimization_rounds );

    const auto corrupted = corrupt_circuit( result.circuit, spec );

    const auto check_cex = [&]( const std::optional<std::vector<bool>>& cex,
                                const char* tier ) {
      ASSERT_TRUE( cex.has_value() ) << tier << " kind=" << static_cast<int>( kind );
      EXPECT_NE( evaluate_circuit( corrupted, *cex ), spec.evaluate( *cex ) )
          << tier << " kind=" << static_cast<int>( kind );
    };
    check_cex( verify_against_aig_sampled( corrupted, spec ), "sampled" );
    check_cex( verify_against_aig_exhaustive( corrupted, spec ), "exhaustive" );
    check_cex( verify_against_aig_sat( corrupted, spec ), "sat" );
  }
}

TEST( dse, explore_designs_threads_the_verification_mode )
{
  explore_options options;
  options.functional_max_bitwidth = 0; // keep the sweep small
  options.verification = verify_mode::sat;
  const auto explorations =
      explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  ASSERT_EQ( explorations.size(), 1u );
  for ( const auto& p : explorations[0].points )
  {
    EXPECT_TRUE( p.result.verified ) << p.label;
    EXPECT_EQ( p.result.verified_with, verify_mode::sat ) << p.label;
  }

  options.verification = verify_mode::none;
  const auto unverified = explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  for ( const auto& p : unverified[0].points )
  {
    EXPECT_EQ( p.result.verified_with, verify_mode::none ) << p.label;
    EXPECT_EQ( p.result.verify_seconds, 0.0 ) << p.label;
  }
}

TEST( flows, verify_mode_names_round_trip )
{
  for ( const auto mode : { verify_mode::none, verify_mode::sampled, verify_mode::exhaustive,
                            verify_mode::sat } )
  {
    EXPECT_EQ( verify_mode_from_name( verify_mode_name( mode ) ), mode );
  }
  EXPECT_FALSE( verify_mode_from_name( "bogus" ).has_value() );
}

TEST( flows, tbs_unidirectional_option )
{
  flow_params params;
  params.kind = flow_kind::functional;
  params.bidirectional_tbs = false;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_TRUE( result.verified );
}

TEST( flows, exorcism_toggle )
{
  flow_params with;
  with.kind = flow_kind::esop_based;
  with.run_exorcism = true;
  flow_params without = with;
  without.run_exorcism = false;
  const auto r_with = run_reciprocal_flow( reciprocal_design::intdiv, 5, with );
  const auto r_without = run_reciprocal_flow( reciprocal_design::intdiv, 5, without );
  EXPECT_TRUE( r_with.verified );
  EXPECT_TRUE( r_without.verified );
  EXPECT_LE( r_with.esop_terms, r_without.esop_terms );
}

TEST( flows, cut_size_is_a_flow_param_and_cache_axis )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  flow_params k4;
  k4.kind = flow_kind::hierarchical;
  k4.verification = verify_mode::exhaustive;
  flow_params k3 = k4;
  k3.cut_size = 3;

  flow_artifact_cache cache;
  const auto r4 = run_flow_staged( mod.aig, k4, cache );
  const auto misses_after_k4 = cache.stats().misses;
  const auto r3 = run_flow_staged( mod.aig, k3, cache );
  const auto misses_after_k3 = cache.stats().misses;
  // Different cut sizes are distinct XMG artifacts (a fresh miss)...
  EXPECT_GT( misses_after_k3, misses_after_k4 );
  // ...while re-running an already-seen cut size only hits.
  const auto r4_again = run_flow_staged( mod.aig, k4, cache );
  EXPECT_EQ( cache.stats().misses, misses_after_k3 );
  // Both mappings synthesize correct circuits with their own structure.
  EXPECT_TRUE( r4.verified );
  EXPECT_TRUE( r3.verified );
  EXPECT_TRUE( r4_again.verified );
  EXPECT_EQ( r4.costs.t_count, r4_again.costs.t_count );
  // Labels expose the non-default axis only.
  EXPECT_EQ( dse_label( k4 ), "hierarchical(garbage)" );
  EXPECT_EQ( dse_label( k3 ), "hierarchical(garbage,k=3)" );
}

TEST( flows, sat_tier_reuses_one_engine_across_a_sweep )
{
  // Narrow designs (<= sat_tier_simulation_max_pis inputs) are proved by
  // the SAT tier's exhaustive pass and never consult the cache's engine;
  // every sat-mode check of a wider design goes through the cache's one
  // persistent incremental engine.
  const auto sweep = []( unsigned n, flow_kind kind,
                         std::initializer_list<cleanup_strategy> cleanups ) {
    const auto mod =
        verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, n ) );
    flow_artifact_cache cache;
    for ( const auto cleanup : cleanups )
    {
      flow_params params;
      params.kind = kind;
      params.cleanup = cleanup;
      params.verification = verify_mode::sat;
      const auto result = run_flow_staged( mod.aig, params, cache );
      EXPECT_TRUE( result.verified ) << n;
      EXPECT_EQ( result.verified_with, verify_mode::sat ) << n;
    }
    return cache.sat_engine().stats().checks;
  };
  EXPECT_EQ( sweep( 4, flow_kind::hierarchical,
                    { cleanup_strategy::keep_garbage, cleanup_strategy::bennett,
                      cleanup_strategy::eager } ),
             0u );
  static_assert( sat_tier_simulation_max_pis < 13u );
  EXPECT_EQ( sweep( 13, flow_kind::esop_based,
                    { cleanup_strategy::keep_garbage, cleanup_strategy::bennett } ),
             2u );
}

TEST( flows, cut_size_below_two_is_rejected )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  flow_params params;
  params.kind = flow_kind::hierarchical;
  // Outside [2, 6] on both sides: a cut function is one 64-bit word.
  for ( const unsigned k : { 0u, 1u, 7u } )
  {
    params.cut_size = k;
    EXPECT_THROW( run_flow_on_aig( mod.aig, params ), std::invalid_argument ) << "k=" << k;
  }
}

TEST( flows, cache_rejects_same_size_different_function_design )
{
  // Regression for the size-only design fingerprint: `a AND b` and
  // `a AND NOT b` have identical (pis, pos, ands) shapes but different
  // functions.  The old fingerprint silently served the first design's
  // artifacts for the second; the content hash must reject the alias.
  aig_network and_ab( 2 );
  and_ab.add_po( and_ab.create_and( and_ab.pi( 0 ), and_ab.pi( 1 ) ) );
  aig_network and_anb( 2 );
  and_anb.add_po( and_anb.create_and( and_anb.pi( 0 ), lit_not( and_anb.pi( 1 ) ) ) );
  ASSERT_EQ( and_ab.num_nodes(), and_anb.num_nodes() );
  ASSERT_NE( and_ab.content_hash(), and_anb.content_hash() );

  flow_params params;
  params.kind = flow_kind::esop_based;
  flow_artifact_cache cache;
  const auto first = run_flow_staged( and_ab, params, cache );
  EXPECT_TRUE( first.verified );
  EXPECT_THROW( run_flow_staged( and_anb, params, cache ), std::invalid_argument );

  // A structurally identical copy is the same design and is accepted.
  aig_network copy( 2 );
  copy.add_po( copy.create_and( copy.pi( 0 ), copy.pi( 1 ) ) );
  const auto again = run_flow_staged( copy, params, cache );
  EXPECT_TRUE( again.verified );
  EXPECT_EQ( again.costs.t_count, first.costs.t_count );
  EXPECT_GT( cache.stats().hits, 0u ); // the copy reused the first run's artifacts
  EXPECT_EQ( cache.design_hash(), and_ab.content_hash() );
}
