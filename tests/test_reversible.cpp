#include <gtest/gtest.h>

#include "reversible/circuit.hpp"
#include "reversible/cost.hpp"
#include "reversible/verify.hpp"
#include "rsynth/esop_synth.hpp"

using namespace qsyn;

TEST( circuit, not_cnot_toffoli_semantics )
{
  reversible_circuit c( 3 );
  c.add_not( 0 );
  c.add_cnot( 0, 1 );
  c.add_toffoli( 0, 1, 2 );
  std::vector<bool> state = { false, false, false };
  c.apply( state );
  EXPECT_EQ( state, ( std::vector<bool>{ true, true, true } ) );
}

TEST( circuit, negative_controls )
{
  reversible_circuit c( 2 );
  c.add_mct( { { 0, false } }, 1 ); // fires when line 0 is 0
  std::vector<bool> s0 = { false, false };
  c.apply( s0 );
  EXPECT_TRUE( s0[1] );
  std::vector<bool> s1 = { true, false };
  c.apply( s1 );
  EXPECT_FALSE( s1[1] );
}

TEST( circuit, swap_exchanges_lines )
{
  reversible_circuit c( 2 );
  c.add_swap( 0, 1 );
  std::vector<bool> state = { true, false };
  c.apply( state );
  EXPECT_EQ( state, ( std::vector<bool>{ false, true } ) );
}

TEST( circuit, fredkin_is_controlled_swap )
{
  reversible_circuit c( 3 );
  c.add_fredkin( 0, 1, 2 );
  for ( const bool ctrl : { false, true } )
  {
    std::vector<bool> state = { ctrl, true, false };
    c.apply( state );
    if ( ctrl )
    {
      EXPECT_EQ( state, ( std::vector<bool>{ true, false, true } ) );
    }
    else
    {
      EXPECT_EQ( state, ( std::vector<bool>{ false, true, false } ) );
    }
  }
}

TEST( circuit, permutation_of_cnot )
{
  reversible_circuit c( 2 );
  c.add_cnot( 0, 1 );
  const auto perm = c.permutation();
  EXPECT_EQ( perm, ( std::vector<std::uint64_t>{ 0, 3, 2, 1 } ) );
}

TEST( circuit, self_inverse_roundtrip )
{
  reversible_circuit c( 4 );
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 2, 3 );
  c.add_mct( { { 0, true }, { 3, false } }, 1 );
  reversible_circuit forward_backward( 4 );
  forward_backward.append( c );
  forward_backward.append_reversed( c );
  const auto perm = forward_backward.permutation();
  for ( std::uint64_t i = 0; i < perm.size(); ++i )
  {
    EXPECT_EQ( perm[i], i );
  }
}

TEST( circuit, append_reversed_window )
{
  reversible_circuit c( 3 );
  c.add_not( 0 );        // gate 0 (outside window)
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 0, 1 );
  c.append_reversed_window( 1, 3 );
  // Gates 1..2 then reversed: net effect only the NOT.
  std::vector<bool> state = { false, true, false };
  c.apply( state );
  EXPECT_EQ( state, ( std::vector<bool>{ true, true, false } ) );
}

TEST( circuit, gate_validation )
{
  reversible_circuit c( 3 );
  c.add_cnot( 0, 1 );
  EXPECT_EQ( c.num_gates(), 1u );
  EXPECT_EQ( c.num_toffoli_gates(), 0u );
  c.add_toffoli( 0, 1, 2 ); // fine: target distinct from both controls
  EXPECT_EQ( c.num_gates(), 2u );
  EXPECT_EQ( c.num_toffoli_gates(), 1u );
}

TEST( cost_model, small_gate_costs )
{
  EXPECT_EQ( toffoli_t_count( 0, 5 ), 0u );
  EXPECT_EQ( toffoli_t_count( 1, 5 ), 0u );
  EXPECT_EQ( toffoli_t_count( 2, 0 ), 7u );
  EXPECT_EQ( toffoli_t_count( 2, 10 ), 7u );
}

TEST( cost_model, linear_regime_with_ancillas )
{
  // 8k - 9 with enough dirty ancillae.
  EXPECT_EQ( toffoli_t_count( 3, 1 ), 15u );
  EXPECT_EQ( toffoli_t_count( 5, 3 ), 31u );
  EXPECT_EQ( toffoli_t_count( 10, 8 ), 71u );
}

TEST( cost_model, halving_regime_with_one_ancilla )
{
  const auto k = 10u;
  const auto cost = toffoli_t_count( k, 1 );
  // More than linear, far less than quadratic.
  EXPECT_GT( cost, toffoli_t_count( k, 8 ) );
  EXPECT_LT( cost, toffoli_t_count( k, 0 ) );
}

TEST( cost_model, quadratic_regime_without_ancilla )
{
  EXPECT_EQ( toffoli_t_count( 3, 0 ), 16u * 2u * 1u + 7u );
  EXPECT_EQ( toffoli_t_count( 6, 0 ), 16u * 5u * 4u + 7u );
  // Monotone in k.
  for ( unsigned k = 3; k < 20; ++k )
  {
    EXPECT_GT( toffoli_t_count( k + 1, 0 ), toffoli_t_count( k, 0 ) );
  }
}

TEST( cost_model, circuit_t_count_accounts_free_lines )
{
  // Same gate, different circuit widths: wider circuit = more ancillae =
  // cheaper multi-controlled gates.
  reversible_circuit narrow( 5 );
  narrow.add_mct( { { 0, true }, { 1, true }, { 2, true }, { 3, true } }, 4 );
  reversible_circuit wide( 10 );
  wide.add_mct( { { 0, true }, { 1, true }, { 2, true }, { 3, true } }, 4 );
  EXPECT_GT( circuit_t_count( narrow ), circuit_t_count( wide ) );
}

TEST( cost_model, depth_sequential_vs_parallel )
{
  reversible_circuit sequential( 2 );
  sequential.add_not( 0 );
  sequential.add_cnot( 0, 1 );
  EXPECT_EQ( circuit_depth( sequential ), 2u );
  reversible_circuit parallel( 4 );
  parallel.add_not( 0 );
  parallel.add_not( 2 );
  parallel.add_cnot( 0, 1 );
  parallel.add_cnot( 2, 3 );
  EXPECT_EQ( circuit_depth( parallel ), 2u );
}

TEST( verify_helpers, evaluate_circuit_uses_metadata )
{
  // 2-input AND onto a constant ancilla that is the output.
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 );
  EXPECT_EQ( evaluate_circuit( c, { true, true } ), std::vector<bool>{ true } );
  EXPECT_EQ( evaluate_circuit( c, { true, false } ), std::vector<bool>{ false } );
}

TEST( verify_helpers, constant_one_ancilla )
{
  reversible_circuit c( 2 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_constant_input = true;
  c.line( 1 ).constant_value = true;
  c.line( 1 ).output_index = 0;
  c.add_cnot( 0, 1 ); // y = !x
  EXPECT_EQ( evaluate_circuit( c, { true } ), std::vector<bool>{ false } );
  EXPECT_EQ( evaluate_circuit( c, { false } ), std::vector<bool>{ true } );
}

TEST( verify_helpers, verify_against_truth_tables )
{
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 );
  const auto and_tt = truth_table::projection( 2, 0 ) & truth_table::projection( 2, 1 );
  EXPECT_TRUE( verify_against_truth_tables( c, { and_tt } ) );
  const auto or_tt = truth_table::projection( 2, 0 ) | truth_table::projection( 2, 1 );
  EXPECT_FALSE( verify_against_truth_tables( c, { or_tt } ) );
}

TEST( verify_helpers, sampled_aig_check_finds_mismatch )
{
  aig_network aig( 2 );
  aig.add_po( aig.create_or( aig.pi( 0 ), aig.pi( 1 ) ) );
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 ); // AND, not OR
  const auto cex = verify_against_aig_sampled( c, aig, 32 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_NE( aig.evaluate( *cex ), std::vector<bool>{ false } );
}

TEST( report, cost_report_fields )
{
  reversible_circuit c( 4 );
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 2, 3 );
  const auto rep = report_costs( c );
  EXPECT_EQ( rep.qubits, 4u );
  EXPECT_EQ( rep.gates, 2u );
  EXPECT_EQ( rep.toffoli_gates, 1u );
  EXPECT_EQ( rep.t_count, 7u );
  EXPECT_EQ( rep.depth, 2u );
}

// --- control lists -----------------------------------------------------------
//
// Up to two controls live inside the gate; more go to the heap.  The sizes
// 0, 1, 2 (inline), 3 (first spill) and 14 (several regrowths) cover both
// storages and the transition between them.

namespace
{

control_list make_controls( unsigned count )
{
  control_list list;
  for ( unsigned i = 0; i < count; ++i )
  {
    list.push_back( { i, ( i % 3u ) != 1u } );
  }
  return list;
}

void expect_controls( const control_list& list, unsigned count )
{
  ASSERT_EQ( list.size(), count );
  EXPECT_EQ( list.empty(), count == 0u );
  for ( unsigned i = 0; i < count; ++i )
  {
    EXPECT_EQ( list[i].line, i );
    EXPECT_EQ( list[i].positive, ( i % 3u ) != 1u );
  }
}

} // namespace

class control_list_sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( control_list_sizes, push_back_copy_move_and_compare )
{
  const auto n = GetParam();
  const auto list = make_controls( n );
  expect_controls( list, n );
  EXPECT_EQ( static_cast<std::size_t>( list.end() - list.begin() ), list.size() );

  control_list copy( list );
  expect_controls( copy, n );
  EXPECT_EQ( copy, list );
  copy.push_back( { 99u, true } );
  EXPECT_FALSE( copy == list );
  expect_controls( list, n ); // the source is untouched

  control_list assigned = make_controls( 14u - n );
  assigned = list;
  EXPECT_EQ( assigned, list );
  const auto& alias = assigned;
  assigned = alias;
  EXPECT_EQ( assigned, list );

  control_list moved( std::move( assigned ) );
  expect_controls( moved, n );
  control_list move_assigned = make_controls( 3u );
  move_assigned = std::move( moved );
  expect_controls( move_assigned, n );

  // push_back of an element of the list itself survives a regrowth.
  if ( n > 0u )
  {
    auto grown = list;
    grown.push_back( grown[0] );
    ASSERT_EQ( grown.size(), n + 1u );
    EXPECT_EQ( grown[n], list[0] );
  }

  // Erase the middle with remove_if, as esop_synth's factoring does.
  auto erased = list;
  erased.erase( std::remove_if( erased.begin(), erased.end(),
                                []( const control& c ) { return c.line % 2u == 1u; } ),
                erased.end() );
  ASSERT_EQ( erased.size(), ( n + 1u ) / 2u );
  for ( std::size_t i = 0; i < erased.size(); ++i )
  {
    EXPECT_EQ( erased[i].line, 2u * i );
  }
  erased.clear();
  EXPECT_TRUE( erased.empty() );
  erased.push_back( { 5u, false } );
  EXPECT_EQ( erased.size(), 1u );

  // Gates carrying the list simulate the same in a circuit.
  reversible_circuit c( 15 );
  c.add_mct( list, 14 );
  std::vector<bool> state( 15, false );
  for ( unsigned i = 0; i < n; ++i )
  {
    state[i] = list[i].positive;
  }
  c.apply( state );
  EXPECT_TRUE( state[14] );
  EXPECT_EQ( c.num_toffoli_gates(), n >= 2u ? 1u : 0u );
}

INSTANTIATE_TEST_SUITE_P( inline_heap_boundary, control_list_sizes,
                          ::testing::Values( 0u, 1u, 2u, 3u, 14u ) );

TEST( esop_synth, factoring_rewrites_wide_control_lists )
{
  // 14-literal cubes sharing pairs: factoring rounds erase pairs from
  // heap-held control lists and append the ancilla control.
  esop e;
  e.num_inputs = 14;
  e.num_outputs = 2;
  for ( unsigned t = 0; t < 6u; ++t )
  {
    cube c;
    for ( unsigned v = 0; v < 14u; ++v )
    {
      if ( v != t + 4u )
      {
        c.add_literal( v, ( v + t ) % 4u != 0u );
      }
    }
    e.terms.push_back( { c, t % 2u == 0u ? 1u : 3u } );
  }
  esop_synth_stats stats;
  const auto circuit = esop_synthesize( e, { 3, 2 }, &stats );
  EXPECT_GE( stats.factored_pairs, 1u );
  std::vector<truth_table> specs;
  for ( unsigned o = 0; o < e.num_outputs; ++o )
  {
    specs.push_back( e.output_truth_table( o ) );
  }
  EXPECT_TRUE( verify_against_truth_tables( circuit, specs ) );
}
