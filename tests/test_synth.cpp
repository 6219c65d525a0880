#include <gtest/gtest.h>

#include <random>

#include "sat/cnf.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "synth/isop.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

static truth_table random_tt( unsigned n, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  return truth_table::from_function( n, [&]( std::uint64_t ) { return rng() & 1u; } );
}

/// --- ISOP ------------------------------------------------------------------

class isop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( isop_property, covers_exactly )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 12; ++seed )
  {
    const auto f = random_tt( n, seed * 131u );
    const auto cubes = isop( f );
    EXPECT_EQ( sop_cover( cubes, n ), f ) << "seed " << seed;
  }
}

TEST_P( isop_property, respects_dont_cares )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto on = random_tt( n, seed * 17u );
    const auto dc = random_tt( n, seed * 51u ) & ~on;
    const auto cubes = isop( on, dc );
    const auto cover = sop_cover( cubes, n );
    // on <= cover <= on | dc
    EXPECT_TRUE( ( on & ~cover ).is_const0() );
    EXPECT_TRUE( ( cover & ~( on | dc ) ).is_const0() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, isop_property, ::testing::Values( 2u, 3u, 4u, 5u, 6u, 8u ) );

TEST( isop, constants )
{
  EXPECT_TRUE( isop( truth_table( 3 ) ).empty() );
  const auto ones = isop( truth_table::constant( 3, true ) );
  ASSERT_EQ( ones.size(), 1u );
  EXPECT_EQ( ones[0].num_literals(), 0 );
}

TEST( isop, single_cube_functions_stay_single )
{
  cube c;
  c.add_literal( 0, true );
  c.add_literal( 2, false );
  const auto cubes = isop( c.to_truth_table( 4 ) );
  ASSERT_EQ( cubes.size(), 1u );
  EXPECT_EQ( cubes[0], c );
}

/// --- ESOP extraction -----------------------------------------------------

class esop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( esop_property, psdkro_is_exact )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 10; ++seed )
  {
    const auto f = random_tt( n, seed * 997u );
    const auto cubes = esop_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& c : cubes )
    {
      rebuilt ^= c.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

TEST_P( esop_property, pprm_is_exact_and_positive )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 3; seed <= 9; ++seed )
  {
    const auto f = random_tt( n, seed * 61u );
    const auto monomials = pprm_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& m : monomials )
    {
      EXPECT_EQ( m.polarity, m.mask ); // positive literals only
      rebuilt ^= m.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, esop_property, ::testing::Values( 2u, 3u, 4u, 5u, 6u ) );

TEST( esop_extract, parity_needs_linear_terms )
{
  // PSDKRO of an n-variable parity has exactly n cubes (Davio all the way).
  truth_table parity( 6 );
  for ( unsigned v = 0; v < 6; ++v )
  {
    parity ^= truth_table::projection( 6, v );
  }
  EXPECT_EQ( esop_from_truth_table( parity ).size(), 6u );
}

TEST( esop_extract, from_aig_multi_output )
{
  aig_network aig( 4 );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );
  aig.add_po( aig.create_and( aig.pi( 2 ), aig.pi( 3 ) ) );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) ); // shared with output 0
  const auto e = esop_from_aig( aig );
  EXPECT_EQ( e.num_inputs, 4u );
  EXPECT_EQ( e.num_outputs, 3u );
  const auto tts = aig.simulate_outputs();
  for ( unsigned o = 0; o < 3; ++o )
  {
    EXPECT_EQ( e.output_truth_table( o ), tts[o] );
  }
  // Shared cubes between outputs 0 and 2 must be merged terms.
  for ( const auto& t : e.terms )
  {
    if ( t.output_mask & 0b001u )
    {
      EXPECT_TRUE( t.output_mask & 0b100u );
    }
  }
}

/// --- exorcism ---------------------------------------------------------------

TEST( exorcism, cancels_identical_cubes )
{
  esop e;
  e.num_inputs = 3;
  e.num_outputs = 1;
  cube c;
  c.add_literal( 0, true );
  e.terms.push_back( { c, 1u } );
  e.terms.push_back( { c, 1u } );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 0u );
}

TEST( exorcism, merges_distance_one )
{
  // x0 x1 ^ x0 !x1 = x0
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  c1.add_literal( 1, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, false );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.terms[0].product.num_literals(), 1 );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

TEST( exorcism, merges_subsumed_distance_one )
{
  // x0 ^ x0 x1 = x0 !x1
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, true );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

class exorcism_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( exorcism_property, preserves_function_and_never_grows )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto f = random_tt( n, seed * 313u );
    esop e;
    e.num_inputs = n;
    e.num_outputs = 1;
    // Start from the (possibly redundant) minterm expansion.
    for ( std::uint64_t m = 0; m < f.num_bits(); ++m )
    {
      if ( f.get_bit( m ) )
      {
        cube c;
        for ( unsigned v = 0; v < n; ++v )
        {
          c.add_literal( v, ( m >> v ) & 1u );
        }
        e.terms.push_back( { c, 1u } );
      }
    }
    const auto initial = e.num_terms();
    const auto stats = exorcism( e );
    EXPECT_EQ( e.output_truth_table( 0 ), f ) << "seed " << seed;
    EXPECT_LE( e.num_terms(), initial );
    EXPECT_EQ( stats.initial_terms, initial );
    EXPECT_EQ( stats.final_terms, e.num_terms() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, exorcism_property, ::testing::Values( 3u, 4u, 5u ) );

TEST( exorcism, reduces_minterm_parity_to_linear_size )
{
  // Parity of 4 vars has 8 minterms; ESOP minimum is 4 single-literal cubes.
  truth_table parity( 4 );
  for ( unsigned v = 0; v < 4; ++v )
  {
    parity ^= truth_table::projection( 4, v );
  }
  esop e;
  e.num_inputs = 4;
  e.num_outputs = 1;
  for ( std::uint64_t m = 0; m < 16; ++m )
  {
    if ( parity.get_bit( m ) )
    {
      cube c;
      for ( unsigned v = 0; v < 4; ++v )
      {
        c.add_literal( v, ( m >> v ) & 1u );
      }
      e.terms.push_back( { c, 1u } );
    }
  }
  exorcism( e, 64 );
  EXPECT_EQ( e.output_truth_table( 0 ), parity );
  EXPECT_LE( e.num_terms(), 5u ); // near-optimal
}

/// --- AIG optimization -------------------------------------------------------

static aig_network medium_test_network()
{
  // The INTDIV(5) divider: non-trivial, redundant, multi-output.
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 5 ) );
  return mod.aig;
}

TEST( aig_optimize, balance_preserves_function )
{
  const auto aig = medium_test_network();
  const auto balanced = aig_balance( aig );
  EXPECT_TRUE( sat::check_equivalence( aig, balanced ).equivalent );
  EXPECT_LE( balanced.depth(), aig.depth() );
}

TEST( aig_optimize, refactor_preserves_function )
{
  const auto aig = medium_test_network();
  const auto refactored = aig_refactor( aig );
  EXPECT_TRUE( sat::check_equivalence( aig, refactored ).equivalent );
}

TEST( aig_optimize, optimize_shrinks_divider )
{
  const auto aig = medium_test_network();
  const auto optimized = optimize( aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( aig, optimized ).equivalent );
  EXPECT_LE( optimized.num_ands(), aig.num_ands() );
}

TEST( aig_optimize, newton_design_roundtrip )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_newton( 4 ) );
  const auto optimized = optimize( mod.aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( mod.aig, optimized ).equivalent );
}
