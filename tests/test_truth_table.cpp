#include <gtest/gtest.h>

#include "logic/truth_table.hpp"

using namespace qsyn;

TEST( truth_table, constant_zero_default )
{
  truth_table tt( 3 );
  EXPECT_EQ( tt.num_vars(), 3u );
  EXPECT_EQ( tt.num_bits(), 8u );
  EXPECT_TRUE( tt.is_const0() );
  EXPECT_FALSE( tt.is_const1() );
  EXPECT_EQ( tt.count_ones(), 0u );
}

TEST( truth_table, constant_one )
{
  const auto tt = truth_table::constant( 4, true );
  EXPECT_TRUE( tt.is_const1() );
  EXPECT_EQ( tt.count_ones(), 16u );
}

TEST( truth_table, set_get_bits )
{
  truth_table tt( 2 );
  tt.set_bit( 0, true );
  tt.set_bit( 3, true );
  EXPECT_TRUE( tt.get_bit( 0 ) );
  EXPECT_FALSE( tt.get_bit( 1 ) );
  EXPECT_FALSE( tt.get_bit( 2 ) );
  EXPECT_TRUE( tt.get_bit( 3 ) );
  tt.set_bit( 0, false );
  EXPECT_FALSE( tt.get_bit( 0 ) );
}

TEST( truth_table, projection_small )
{
  const auto x0 = truth_table::projection( 3, 0 );
  const auto x2 = truth_table::projection( 3, 2 );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    EXPECT_EQ( x0.get_bit( i ), ( i & 1u ) != 0u );
    EXPECT_EQ( x2.get_bit( i ), ( i & 4u ) != 0u );
  }
}

TEST( truth_table, projection_large_variable )
{
  // Variable 7 needs multi-block handling (2^8 = 256 bits).
  const auto x7 = truth_table::projection( 8, 7 );
  for ( std::uint64_t i = 0; i < 256; ++i )
  {
    EXPECT_EQ( x7.get_bit( i ), ( i >> 7 ) & 1u );
  }
}

TEST( truth_table, boolean_operations )
{
  const auto a = truth_table::projection( 2, 0 );
  const auto b = truth_table::projection( 2, 1 );
  const auto and_tt = a & b;
  const auto or_tt = a | b;
  const auto xor_tt = a ^ b;
  EXPECT_EQ( and_tt.to_binary(), "1000" );
  EXPECT_EQ( or_tt.to_binary(), "1110" );
  EXPECT_EQ( xor_tt.to_binary(), "0110" );
  EXPECT_EQ( ( ~a ).to_binary(), "0101" );
}

TEST( truth_table, demorgan_law )
{
  const auto a = truth_table::projection( 4, 1 );
  const auto b = truth_table::projection( 4, 3 );
  EXPECT_EQ( ~( a & b ), ~a | ~b );
  EXPECT_EQ( ~( a | b ), ~a & ~b );
}

TEST( truth_table, from_binary_string )
{
  const auto tt = truth_table::from_binary_string( "0110" );
  EXPECT_EQ( tt.num_vars(), 2u );
  EXPECT_EQ( tt, truth_table::projection( 2, 0 ) ^ truth_table::projection( 2, 1 ) );
  EXPECT_THROW( truth_table::from_binary_string( "011" ), std::invalid_argument );
  EXPECT_THROW( truth_table::from_binary_string( "0a10" ), std::invalid_argument );
}

TEST( truth_table, cofactors )
{
  // f = x0 & x1 | x2
  const auto x0 = truth_table::projection( 3, 0 );
  const auto x1 = truth_table::projection( 3, 1 );
  const auto x2 = truth_table::projection( 3, 2 );
  const auto f = ( x0 & x1 ) | x2;
  const auto f_x2_1 = f.cofactor( 2, true );
  EXPECT_TRUE( f_x2_1.is_const1() );
  const auto f_x2_0 = f.cofactor( 2, false );
  EXPECT_EQ( f_x2_0, x0 & x1 );
}

TEST( truth_table, cofactor_high_variable )
{
  const auto x6 = truth_table::projection( 8, 6 );
  const auto x1 = truth_table::projection( 8, 1 );
  const auto f = x6 ^ x1;
  EXPECT_EQ( f.cofactor( 6, false ), x1 );
  EXPECT_EQ( f.cofactor( 6, true ), ~x1 );
}

TEST( truth_table, shannon_expansion_reconstructs )
{
  // f == (!x & f0) | (x & f1) for every variable.
  const auto f = truth_table::from_binary_string( "0110100110010110" );
  for ( unsigned v = 0; v < 4; ++v )
  {
    const auto proj = truth_table::projection( 4, v );
    const auto rebuilt =
        ( ~proj & f.cofactor( v, false ) ) | ( proj & f.cofactor( v, true ) );
    EXPECT_EQ( rebuilt, f ) << "variable " << v;
  }
}

TEST( truth_table, support_detection )
{
  const auto x0 = truth_table::projection( 4, 0 );
  const auto x2 = truth_table::projection( 4, 2 );
  const auto f = x0 ^ x2;
  EXPECT_TRUE( f.depends_on( 0 ) );
  EXPECT_FALSE( f.depends_on( 1 ) );
  EXPECT_TRUE( f.depends_on( 2 ) );
  EXPECT_FALSE( f.depends_on( 3 ) );
  EXPECT_EQ( f.support(), ( std::vector<unsigned>{ 0, 2 } ) );
}

TEST( truth_table, shrink_to_support )
{
  const auto x1 = truth_table::projection( 5, 1 );
  const auto x3 = truth_table::projection( 5, 3 );
  const auto f = x1 & x3;
  std::vector<unsigned> map;
  const auto small = f.shrink_to_support( &map );
  EXPECT_EQ( small.num_vars(), 2u );
  EXPECT_EQ( map, ( std::vector<unsigned>{ 1, 3 } ) );
  EXPECT_EQ( small, truth_table::projection( 2, 0 ) & truth_table::projection( 2, 1 ) );
}

TEST( truth_table, support_detection_multi_block )
{
  // Variables on both sides of the word boundary (block-level vars >= 6).
  const auto x1 = truth_table::projection( 9, 1 );
  const auto x7 = truth_table::projection( 9, 7 );
  const auto x8 = truth_table::projection( 9, 8 );
  const auto f = ( x1 & x7 ) ^ x8;
  EXPECT_EQ( f.support(), ( std::vector<unsigned>{ 1, 7, 8 } ) );
  EXPECT_TRUE( f.depends_on( 7 ) );
  EXPECT_FALSE( f.depends_on( 0 ) );
  EXPECT_FALSE( f.depends_on( 6 ) );
}

TEST( truth_table, shrink_to_support_multi_block )
{
  // Removal must handle word-level compression (vars < 6) and block gathers
  // (vars >= 6) in one shrink.
  const auto x2 = truth_table::projection( 9, 2 );
  const auto x7 = truth_table::projection( 9, 7 );
  const auto f = x2 ^ x7;
  std::vector<unsigned> map;
  const auto small = f.shrink_to_support( &map );
  EXPECT_EQ( small.num_vars(), 2u );
  EXPECT_EQ( map, ( std::vector<unsigned>{ 2, 7 } ) );
  EXPECT_EQ( small, truth_table::projection( 2, 0 ) ^ truth_table::projection( 2, 1 ) );
}

TEST( truth_table, shrink_to_support_matches_naive_reconstruction )
{
  // Randomized cross-check over sizes straddling the block boundary: the
  // shrunk table evaluated through the variable map must match the
  // original on every assignment of the support variables.
  for ( const unsigned n : { 4u, 6u, 7u, 8u, 9u } )
  {
    for ( std::uint64_t seed = 1; seed <= 4; ++seed )
    {
      // Build a function of a random subset of the variables.
      std::uint64_t subset = 0;
      for ( unsigned v = 0; v < n; ++v )
      {
        if ( ( ( seed * 0x9e3779b97f4a7c15ull ) >> ( v * 7u ) ) & 1u )
        {
          subset |= std::uint64_t{ 1 } << v;
        }
      }
      const auto f = truth_table::from_function( n, [&]( std::uint64_t i ) {
        const auto masked = i & subset;
        return ( ( masked * 2654435761u ) >> 3 ) & 1u;
      } );
      std::vector<unsigned> map;
      const auto small = f.shrink_to_support( &map );
      for ( std::uint64_t i = 0; i < small.num_bits(); ++i )
      {
        std::uint64_t full = 0;
        for ( std::size_t v = 0; v < map.size(); ++v )
        {
          if ( ( i >> v ) & 1u )
          {
            full |= std::uint64_t{ 1 } << map[v];
          }
        }
        ASSERT_EQ( small.get_bit( i ), f.get_bit( full ) )
            << "n " << n << " seed " << seed << " index " << i;
      }
    }
  }
}

TEST( truth_table, depends_on_matches_cofactor_definition )
{
  for ( const unsigned n : { 3u, 6u, 7u, 9u } )
  {
    const auto f = truth_table::from_function(
        n, []( std::uint64_t i ) { return ( ( i >> 2 ) ^ ( i * 0x2545f4914f6cdd1dull ) ) & 1u; } );
    for ( unsigned v = 0; v < n; ++v )
    {
      EXPECT_EQ( f.depends_on( v ), f.cofactor( v, false ) != f.cofactor( v, true ) )
          << "n " << n << " var " << v;
    }
  }
}

TEST( truth_table, from_binary_string_multi_block )
{
  // 128-bit string (7 variables, two blocks) checked bit by bit.
  std::string s( 128, '0' );
  for ( std::size_t i = 0; i < 128; i += 3 )
  {
    s[i] = '1';
  }
  const auto tt = truth_table::from_binary_string( s );
  EXPECT_EQ( tt.num_vars(), 7u );
  for ( std::uint64_t i = 0; i < 128; ++i )
  {
    EXPECT_EQ( tt.get_bit( i ), s[127u - i] == '1' ) << "bit " << i;
  }
}

TEST( truth_table, hex_output )
{
  const auto x0 = truth_table::projection( 3, 0 );
  EXPECT_EQ( x0.to_hex(), "aa" );
  const auto maj = truth_table::from_binary_string( "11101000" );
  EXPECT_EQ( maj.to_hex(), "e8" );
}

TEST( truth_table, hash_distinguishes_num_vars )
{
  truth_table a( 1 );
  truth_table b( 2 );
  // Different variable counts with identical (zero) payload must not
  // collide structurally.
  EXPECT_NE( a, b );
}

TEST( truth_table, evaluate_matches_get_bit )
{
  const auto f = truth_table::from_binary_string( "10010110" );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    EXPECT_EQ( f.evaluate( i ), f.get_bit( i ) );
  }
}

TEST( truth_table, from_function_factory )
{
  const auto parity =
      truth_table::from_function( 5, []( std::uint64_t i ) { return popcount64( i ) % 2 == 1; } );
  truth_table expected( 5 );
  for ( unsigned v = 0; v < 5; ++v )
  {
    expected ^= truth_table::projection( 5, v );
  }
  EXPECT_EQ( parity, expected );
}

/// Property sweep: operator identities over several sizes.
class truth_table_sizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( truth_table_sizes, xor_self_annihilates )
{
  const auto n = GetParam();
  const auto f = truth_table::from_function(
      n, []( std::uint64_t i ) { return ( i * 2654435761u ) & 8u; } );
  EXPECT_TRUE( ( f ^ f ).is_const0() );
  EXPECT_TRUE( ( f ^ ~f ).is_const1() );
}

TEST_P( truth_table_sizes, count_ones_complement )
{
  const auto n = GetParam();
  const auto f = truth_table::from_function(
      n, []( std::uint64_t i ) { return ( i % 3 ) == 1; } );
  EXPECT_EQ( f.count_ones() + ( ~f ).count_ones(), f.num_bits() );
}

TEST_P( truth_table_sizes, double_cofactor_idempotent )
{
  const auto n = GetParam();
  const auto f = truth_table::from_function(
      n, []( std::uint64_t i ) { return ( ( i >> 1 ) ^ i ) & 1u; } );
  for ( unsigned v = 0; v < n; ++v )
  {
    const auto c = f.cofactor( v, true );
    EXPECT_EQ( c.cofactor( v, true ), c );
    EXPECT_EQ( c.cofactor( v, false ), c );
    EXPECT_FALSE( c.depends_on( v ) );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, truth_table_sizes, ::testing::Values( 1u, 2u, 5u, 6u, 7u, 9u ) );

// --- block storage boundary --------------------------------------------------
//
// Tables of up to 8 variables keep their blocks inline; 9 and more go to the
// heap.  Every copy/move/compare path is exercised on both sides.

namespace
{

truth_table patterned_table( unsigned num_vars, std::uint64_t seed )
{
  return truth_table::from_function( num_vars, [seed]( std::uint64_t i ) {
    return ( ( ( i * 0x9e3779b97f4a7c15ull ) ^ seed ) >> 29 ) & 1u;
  } );
}

} // namespace

class truth_table_storage : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( truth_table_storage, copy_move_compare_and_hash )
{
  const auto n = GetParam();
  const auto original = patterned_table( n, 7u );
  ASSERT_EQ( original.blocks().size(), num_blocks_for( n ) );

  truth_table copy( original );
  EXPECT_EQ( copy, original );
  EXPECT_EQ( copy.hash(), original.hash() );
  // The copy owns its blocks.
  copy.set_bit( 5, !copy.get_bit( 5 ) );
  EXPECT_NE( copy, original );
  EXPECT_NE( copy.hash(), original.hash() );

  truth_table assigned( 3 );
  assigned = original;
  EXPECT_EQ( assigned, original );
  const auto& alias = assigned;
  assigned = alias; // self-assignment keeps the contents
  EXPECT_EQ( assigned, original );

  truth_table moved( std::move( assigned ) );
  EXPECT_EQ( moved, original );
  truth_table move_assigned( 10 );
  move_assigned = std::move( moved );
  EXPECT_EQ( move_assigned, original );
  EXPECT_EQ( move_assigned.count_ones(), original.count_ones() );

  // Assignment across the boundary in both directions.
  truth_table other = patterned_table( n == 8u ? 9u : 8u, 3u );
  other = original;
  EXPECT_EQ( other, original );
  truth_table small = patterned_table( 2u, 1u );
  small = original;
  EXPECT_EQ( small, original );
  small = patterned_table( 2u, 1u );
  EXPECT_EQ( small, patterned_table( 2u, 1u ) );

  // Equal bits at different sizes are different tables.
  EXPECT_NE( truth_table( 8 ), truth_table( 9 ) );
  EXPECT_NE( truth_table( 8 ).hash(), truth_table( 9 ).hash() );
}

INSTANTIATE_TEST_SUITE_P( inline_heap_boundary, truth_table_storage, ::testing::Values( 8u, 9u ) );

TEST( truth_table, shrink_to_support_crosses_from_heap_to_inline )
{
  // f over 10 variables depending only on variables {1, 4, 6, 9}: the
  // table shrinks from 16 heap blocks to one inline block.
  const std::vector<unsigned> used = { 1u, 4u, 6u, 9u };
  const auto f = truth_table::from_function( 10, [&]( std::uint64_t i ) {
    return ( ( ( i >> 1 ) & 1u ) & ( ( i >> 4 ) & 1u ) ) ^ ( ( ( i >> 6 ) | ( i >> 9 ) ) & 1u );
  } );
  std::vector<unsigned> var_map;
  const auto shrunk = f.shrink_to_support( &var_map );
  EXPECT_EQ( var_map, used );
  ASSERT_EQ( shrunk.num_vars(), 4u );
  EXPECT_EQ( shrunk.blocks().size(), 1u );
  for ( std::uint64_t j = 0; j < 16u; ++j )
  {
    std::uint64_t i = 0;
    for ( unsigned v = 0; v < 4u; ++v )
    {
      i |= ( ( j >> v ) & 1u ) << used[v];
    }
    EXPECT_EQ( shrunk.get_bit( j ), f.get_bit( i ) ) << j;
  }

  // 10 -> 8 variables lands exactly on the inline capacity.
  const auto g = truth_table::from_function( 10, []( std::uint64_t i ) {
    return ( ( i & 0xffu ) * 0x2545f491u >> 11 ) & 1u;
  } );
  const auto g8 = g.shrink_to_support();
  ASSERT_EQ( g8.num_vars(), 8u );
  EXPECT_EQ( g8.blocks().size(), 4u );
  for ( std::uint64_t i = 0; i < 256u; ++i )
  {
    EXPECT_EQ( g8.get_bit( i ), g.get_bit( i ) ) << i;
  }
  truth_table copy = g8;
  EXPECT_EQ( copy, g8 );
  EXPECT_EQ( copy.hash(), g8.hash() );
}
