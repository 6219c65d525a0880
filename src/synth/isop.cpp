#include "isop.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace qsyn
{

namespace
{

/// --- one word: functions of the variables below `bound` <= 6 ------------
//
// A table over fewer than 6 variables is kept replicated over the whole
// word (the variables at and above `bound` are don't-cares that never
// split), so the constant tests and cofactors are plain word operations.

constexpr std::uint64_t ones = ~std::uint64_t{ 0 };

std::uint64_t cofactor0( std::uint64_t t, unsigned var )
{
  const auto low = t & ~projections[var];
  return low | ( low << ( 1u << var ) );
}

std::uint64_t cofactor1( std::uint64_t t, unsigned var )
{
  const auto high = t & projections[var];
  return high | ( high >> ( 1u << var ) );
}

/// Adds a literal of `var` to `cubes[begin, end)`.
void add_literal_from( std::vector<cube>& cubes, std::size_t begin, std::size_t end, unsigned var,
                       bool positive )
{
  for ( auto i = begin; i < end; ++i )
  {
    cubes[i].add_literal( var, positive );
  }
}

/// Minato-Morreale on one word: appends the cubes of an ISOP F with
/// lower <= F <= upper and returns F.  Invariant: lower <= upper.
std::uint64_t isop_word( std::uint64_t lower, std::uint64_t upper, unsigned bound,
                         std::vector<cube>& cubes )
{
  if ( lower == 0u )
  {
    return 0u;
  }
  if ( upper == ones )
  {
    cubes.emplace_back();
    return ones;
  }
  // The highest variable in the support of either bound; one exists since
  // lower != 0, upper != 1 and lower <= upper.
  unsigned var = bound;
  while ( var > 0u && !blocks_depend_on( &lower, 1u, var - 1u ) &&
          !blocks_depend_on( &upper, 1u, var - 1u ) )
  {
    --var;
  }
  assert( var > 0u );
  --var;

  const auto l0 = cofactor0( lower, var );
  const auto l1 = cofactor1( lower, var );
  const auto u0 = cofactor0( upper, var );
  const auto u1 = cofactor1( upper, var );
  // Cubes with !var (needed where var = 0, not allowed where var = 1),
  // cubes with var, and the remaining minterms without var.
  const auto begin0 = cubes.size();
  const auto c0 = isop_word( l0 & ~u1, u0, var, cubes );
  const auto begin1 = cubes.size();
  const auto c1 = isop_word( l1 & ~u0, u1, var, cubes );
  const auto end1 = cubes.size();
  const auto rest = isop_word( ( l0 & ~c0 ) | ( l1 & ~c1 ), u0 & u1, var, cubes );
  add_literal_from( cubes, begin0, begin1, var, false );
  add_literal_from( cubes, begin1, end1, var, true );
  return ( ~projections[var] & c0 ) | ( projections[var] & c1 ) | rest;
}

/// --- two or four words: functions of 7 or 8 variables ----------------------

/// Minato-Morreale on 2^(bound - 6) words (bound 7 or 8); writes F to
/// `cover`.
void isop_words( const std::uint64_t* lower, const std::uint64_t* upper, unsigned bound,
                 std::vector<cube>& cubes, std::uint64_t* cover )
{
  if ( bound <= 6u )
  {
    cover[0] = isop_word( lower[0], upper[0], bound, cubes );
    return;
  }
  const unsigned words = 1u << ( bound - 6u );
  if ( std::all_of( lower, lower + words, []( std::uint64_t w ) { return w == 0u; } ) )
  {
    std::fill( cover, cover + words, 0u );
    return;
  }
  if ( std::all_of( upper, upper + words, []( std::uint64_t w ) { return w == ones; } ) )
  {
    cubes.emplace_back();
    std::fill( cover, cover + words, ones );
    return;
  }
  unsigned var = bound;
  while ( var > 6u && !blocks_depend_on( lower, words, var - 1u ) &&
          !blocks_depend_on( upper, words, var - 1u ) )
  {
    --var;
  }
  if ( var == 6u )
  {
    // Neither bound depends on a word variable: every word is the same
    // function of the first six variables.
    std::fill( cover, cover + words, isop_word( lower[0], upper[0], 6u, cubes ) );
    return;
  }
  --var;

  // The bounds do not depend on the variables above `var`, so their first
  // 2 * half words hold both cofactors.
  const unsigned half = 1u << ( var - 6u );
  const std::uint64_t* l0 = lower;
  const std::uint64_t* l1 = lower + half;
  const std::uint64_t* u0 = upper;
  const std::uint64_t* u1 = upper + half;
  std::uint64_t sub_lower[2];
  std::uint64_t sub_upper[2];
  std::uint64_t c0[2];
  std::uint64_t c1[2];
  std::uint64_t rest[2];

  const auto begin0 = cubes.size();
  for ( unsigned i = 0; i < half; ++i )
  {
    sub_lower[i] = l0[i] & ~u1[i];
  }
  isop_words( sub_lower, u0, var, cubes, c0 );
  const auto begin1 = cubes.size();
  for ( unsigned i = 0; i < half; ++i )
  {
    sub_lower[i] = l1[i] & ~u0[i];
  }
  isop_words( sub_lower, u1, var, cubes, c1 );
  const auto end1 = cubes.size();
  for ( unsigned i = 0; i < half; ++i )
  {
    sub_lower[i] = ( l0[i] & ~c0[i] ) | ( l1[i] & ~c1[i] );
    sub_upper[i] = u0[i] & u1[i];
  }
  isop_words( sub_lower, sub_upper, var, cubes, rest );
  add_literal_from( cubes, begin0, begin1, var, false );
  add_literal_from( cubes, begin1, end1, var, true );
  for ( unsigned i = 0; i < half; ++i )
  {
    cover[i] = c0[i] | rest[i];
    cover[half + i] = c1[i] | rest[i];
  }
  for ( unsigned i = 2u * half; i < words; ++i )
  {
    cover[i] = cover[i - 2u * half];
  }
}

/// The low 2^num_vars bits of `w` repeated over the whole word.
std::uint64_t replicate( std::uint64_t w, unsigned num_vars )
{
  w &= block_mask( num_vars );
  for ( auto width = std::uint64_t{ 1 } << num_vars; width < 64u; width <<= 1u )
  {
    w |= w << width;
  }
  return w;
}

} // namespace

void isop( const std::uint64_t* on, const std::uint64_t* dc, unsigned num_vars,
           std::vector<cube>& cubes )
{
  if ( num_vars > isop_max_vars )
  {
    throw std::invalid_argument( "isop: at most " + std::to_string( isop_max_vars ) +
                                 " variables, got " + std::to_string( num_vars ) );
  }
  if ( num_vars <= 6u )
  {
    const auto lower = replicate( on[0], num_vars );
    const auto upper = dc ? lower | replicate( dc[0], num_vars ) : lower;
    isop_word( lower, upper, num_vars, cubes );
    return;
  }
  const auto words = num_blocks_for( num_vars );
  std::uint64_t upper[4];
  for ( std::size_t i = 0; i < words; ++i )
  {
    upper[i] = dc ? on[i] | dc[i] : on[i];
  }
  std::uint64_t cover[4];
  isop_words( on, upper, num_vars, cubes, cover );
}

void isop( const truth_table& f, std::vector<cube>& cubes )
{
  isop( f.blocks().data(), nullptr, f.num_vars(), cubes );
}

std::vector<cube> isop( const truth_table& on, const truth_table& dc )
{
  if ( on.num_vars() != dc.num_vars() )
  {
    throw std::invalid_argument( "isop: on-set and don't-care set differ in size" );
  }
  std::vector<cube> cubes;
  isop( on.blocks().data(), dc.blocks().data(), on.num_vars(), cubes );
  return cubes;
}

std::vector<cube> isop( const truth_table& f )
{
  std::vector<cube> cubes;
  isop( f, cubes );
  return cubes;
}

truth_table sop_cover( const std::vector<cube>& cubes, unsigned num_vars )
{
  truth_table tt( num_vars );
  for ( const auto& c : cubes )
  {
    tt |= c.to_truth_table( num_vars );
  }
  return tt;
}

} // namespace qsyn
