#include "lut_map.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace qsyn
{

std::vector<bool> lut_network::evaluate( const std::vector<bool>& inputs ) const
{
  assert( inputs.size() == num_pis );
  std::vector<bool> values( num_pis + luts.size() );
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    values[i] = inputs[i];
  }
  for ( std::size_t l = 0; l < luts.size(); ++l )
  {
    std::uint64_t index = 0;
    for ( std::size_t f = 0; f < luts[l].fanins.size(); ++f )
    {
      if ( values[luts[l].fanins[f]] )
      {
        index |= std::uint64_t{ 1 } << f;
      }
    }
    values[num_pis + l] = luts[l].function.get_bit( index );
  }
  std::vector<bool> result;
  result.reserve( outputs.size() );
  for ( const auto& out : outputs )
  {
    result.push_back( values[out.signal] ^ out.complemented );
  }
  return result;
}

namespace
{

constexpr unsigned max_cut_size = lut_map_params::max_cut_size;

/// A priority cut: up to six sorted leaf nodes, the cut function as one
/// 64-bit truth-table word over the leaves (variables at or above
/// `num_leaves` are don't-cares, so the word is their replication), and a
/// leaf signature with bit (leaf mod 64) set per leaf.  Distinct leaves may
/// share a signature bit, so popcount(sig0 | sig1) never exceeds the size of
/// the leaf union: a merge is skipped on the signature only if infeasible.
struct cut
{
  std::uint64_t function = 0u;
  std::uint64_t signature = 0u;
  double area_flow = 0.0;
  std::uint32_t depth = 0u;
  std::uint32_t num_leaves = 0u;
  std::array<std::uint32_t, max_cut_size> leaves{};
};

/// Swaps variables i < j of a six-variable truth-table word.
std::uint64_t swap_vars( std::uint64_t w, unsigned i, unsigned j )
{
  const unsigned shift = ( 1u << j ) - ( 1u << i );
  const auto up = projections[i] & ~projections[j]; // x_i = 1, x_j = 0
  return ( w & ~( up | ( up << shift ) ) ) | ( ( w & up ) << shift ) | ( ( w >> shift ) & up );
}

/// Re-expresses a cut function on the leaf union: leaf i moves to union
/// position pos[i] >= i.  Going from the highest leaf down, position pos[i]
/// always holds a don't-care variable, so one swap per leaf suffices.
std::uint64_t expand_function( const cut& c, const unsigned* pos )
{
  auto w = c.function;
  for ( unsigned i = c.num_leaves; i-- > 0u; )
  {
    if ( pos[i] != i )
    {
      w = swap_vars( w, i, pos[i] );
    }
  }
  return w;
}

/// Sorted union of the leaves of `a` and `b` into `out`, recording where
/// each input leaf lands; false if the union has more than `k` leaves.
bool merge_leaves( const cut& a, const cut& b, unsigned k, cut& out, unsigned* pos_a,
                   unsigned* pos_b )
{
  constexpr auto none = std::numeric_limits<std::uint32_t>::max();
  unsigned i = 0u, j = 0u, n = 0u;
  while ( i < a.num_leaves || j < b.num_leaves )
  {
    if ( n == k )
    {
      return false;
    }
    const auto la = i < a.num_leaves ? a.leaves[i] : none;
    const auto lb = j < b.num_leaves ? b.leaves[j] : none;
    if ( la <= lb )
    {
      pos_a[i++] = n;
    }
    if ( lb <= la )
    {
      pos_b[j++] = n;
    }
    out.leaves[n++] = std::min( la, lb );
  }
  out.num_leaves = n;
  return true;
}

/// The single-leaf cut {n} (function x_0).
cut unit_cut( std::uint32_t n )
{
  cut c;
  c.function = projections[0];
  c.signature = std::uint64_t{ 1 } << ( n & 63u );
  c.num_leaves = 1u;
  c.leaves[0] = n;
  return c;
}

truth_table cut_function( const cut& c )
{
  truth_table tt( c.num_leaves );
  tt.blocks()[0] = c.function & block_mask( c.num_leaves );
  return tt;
}

} // namespace

lut_network lut_map( const aig_network& aig, const lut_map_params& params )
{
  const auto k = params.cut_size;
  if ( k < lut_map_params::min_cut_size || k > max_cut_size )
  {
    // Every merged cut of an AND node has >= 2 leaves, so k < 2 would leave
    // nodes without a candidate cut; a cut function is one 64-bit word, so
    // k is at most 6.
    throw std::invalid_argument( "lut_map: cut_size must be in [2, 6], got " +
                                 std::to_string( k ) );
  }
  if ( params.cuts_per_node == 0u )
  {
    throw std::invalid_argument( "lut_map: cuts_per_node must be at least 1" );
  }
  const auto fanouts = aig.fanout_counts();

  // Per node: list of candidate cuts (first entry is the best, the trivial
  // cut last).  Cut lists are freed once every fanout has consumed them;
  // the best cut survives in `best_cuts` for the cover-extraction phase.
  std::vector<std::vector<cut>> cuts( aig.num_nodes() );
  std::vector<cut> best_cuts( aig.num_nodes() );
  std::vector<std::uint32_t> pending_fanouts( fanouts );
  // Mapped depth / area flow per node (PIs: 0), used to cost candidate cuts
  // from their *leaves* rather than from the structural merge path.
  std::vector<std::uint32_t> node_depth( aig.num_nodes(), 0u );
  std::vector<double> node_area_flow( aig.num_nodes(), 0.0 );

  // A constant fanin contributes the leafless constant-0 cut; constants
  // stay inside LUT functions.
  const std::vector<cut> constant_cuts( 1u );
  for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
  {
    cuts[n].push_back( unit_cut( n ) );
  }

  std::vector<cut> candidates;
  unsigned pos0[max_cut_size];
  unsigned pos1[max_cut_size];
  for ( std::uint32_t n = aig.num_pis() + 1u; n < aig.num_nodes(); ++n )
  {
    const auto f0 = aig.fanin0( n );
    const auto f1 = aig.fanin1( n );
    const auto n0 = lit_node( f0 );
    const auto n1 = lit_node( f1 );
    const auto& cuts0 = n0 == 0u ? constant_cuts : cuts[n0];
    const auto& cuts1 = n1 == 0u ? constant_cuts : cuts[n1];
    const std::uint64_t invert0 = lit_complemented( f0 ) ? ~std::uint64_t{ 0 } : 0u;
    const std::uint64_t invert1 = lit_complemented( f1 ) ? ~std::uint64_t{ 0 } : 0u;

    // Candidates in fanin0-outer, fanin1-inner order, duplicates kept.
    candidates.clear();
    for ( const auto& c0 : cuts0 )
    {
      for ( const auto& c1 : cuts1 )
      {
        if ( static_cast<unsigned>( popcount64( c0.signature | c1.signature ) ) > k )
        {
          continue;
        }
        cut c;
        if ( !merge_leaves( c0, c1, k, c, pos0, pos1 ) )
        {
          continue;
        }
        c.signature = c0.signature | c1.signature;
        c.function =
            ( expand_function( c0, pos0 ) ^ invert0 ) & ( expand_function( c1, pos1 ) ^ invert1 );
        c.area_flow = 1.0;
        for ( unsigned i = 0; i < c.num_leaves; ++i )
        {
          const auto leaf = c.leaves[i];
          c.depth = std::max( c.depth, node_depth[leaf] + 1u );
          c.area_flow += node_area_flow[leaf] / std::max( 1u, fanouts[leaf] );
        }
        candidates.push_back( c );
      }
    }
    std::sort( candidates.begin(), candidates.end(), []( const cut& a, const cut& b ) {
      if ( a.depth != b.depth )
      {
        return a.depth < b.depth;
      }
      if ( a.area_flow != b.area_flow )
      {
        return a.area_flow < b.area_flow;
      }
      return a.num_leaves < b.num_leaves;
    } );
    assert( !candidates.empty() );
    const auto kept = std::min<std::size_t>( candidates.size(), params.cuts_per_node );
    const auto& best = candidates.front();
    best_cuts[n] = best;
    node_depth[n] = best.depth;
    node_area_flow[n] = best.area_flow;
    // The trivial cut (the node itself, costed as its best cut) takes part
    // in fanout merging only.
    auto trivial = unit_cut( n );
    trivial.depth = best.depth;
    trivial.area_flow = best.area_flow;
    auto& list = cuts[n];
    list.reserve( kept + 1u );
    list.assign( candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>( kept ) );
    list.push_back( trivial );
    // Release fanin cut lists that are no longer needed.
    for ( const auto m : { n0, n1 } )
    {
      if ( m > aig.num_pis() && pending_fanouts[m] > 0u && --pending_fanouts[m] == 0u )
      {
        cuts[m].clear();
        cuts[m].shrink_to_fit();
      }
    }
  }

  // Cover extraction from the POs using each required node's best cut.
  lut_network net;
  net.num_pis = aig.num_pis();
  std::unordered_map<std::uint32_t, std::uint32_t> node_to_signal; // AIG node -> LUT signal
  for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
  {
    node_to_signal[n] = n - 1u;
  }

  const auto build = [&]( std::uint32_t n, const auto& self ) -> std::uint32_t {
    if ( const auto it = node_to_signal.find( n ); it != node_to_signal.end() )
    {
      return it->second;
    }
    assert( aig.is_and( n ) );
    const auto& best = best_cuts[n];
    lut_network::lut l;
    l.function = cut_function( best );
    l.fanins.reserve( best.num_leaves );
    for ( unsigned i = 0; i < best.num_leaves; ++i )
    {
      l.fanins.push_back( self( best.leaves[i], self ) );
    }
    const auto signal = net.num_pis + static_cast<std::uint32_t>( net.luts.size() );
    net.luts.push_back( std::move( l ) );
    node_to_signal[n] = signal;
    return signal;
  };

  for ( const auto po : aig.pos() )
  {
    const auto n = lit_node( po );
    if ( n == 0u )
    {
      // Constant output: encode as a zero-input LUT.
      lut_network::lut l;
      l.function = truth_table( 0 );
      const auto signal = net.num_pis + static_cast<std::uint32_t>( net.luts.size() );
      net.luts.push_back( std::move( l ) );
      net.outputs.push_back( { signal, lit_complemented( po ) } );
      continue;
    }
    net.outputs.push_back( { build( n, build ), lit_complemented( po ) } );
  }
  return net;
}

} // namespace qsyn
