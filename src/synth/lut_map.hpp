/// \file lut_map.hpp
/// \brief k-LUT technology mapping of an AIG via cut enumeration.
///
/// The hierarchical flow derives an XMG from the optimized AIG with
/// CirKit's `xmglut -k 4` (paper Sec. IV-C): the AIG is covered with
/// k-feasible cuts, and each cut function is resynthesized into XOR/MAJ
/// logic.  This module provides the covering half: priority-cut
/// enumeration with depth-oriented selection and an area-flow tiebreak,
/// producing a LUT network with explicit truth tables per LUT.

#pragma once

#include <cstdint>
#include <vector>

#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// A mapped LUT network.  Signals are indexed 0..num_pis-1 for the PIs,
/// then one index per LUT in topological order.
struct lut_network
{
  unsigned num_pis = 0;

  struct lut
  {
    std::vector<std::uint32_t> fanins; ///< signal indices
    truth_table function;              ///< over fanins.size() variables
  };

  std::vector<lut> luts;

  struct output
  {
    std::uint32_t signal;
    bool complemented;
  };
  std::vector<output> outputs;

  std::uint32_t signal_of_lut( std::size_t lut_index ) const
  {
    return num_pis + static_cast<std::uint32_t>( lut_index );
  }

  /// Evaluates all outputs on one input assignment (for verification).
  std::vector<bool> evaluate( const std::vector<bool>& inputs ) const;
};

/// Parameters of the mapper.
struct lut_map_params
{
  /// Valid range of `cut_size`: an AND node's cuts have at least two
  /// leaves, and a cut function is held in one 64-bit word.
  static constexpr unsigned min_cut_size = 2u;
  static constexpr unsigned max_cut_size = 6u;

  unsigned cut_size = 4;     ///< k, in [min_cut_size, max_cut_size]
  unsigned cuts_per_node = 8; ///< priority cut list length, at least 1
};

/// Maps an AIG into a k-LUT network.  Throws std::invalid_argument when
/// `cut_size` is outside [2, 6] or `cuts_per_node` is 0.
lut_network lut_map( const aig_network& aig, const lut_map_params& params = {} );

} // namespace qsyn
