/// \file aig_optimize.hpp
/// \brief dc2-style AIG optimization passes.
///
/// The paper's flows run ABC's `dc2` / `resyn2` on the elaborated design
/// before handing it to reversible synthesis.  We provide the two
/// mechanisms of those scripts that the flows use:
///
/// * `balance`    — rebuilds multi-input AND trees in balanced form (depth
///                  reduction, exposes sharing through structural hashing),
/// * `refactor`   — collapses small single-output cones to truth tables and
///                  resynthesizes them from an irredundant SOP when that
///                  reduces the node count.
///
/// `optimize` (our `dc2`) iterates these to a fixpoint with a round limit.

#pragma once

#include "../logic/aig.hpp"

namespace qsyn
{

/// Balances AND trees; function-preserving, typically reduces depth.
aig_network aig_balance( const aig_network& aig );

/// ISOP-based refactoring of cones up to `max_leaves` inputs.
aig_network aig_refactor( const aig_network& aig, unsigned max_leaves = 8 );

/// The dc2-style driver: alternates cleanup, balance and refactor for
/// `rounds` rounds (stopping early on fixpoint).
aig_network optimize( const aig_network& aig, unsigned rounds = 3 );

} // namespace qsyn
