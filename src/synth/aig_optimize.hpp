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
///
/// **Refactor's cost test.**  A cone is replaced when the cheaper of the
/// ISOPs of its function and of the complement costs fewer AND nodes
/// (`#cubes - 1 + sum(#literals - 1)`) than its MFFC, the nodes used only
/// inside the cone.  An SOP of a non-constant function with support k has
/// at least k literals, so it costs at least k - 1 in either polarity:
/// when the MFFC has at most k - 1 nodes both ISOPs are skipped, which
/// never changes a decision.
///
/// **Deadline.**  All three passes poll `stop` between rounds and once per
/// few hundred rebuilt roots, and throw `budget_exhausted` when it has
/// expired; they have no partial result.

#pragma once

#include "../common/budget.hpp"
#include "../logic/aig.hpp"

namespace qsyn
{

/// Balances AND trees; function-preserving, typically reduces depth.
aig_network aig_balance( const aig_network& aig, const deadline& stop = {} );

/// ISOP-based refactoring of cones up to `max_leaves` inputs; throws
/// std::invalid_argument for `max_leaves` above 8 (the ISOP kernel's
/// `isop_max_vars`).
aig_network aig_refactor( const aig_network& aig, unsigned max_leaves = 8,
                          const deadline& stop = {} );

/// The dc2-style driver: alternates cleanup, balance and refactor for
/// `rounds` rounds (stopping early on fixpoint).
aig_network optimize( const aig_network& aig, unsigned rounds = 3, const deadline& stop = {} );

} // namespace qsyn
