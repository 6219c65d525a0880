/// \file isop.hpp
/// \brief Irredundant sum-of-products computation (Minato-Morreale).
///
/// ISOPs drive the refactoring pass of the dc2-style AIG optimizer and the
/// SOP-based candidate form of the xmglut-style LUT resynthesis.  Both
/// work on small functions (refactor cones of at most 8 leaves, LUTs of at
/// most 6 inputs), so the kernel is word-level: a function of at most
/// `isop_max_vars` = 8 variables is at most four 64-bit words, the
/// recursion keeps its tables on the stack and the cubes are appended to a
/// caller-owned vector, so a caller that reuses its vector never
/// allocates.
///
/// **Cube order.**  The split variable is the highest variable in the
/// support of either bound.  The cubes of one call are, in this order,
/// the cubes that contain the negative literal of the split variable, the
/// cubes that contain its positive literal, and the cubes without it —
/// each group recursively in the same order.  The order is part of the
/// contract: the refactorer and the XMG resynthesis build their logic in
/// cube order, so it decides their output networks.

#pragma once

#include <cstdint>
#include <vector>

#include "../logic/cube.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// Largest number of variables the ISOP kernel accepts.
inline constexpr unsigned isop_max_vars = 8u;

/// Appends to `cubes` an irredundant sum-of-products F with
/// on <= F <= on | dc.  `on` and `dc` hold 2^num_vars bits in
/// max(1, 2^(num_vars - 6)) words, LSB first; bits above 2^num_vars in a
/// single word are ignored.  `dc` may be null (completely specified).
/// Throws std::invalid_argument if num_vars > `isop_max_vars`.
void isop( const std::uint64_t* on, const std::uint64_t* dc, unsigned num_vars,
           std::vector<cube>& cubes );

/// Appends an ISOP of a completely specified function to `cubes`.
void isop( const truth_table& f, std::vector<cube>& cubes );

/// ISOP of `on` with don't-cares `dc` as a fresh vector; `on` and `dc`
/// must have the same number of variables (std::invalid_argument
/// otherwise).
std::vector<cube> isop( const truth_table& on, const truth_table& dc );

/// ISOP of a completely specified function as a fresh vector.
std::vector<cube> isop( const truth_table& f );

/// Truth table covered by a SOP.
truth_table sop_cover( const std::vector<cube>& cubes, unsigned num_vars );

} // namespace qsyn
