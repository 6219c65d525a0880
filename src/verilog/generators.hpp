/// \file generators.hpp
/// \brief Verilog generators for the paper's two reciprocal designs.
///
/// Section III of the paper introduces two Verilog descriptions of the
/// n-bit reciprocal rec(x) = y with 1/x = (0.y1...yn)_2 for x = (x1...xn)_2:
///
/// * INTDIV(n)  — Verilog's integer division operator: y is the low n bits
///   of the (n+1)-bit unsigned division 2^n / x.
/// * NEWTON(n)  — the Newton–Raphson method on Q3.w fixed-point numbers:
///   normalize x into [1/2, 1), start from x0 = 48/17 - 32/17 * x', iterate
///   x_i = x_{i-1} + x_{i-1} * (1 - x' * x_{i-1}) with 2n fraction bits,
///   and denormalize.
///
/// Both functions return Verilog source text that round-trips through our
/// own parser/elaborator — exactly how the paper's flows start from
/// hardware description language input.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qsyn::verilog
{

/// Bitwidth range of the generators: `generate_intdiv` accepts n in
/// [intdiv_min_bitwidth, max_bitwidth], `generate_newton` n in
/// [newton_min_bitwidth, max_bitwidth]; both throw std::invalid_argument
/// outside it.
constexpr unsigned intdiv_min_bitwidth = 1;
constexpr unsigned newton_min_bitwidth = 2;
constexpr unsigned max_bitwidth = 192;

/// Verilog source of the INTDIV(n) reciprocal design.
std::string generate_intdiv( unsigned n );

/// Verilog source of the NEWTON(n) reciprocal design.  `iterations` == 0
/// selects the paper's schedule I = ceil(log2((n+1) / log2(17))).
std::string generate_newton( unsigned n, unsigned iterations = 0 );

/// The paper's Newton iteration count for target precision n.
unsigned newton_iterations( unsigned n );

/// Reference model of the reciprocal: the exact value floor(2^n / x) mod
/// 2^n computed on host integers (n <= 62); undefined for x == 0.
std::uint64_t reciprocal_reference( unsigned n, std::uint64_t x );

/// Binary literal helper: `width'b...` string for value (LSB-first bits
/// provided as a callable).  Exposed for tests.
std::string binary_literal( unsigned width, const std::vector<bool>& bits_lsb_first );

/// Fixed-point binary expansion of the fraction `numerator / denominator`
/// (< 8) as a Q3.frac_bits value, LSB first (truncation, not rounding).
std::vector<bool> q3_constant( unsigned numerator, unsigned denominator, unsigned frac_bits );

} // namespace qsyn::verilog
