#include "generators.hpp"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "../common/bits.hpp"

namespace qsyn::verilog
{

std::string binary_literal( unsigned width, const std::vector<bool>& bits_lsb_first )
{
  std::string s = std::to_string( width ) + "'b";
  for ( unsigned i = width; i > 0; --i )
  {
    const bool bit = ( i - 1u ) < bits_lsb_first.size() && bits_lsb_first[i - 1u];
    s += bit ? '1' : '0';
  }
  return s;
}

std::vector<bool> q3_constant( unsigned numerator, unsigned denominator, unsigned frac_bits )
{
  assert( denominator != 0u );
  assert( numerator / denominator < 8u );
  // LSB-first layout: fraction bits 0..frac_bits-1, integer bits
  // frac_bits..frac_bits+2.
  std::vector<bool> bits( frac_bits + 3u, false );
  unsigned integer_part = numerator / denominator;
  for ( unsigned b = 0; b < 3u; ++b )
  {
    bits[frac_bits + b] = ( integer_part >> b ) & 1u;
  }
  // Schoolbook binary expansion of the remainder.
  unsigned remainder = numerator % denominator;
  for ( unsigned k = 1; k <= frac_bits; ++k )
  {
    remainder *= 2u;
    const bool bit = remainder >= denominator;
    if ( bit )
    {
      remainder -= denominator;
    }
    bits[frac_bits - k] = bit;
  }
  return bits;
}

unsigned newton_iterations( unsigned n )
{
  const double ratio = static_cast<double>( n + 1u ) / std::log2( 17.0 );
  const auto iterations = static_cast<unsigned>( std::ceil( std::log2( ratio ) ) );
  return std::max( 1u, iterations );
}

std::uint64_t reciprocal_reference( unsigned n, std::uint64_t x )
{
  if ( n > 62u )
  {
    throw std::invalid_argument( "reciprocal_reference: n too large for host arithmetic" );
  }
  assert( x != 0u );
  const std::uint64_t numerator = std::uint64_t{ 1 } << n;
  const std::uint64_t quotient = numerator / x;
  return quotient & ( numerator - 1u ); // drop the MSB of the (n+1)-bit result
}

std::string generate_intdiv( unsigned n )
{
  if ( n < intdiv_min_bitwidth || n > max_bitwidth )
  {
    throw std::invalid_argument( "generate_intdiv: n must be in [" +
                                 std::to_string( intdiv_min_bitwidth ) + ", " +
                                 std::to_string( max_bitwidth ) + "]" );
  }
  std::ostringstream os;
  // 2^n as an (n+1)-bit binary literal: 1 followed by n zeros.
  std::vector<bool> two_to_n( n + 1u, false );
  two_to_n[n] = true;
  os << "// INTDIV(" << n << "): reciprocal via Verilog integer division (paper Sec. III-1)\n";
  os << "module intdiv_" << n << "(x, y);\n";
  os << "  input [" << ( n - 1u ) << ":0] x;\n";
  os << "  output [" << ( n - 1u ) << ":0] y;\n";
  os << "  wire [" << n << ":0] q = " << binary_literal( n + 1u, two_to_n )
     << " / {1'b0, x};\n";
  os << "  assign y = q[" << ( n - 1u ) << ":0];\n";
  os << "endmodule\n";
  return os.str();
}

std::string generate_newton( unsigned n, unsigned iterations )
{
  if ( n < newton_min_bitwidth || n > max_bitwidth )
  {
    throw std::invalid_argument( "generate_newton: n must be in [" +
                                 std::to_string( newton_min_bitwidth ) + ", " +
                                 std::to_string( max_bitwidth ) + "]" );
  }
  const unsigned num_iter = iterations == 0u ? newton_iterations( n ) : iterations;
  const unsigned ebits = ceil_log2( n + 1u ); ///< bits for the exponent e in [0, n]
  const unsigned nw = n + 3u;                 ///< Q3.n
  const unsigned w = 2u * n + 3u;             ///< Q3.2n

  std::ostringstream os;
  os << "// NEWTON(" << n << "): reciprocal via the Newton-Raphson method on\n";
  os << "// Q3.w fixed-point numbers (paper Sec. III-2), " << num_iter << " iterations\n";
  os << "module newton_" << n << "(x, y);\n";
  os << "  input [" << ( n - 1u ) << ":0] x;\n";
  os << "  output [" << ( n - 1u ) << ":0] y;\n";

  // Step 1: normalization.  e = index of the leading one (1-based), so
  // x' = x / 2^e lies in [1/2, 1); x' has n fraction bits: xp = x << (n-e).
  os << "  // step 1: normalize x into [1/2, 1)\n";
  os << "  wire [" << ( ebits - 1u ) << ":0] e = ";
  for ( unsigned bit = n; bit > 0; --bit )
  {
    os << "x[" << ( bit - 1u ) << "] ? " << ebits << "'d" << bit << " : ";
  }
  os << ebits << "'d0;\n";
  os << "  wire [" << ( n - 1u ) << ":0] xp = x << (" << ( ebits + 1u ) << "'d" << n
     << " - {1'b0, e});\n";
  // x' as a Q3.n value (integer part is zero).
  os << "  wire [" << ( nw - 1u ) << ":0] xq = {3'b000, xp};\n";

  // Step 2: initial estimate x0 = Q3.2n(48/17) - Q3.n(32/17) *2n x'.
  os << "  // step 2: x0 = 48/17 - 32/17 * x'\n";
  os << "  wire [" << ( w - 1u ) << ":0] c48 = "
     << binary_literal( w, q3_constant( 48u, 17u, 2u * n ) ) << ";\n";
  os << "  wire [" << ( nw - 1u ) << ":0] c32 = "
     << binary_literal( nw, q3_constant( 32u, 17u, n ) ) << ";\n";
  // Q3.n * Q3.n full product: Q6.2n in 2*nw bits; truncate the top 3
  // integer bits to get Q3.2n.
  os << "  wire [" << ( 2u * nw - 1u ) << ":0] p0 = c32 * xq;\n";
  os << "  wire [" << ( w - 1u ) << ":0] x0 = c48 - p0[" << ( w - 1u ) << ":0];\n";

  // Q3.2n(1).
  std::vector<bool> one_bits( w, false );
  one_bits[2u * n] = true;
  os << "  wire [" << ( w - 1u ) << ":0] one = " << binary_literal( w, one_bits ) << ";\n";

  // Step 3: Newton iterations x_i = x_{i-1} + x_{i-1} *2n (1 - x' *2n x_{i-1}).
  for ( unsigned i = 1; i <= num_iter; ++i )
  {
    const std::string prev = "x" + std::to_string( i - 1u );
    const std::string cur = "x" + std::to_string( i );
    os << "  // step 3, iteration " << i << "\n";
    // pa = x' * x_{i-1}: Q3.n * Q3.2n = Q6.3n in nw + w bits;
    // *2n-truncation keeps fraction bits [n .. 3n-1] and integer bits
    // [3n .. 3n+2].
    os << "  wire [" << ( nw + w - 1u ) << ":0] pa" << i << " = xq * " << prev << ";\n";
    os << "  wire [" << ( w - 1u ) << ":0] t" << i << " = one - pa" << i << "["
       << ( 3u * n + 2u ) << ":" << n << "];\n";
    // pb = x_{i-1} * t: Q3.2n * Q3.2n = Q6.4n in 2w bits; keep fraction
    // bits [2n .. 4n-1] and integer bits [4n .. 4n+2].  t can be negative
    // (two's complement), so it must be sign-extended to the full product
    // width; x_{i-1} stays in (0, 2) and zero-extends correctly.
    os << "  wire [" << ( 2u * w - 1u ) << ":0] ts" << i << " = {{" << w << "{t" << i
       << "[" << ( w - 1u ) << "]}}, t" << i << "};\n";
    os << "  wire [" << ( 2u * w - 1u ) << ":0] pb" << i << " = " << prev << " * ts" << i
       << ";\n";
    os << "  wire [" << ( w - 1u ) << ":0] " << cur << " = " << prev << " + pb" << i << "["
       << ( 4u * n + 2u ) << ":" << ( 2u * n ) << "];\n";
  }

  // Steps 4-5: denormalize (y' = x_I >> e) and take the n most significant
  // fraction bits.
  os << "  // steps 4-5: denormalize and extract n fraction bits\n";
  os << "  wire [" << ( w - 1u ) << ":0] yp = x" << num_iter << " >> e;\n";
  os << "  assign y = yp[" << ( 2u * n - 1u ) << ":" << n << "];\n";
  os << "endmodule\n";
  return os.str();
}

} // namespace qsyn::verilog
