#include "qnewton.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "../common/bits.hpp"
#include "../verilog/generators.hpp"
#include "arith.hpp"

namespace qsyn
{

namespace
{

class qnewton_builder
{
public:
  qnewton_builder( unsigned n, const qnewton_params& params ) : n_( n ), params_( params )
  {
    iterations_ = params.iterations == 0u ? verilog::newton_iterations( n ) : params.iterations;
    wq_ = 2u * n + 3u;
    eb_ = std::max( 1u, ceil_log2( n ) );
  }

  qnewton_result run()
  {
    allocate_registers();
    priority_encode();
    normalize();
    initial_estimate();
    for ( unsigned k = 1; k <= iterations_; ++k )
    {
      iterate( k );
    }
    denormalize();
    qnewton_result result;
    result.circuit = std::move( circuit_ );
    result.iterations = iterations_;
    return result;
  }

private:
  std::vector<std::uint32_t> alloc_register( const std::string& prefix, unsigned width,
                                             bool primary_input = false )
  {
    std::vector<std::uint32_t> lines;
    lines.reserve( width );
    for ( unsigned i = 0; i < width; ++i )
    {
      line_info info;
      info.name = prefix + std::to_string( i );
      if ( primary_input )
      {
        info.is_primary_input = true;
      }
      else
      {
        info.is_constant_input = true;
        info.constant_value = false;
      }
      lines.push_back( circuit_.add_line( info ) );
    }
    return lines;
  }

  void allocate_registers()
  {
    x_ = alloc_register( "x", n_, true );
    s_ = alloc_register( "s", eb_ );
    xp_ = alloc_register( "p", n_ );
    xi_.resize( iterations_ + 1u );
    for ( unsigned k = 0; k <= iterations_; ++k )
    {
      xi_[k] = alloc_register( "i" + std::to_string( k ) + "_", wq_ );
    }
    t1_ = alloc_register( "t", wq_ );
    t2_ = alloc_register( "u", wq_ );
    zpool_ = alloc_register( "z", wq_ );
    ye_ = alloc_register( "g", n_ );
    cin_ = alloc_register( "c", 1 )[0];
  }

  /// Writes s = n-1-i into S for the leading-one position i, using the
  /// direct first-one condition (x_i = 1, x_j = 0 for j > i).
  void priority_encode()
  {
    for ( unsigned i = 0; i < n_; ++i )
    {
      const unsigned s_value = n_ - 1u - i;
      if ( s_value == 0u )
      {
        continue; // nothing to write
      }
      control_list cond;
      cond.push_back( { x_[i], true } );
      for ( unsigned j = i + 1u; j < n_; ++j )
      {
        cond.push_back( { x_[j], false } );
      }
      for ( unsigned b = 0; b < eb_; ++b )
      {
        if ( ( s_value >> b ) & 1u )
        {
          circuit_.add_mct( cond, s_[b] );
        }
      }
    }
  }

  /// XP = x << s (the wrapped-around top bits are the leading zeros of x).
  void normalize()
  {
    for ( unsigned i = 0; i < n_; ++i )
    {
      circuit_.add_cnot( x_[i], xp_[i] );
    }
    barrel_rotate_left( circuit_, xp_, s_ );
  }

  /// Shifted (optionally controlled / subtracting) addition of the
  /// multiplicand register into an accumulator at bit offset `offset`
  /// (negative offsets drop low multiplicand bits — fixed-point
  /// truncation).  Zero-pool lines pad the remaining lanes.
  void add_shifted( const std::vector<std::uint32_t>& multiplicand,
                    const std::vector<std::uint32_t>& acc, int offset, bool subtract,
                    std::optional<control> ctrl )
  {
    const auto w = static_cast<int>( acc.size() );
    // Lanes below the first live multiplicand bit add zero with zero carry
    // and can be skipped entirely — this variable adder width is the
    // "precision of the adders varied" optimization of QNEWTON.
    const int lane_lo = std::max( 0, offset );
    if ( lane_lo >= w )
    {
      return;
    }
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    bool any = false;
    for ( int lane = lane_lo; lane < w; ++lane )
    {
      const int src = lane - offset;
      if ( src >= 0 && src < static_cast<int>( multiplicand.size() ) )
      {
        a.push_back( multiplicand[static_cast<std::size_t>( src )] );
        any = true;
      }
      else
      {
        a.push_back( zpool_[static_cast<std::size_t>( lane )] );
      }
      b.push_back( acc[static_cast<std::size_t>( lane )] );
    }
    if ( !any )
    {
      return;
    }
    if ( subtract )
    {
      cuccaro_subtract( circuit_, a, b, cin_, std::nullopt, ctrl );
    }
    else
    {
      cuccaro_add( circuit_, a, b, cin_, std::nullopt, ctrl );
    }
  }

  /// T1 (+/-)= x' * reg, textbook multiplication with multiplier bits
  /// limited to significance >= 2^-precision.  `xq_frac` selects the
  /// multiplicand (XP has n fraction bits).
  void multiply_xp_into_t1( const std::vector<std::uint32_t>& reg, unsigned precision,
                            bool subtract )
  {
    // reg is Q3.2n (multiplier); multiplicand XP bit k has weight 2^(k-n).
    // Term for multiplier bit m lands at accumulator position k + m - n.
    const unsigned m_low = precision >= 2u * n_ ? 0u : 2u * n_ - precision;
    for ( unsigned m = m_low; m < wq_; ++m )
    {
      add_shifted( xp_, t1_, static_cast<int>( m ) - static_cast<int>( n_ ), subtract,
                   control{ reg[m], true } );
    }
  }

  /// T2 (+/-)= prev * T1 (both Q3.2n; T1 may be negative).  Treating the
  /// two's-complement multiplier as unsigned over-counts by
  /// 2^wq * 2^-2n * prev when the sign bit is set (the scaled wrap term is
  /// not a multiple of 2^wq), so an explicit sign-controlled correction
  /// subtracts prev << (wq - 2n).
  void multiply_prev_t1_into_t2( const std::vector<std::uint32_t>& prev, unsigned precision,
                                 bool subtract )
  {
    const unsigned m_low = precision >= 2u * n_ ? 0u : 2u * n_ - precision;
    for ( unsigned m = m_low; m < wq_; ++m )
    {
      add_shifted( prev, t2_, static_cast<int>( m ) - static_cast<int>( 2u * n_ ), subtract,
                   control{ t1_[m], true } );
    }
    add_shifted( prev, t2_, static_cast<int>( wq_ ) - static_cast<int>( 2u * n_ ), !subtract,
                 control{ t1_[wq_ - 1u], true } );
  }

  /// x0 = 48/17 - 32/17 * x'.
  void initial_estimate()
  {
    const auto c32 = verilog::q3_constant( 32u, 17u, n_ );
    const auto c48 = verilog::q3_constant( 48u, 17u, 2u * n_ );
    // T1 = c32 * x' (classical constant times quantum x').
    const auto accumulate = [&]( bool subtract ) {
      for ( unsigned j = 0; j < c32.size(); ++j )
      {
        if ( c32[j] )
        {
          add_shifted( xp_, t1_, static_cast<int>( j ), subtract, std::nullopt );
        }
      }
    };
    accumulate( false );
    // XI0 = c48 - T1.
    xor_constant( circuit_, c48, xi_[0] );
    cuccaro_subtract( circuit_, t1_, xi_[0], cin_ );
    // Uncompute T1.
    accumulate( true );
  }

  unsigned precision_for( unsigned k ) const
  {
    const unsigned target = 2u * n_;
    const unsigned halvings = iterations_ - k;
    const unsigned base = target >> std::min( halvings, 31u );
    return std::min( target, base + params_.guard_bits );
  }

  void iterate( unsigned k )
  {
    const auto& prev = xi_[k - 1u];
    const auto& cur = xi_[k];
    const auto precision = precision_for( k );

    // A: T1 = x' * prev.
    multiply_xp_into_t1( prev, precision, false );
    // B: T1 = 1 - T1  (= ~T1 + 1 + 2^2n, constants via the zero pool).
    for ( const auto line : t1_ )
    {
      circuit_.add_not( line );
    }
    std::vector<bool> one_plus_one( wq_, false );
    one_plus_one[0] = true;       // +1 (two's complement)
    one_plus_one[2u * n_] = true; // +Q3.2n(1)
    add_constant( circuit_, one_plus_one, t1_, zpool_, cin_ );
    // C: T2 = prev * T1.
    multiply_prev_t1_into_t2( prev, precision, false );
    // D: cur = prev + T2.
    for ( unsigned i = 0; i < wq_; ++i )
    {
      circuit_.add_cnot( prev[i], cur[i] );
    }
    cuccaro_add( circuit_, t2_, cur, cin_ );
    // E: uncompute T2, then T1 (reverse of C, then B, then A).
    multiply_prev_t1_into_t2( prev, precision, true );
    add_constant( circuit_, one_plus_one, t1_, zpool_, cin_, true );
    for ( const auto line : t1_ )
    {
      circuit_.add_not( line );
    }
    multiply_xp_into_t1( prev, precision, true );
  }

  /// y_k = bit (2n + k) of (x_I << s); the extension register provides the
  /// headroom so the rotation is a clean shift.
  void denormalize()
  {
    std::vector<std::uint32_t> extended = xi_[iterations_];
    extended.insert( extended.end(), ye_.begin(), ye_.end() );
    barrel_rotate_left( circuit_, extended, s_ );
    for ( unsigned k = 0; k < n_; ++k )
    {
      auto& info = circuit_.line( extended[2u * n_ + k] );
      info.output_index = static_cast<int>( k );
      info.is_garbage = false;
    }
  }

  unsigned n_;
  qnewton_params params_;
  unsigned iterations_ = 0;
  unsigned wq_ = 0;
  unsigned eb_ = 0;
  reversible_circuit circuit_;

  std::vector<std::uint32_t> x_;
  std::vector<std::uint32_t> s_;
  std::vector<std::uint32_t> xp_;
  std::vector<std::vector<std::uint32_t>> xi_;
  std::vector<std::uint32_t> t1_;
  std::vector<std::uint32_t> t2_;
  std::vector<std::uint32_t> zpool_;
  std::vector<std::uint32_t> ye_;
  std::uint32_t cin_ = 0;
};

} // namespace

qnewton_result build_qnewton( unsigned n, const qnewton_params& params )
{
  qnewton_builder builder( n, params );
  return builder.run();
}

} // namespace qsyn
