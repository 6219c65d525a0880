/// \file wide_sim.cpp
/// \brief Portable kernels, backend dispatch, and the wide simulators.

#include "wide_sim.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "verify.hpp"
#include "wide_sim_kernels.hpp"

namespace qsyn
{

namespace wide_detail
{

// Backend tables compiled behind CMake's QSYN_SIMD option; each lives in a
// TU built with the matching arch flags (see wide_sim_avx2.cpp /
// wide_sim_avx512.cpp).  Execution is additionally gated on cpuid below,
// so enabling a backend at build time never produces illegal instructions
// on an older machine.
#if defined( QSYN_HAVE_AVX2 )
kernel_table avx2_table( unsigned words );
#endif
#if defined( QSYN_HAVE_AVX512 )
kernel_table avx512_table( unsigned words );
#endif

namespace
{

kernel_table portable_table( unsigned words )
{
  switch ( words )
  {
  case 1u:
    return table_of<portable_ops<1>>();
  case 4u:
    return table_of<portable_ops<4>>();
  case 8u:
    return table_of<portable_ops<8>>();
  default:
    throw std::logic_error( "wide_sim: unsupported lane-group width" );
  }
}

bool cpu_supports( simd_backend backend )
{
#if defined( __GNUC__ ) || defined( __clang__ )
  switch ( backend )
  {
  case simd_backend::portable:
    return true;
  case simd_backend::avx2:
    return __builtin_cpu_supports( "avx2" ) != 0;
  case simd_backend::avx512:
    return __builtin_cpu_supports( "avx512f" ) != 0;
  }
#endif
  return backend == simd_backend::portable;
}

/// Runtime cap from the QSYN_SIMD environment variable, parsed once:
/// "off"/"portable" pin the portable kernels, "avx2" caps at AVX2,
/// "avx512"/"native" leave the cpuid choice alone.  Unknown values are
/// ignored rather than fatal — a mistyped override must not change
/// verdicts, only (at worst) speed.
simd_backend backend_cap()
{
  static const simd_backend cap = [] {
    const char* env = std::getenv( "QSYN_SIMD" );
    if ( env == nullptr )
    {
      return simd_backend::avx512;
    }
    const std::string v( env );
    if ( v == "off" || v == "portable" )
    {
      return simd_backend::portable;
    }
    if ( v == "avx2" )
    {
      return simd_backend::avx2;
    }
    return simd_backend::avx512;
  }();
  return cap;
}

bool backend_usable( simd_backend backend )
{
  return simd_backend_compiled( backend ) && cpu_supports( backend ) &&
         static_cast<int>( backend ) <= static_cast<int>( backend_cap() );
}

kernel_table table_for( simd_backend backend, unsigned words )
{
  switch ( backend )
  {
#if defined( QSYN_HAVE_AVX2 )
  case simd_backend::avx2:
    return avx2_table( words );
#endif
#if defined( QSYN_HAVE_AVX512 )
  case simd_backend::avx512:
    return avx512_table( words );
#endif
  default:
    return portable_table( words );
  }
}

} // namespace

} // namespace wide_detail

sim_width auto_sim_width( std::uint64_t assignments )
{
  if ( assignments <= lanes_of( sim_width::w64 ) )
  {
    return sim_width::w64;
  }
  if ( assignments <= lanes_of( sim_width::w256 ) )
  {
    return sim_width::w256;
  }
  return sim_width::w512;
}

const char* simd_backend_name( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return "avx2";
  case simd_backend::avx512:
    return "avx512";
  default:
    return "portable";
  }
}

bool simd_backend_compiled( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
#if defined( QSYN_HAVE_AVX2 )
    return true;
#else
    return false;
#endif
  case simd_backend::avx512:
#if defined( QSYN_HAVE_AVX512 )
    return true;
#else
    return false;
#endif
  default:
    return true;
  }
}

simd_backend active_simd_backend( sim_width width )
{
  // A single 64-bit word per group leaves nothing for a vector register to
  // do; w64 always runs the portable scalar words.
  if ( width == sim_width::w64 )
  {
    return simd_backend::portable;
  }
  if ( width == sim_width::w512 && wide_detail::backend_usable( simd_backend::avx512 ) )
  {
    return simd_backend::avx512;
  }
  if ( wide_detail::backend_usable( simd_backend::avx2 ) )
  {
    return simd_backend::avx2;
  }
  return simd_backend::portable;
}

void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words )
{
  static const auto kernel = [] {
    const auto backend = active_simd_backend( sim_width::w512 );
    return wide_detail::table_for( backend, words_of( sim_width::w512 ) ).and2;
  }();
  kernel( dst, a, invert_a, b, invert_b, num_words );
}

// --- wide_simulator ----------------------------------------------------------

wide_simulator::wide_simulator( const reversible_circuit& circuit, sim_width width )
    : width_( width ), backend_( active_simd_backend( width ) ),
      in_lines_( input_lines_of( circuit ) ), out_lines_( output_lines_of( circuit ) )
{
  const auto W = words_of( width_ );
  targets_.reserve( circuit.num_gates() );
  control_offsets_.reserve( circuit.num_gates() + 1u );
  // Exact sizes: on large cascades a guessed reserve over-allocates by
  // megabytes, and verification runs on the pool's worker threads, whose
  // malloc arenas keep freed memory resident.
  std::size_t num_controls = 0;
  for ( const auto& g : circuit.gates() )
  {
    num_controls += g.controls.size();
  }
  control_lines_.reserve( num_controls );
  control_inverts_.reserve( num_controls );
  control_offsets_.push_back( 0u );
  for ( const auto& g : circuit.gates() )
  {
    targets_.push_back( g.target );
    for ( const auto& c : g.controls )
    {
      control_lines_.push_back( c.line );
      control_inverts_.push_back( c.positive ? 0u : ~std::uint64_t{ 0 } );
    }
    control_offsets_.push_back( static_cast<std::uint32_t>( control_lines_.size() ) );
  }
  // A sparse constant list instead of a full initial-state image: the
  // per-evaluate reset is then one write-only memset plus a handful of
  // constant-1 groups, instead of streaming a lines*W image through the
  // cache twice — on multi-thousand-line circuits the reset is a visible
  // share of a group pass.
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input && circuit.line( l ).constant_value )
    {
      one_lines_.push_back( l );
    }
  }
  state_.resize( std::size_t{ circuit.num_lines() } * W );
  outputs_.resize( std::size_t{ out_lines_.size() } * W );
}

const std::vector<std::uint64_t>&
wide_simulator::evaluate( const std::vector<std::uint64_t>& input_words )
{
  const auto W = words_of( width_ );
  if ( input_words.size() != in_lines_.size() * W )
  {
    throw std::invalid_argument( "wide_simulator::evaluate: input arity mismatch" );
  }
  std::memset( state_.data(), 0, state_.size() * sizeof( std::uint64_t ) );
  for ( const auto l : one_lines_ )
  {
    std::memset( state_.data() + std::size_t{ l } * W, 0xff, W * sizeof( std::uint64_t ) );
  }
  for ( std::size_t i = 0; i < in_lines_.size(); ++i )
  {
    std::memcpy( state_.data() + std::size_t{ in_lines_[i] } * W, input_words.data() + i * W,
                 W * sizeof( std::uint64_t ) );
  }
  const auto table = wide_detail::table_for( backend_, W );
  table.gate( targets_.data(), control_offsets_.data(), targets_.size(), control_lines_.data(),
              control_inverts_.data(), state_.data() );
  for ( std::size_t o = 0; o < out_lines_.size(); ++o )
  {
    std::memcpy( outputs_.data() + o * W, state_.data() + std::size_t{ out_lines_[o] } * W,
                 W * sizeof( std::uint64_t ) );
  }
  return outputs_;
}

// --- wide_aig_simulator ------------------------------------------------------

wide_aig_simulator::wide_aig_simulator( const aig_network& aig, sim_width width )
    : width_( width ), backend_( active_simd_backend( width ) ), num_pis_( aig.num_pis() )
{
  const auto W = words_of( width_ );
  const auto first_and = std::size_t{ num_pis_ } + 1u;
  fanin_nodes_.reserve( 2u * aig.num_ands() );
  fanin_inverts_.reserve( 2u * aig.num_ands() );
  for ( std::size_t n = first_and; n < aig.num_nodes(); ++n )
  {
    for ( const auto lit : { aig.fanin0( static_cast<std::uint32_t>( n ) ),
                             aig.fanin1( static_cast<std::uint32_t>( n ) ) } )
    {
      fanin_nodes_.push_back( lit_node( lit ) );
      fanin_inverts_.push_back( lit_complemented( lit ) ? ~std::uint64_t{ 0 } : 0u );
    }
  }
  po_nodes_.reserve( aig.num_pos() );
  po_inverts_.reserve( aig.num_pos() );
  for ( const auto lit : aig.pos() )
  {
    po_nodes_.push_back( lit_node( lit ) );
    po_inverts_.push_back( lit_complemented( lit ) ? ~std::uint64_t{ 0 } : 0u );
  }
  values_.assign( aig.num_nodes() * W, 0u );
  outputs_.resize( std::size_t{ aig.num_pos() } * W );
}

const std::vector<std::uint64_t>&
wide_aig_simulator::evaluate( const std::vector<std::uint64_t>& pi_words )
{
  const auto W = words_of( width_ );
  if ( pi_words.size() != std::size_t{ num_pis_ } * W )
  {
    throw std::invalid_argument( "wide_aig_simulator::evaluate: input arity mismatch" );
  }
  // Node 0 (constant false) stays zero from construction; PIs are nodes
  // 1..num_pis in input order.
  std::memcpy( values_.data() + W, pi_words.data(), pi_words.size() * sizeof( std::uint64_t ) );
  const auto first_and = std::size_t{ num_pis_ } + 1u;
  const auto num_ands = fanin_nodes_.size() / 2u;
  const auto table = wide_detail::table_for( backend_, W );
  table.aig( fanin_nodes_.data(), fanin_inverts_.data(), num_ands, first_and, values_.data() );
  for ( std::size_t o = 0; o < po_nodes_.size(); ++o )
  {
    for ( unsigned k = 0; k < W; ++k )
    {
      outputs_[o * W + k] = values_[std::size_t{ po_nodes_[o] } * W + k] ^ po_inverts_[o];
    }
  }
  return outputs_;
}

} // namespace qsyn
