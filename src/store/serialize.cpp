#include "serialize.hpp"

#include <bit>
#include <limits>

namespace qsyn::store
{

// --- primitives --------------------------------------------------------------

void byte_writer::f64( double v )
{
  u64( std::bit_cast<std::uint64_t>( v ) );
}

void byte_reader::need( std::size_t n ) const
{
  if ( size_ - pos_ < n )
  {
    throw deserialize_error( "truncated payload" );
  }
}

std::uint8_t byte_reader::u8()
{
  need( 1 );
  return data_[pos_++];
}

std::uint32_t byte_reader::u32()
{
  need( 4 );
  std::uint32_t v = 0;
  for ( int i = 0; i < 4; ++i )
  {
    v |= static_cast<std::uint32_t>( data_[pos_++] ) << ( 8 * i );
  }
  return v;
}

std::uint64_t byte_reader::u64()
{
  need( 8 );
  std::uint64_t v = 0;
  for ( int i = 0; i < 8; ++i )
  {
    v |= static_cast<std::uint64_t>( data_[pos_++] ) << ( 8 * i );
  }
  return v;
}

double byte_reader::f64()
{
  return std::bit_cast<double>( u64() );
}

std::string byte_reader::str()
{
  const auto len = u32();
  need( len );
  std::string s( reinterpret_cast<const char*>( data_ + pos_ ), len );
  pos_ += len;
  return s;
}

void byte_reader::expect_end() const
{
  if ( pos_ != size_ )
  {
    throw deserialize_error( "trailing bytes after payload" );
  }
}

// --- AIG ---------------------------------------------------------------------

void write_aig( byte_writer& w, const aig_network& aig )
{
  w.u32( aig.num_pis() );
  w.u32( static_cast<std::uint32_t>( aig.num_nodes() ) );
  for ( std::uint32_t n = aig.num_pis() + 1u;
        n < static_cast<std::uint32_t>( aig.num_nodes() ); ++n )
  {
    w.u32( aig.fanin0( n ) );
    w.u32( aig.fanin1( n ) );
  }
  w.u32( aig.num_pos() );
  for ( const auto po : aig.pos() )
  {
    w.u32( po );
  }
}

aig_network read_aig( byte_reader& r )
{
  const auto num_pis = r.u32();
  const auto num_nodes = r.u32();
  if ( num_nodes < 1u + num_pis || num_nodes > ( 1u << 30 ) )
  {
    throw deserialize_error( "aig: impossible node count" );
  }
  aig_network aig( num_pis );
  for ( std::uint32_t n = num_pis + 1u; n < num_nodes; ++n )
  {
    const auto f0 = r.u32();
    const auto f1 = r.u32();
    if ( lit_node( f0 ) >= n || lit_node( f1 ) >= n )
    {
      throw deserialize_error( "aig: fanin references a future node" );
    }
    aig.append_raw_and( f0, f1 );
  }
  const auto num_pos = r.u32();
  if ( num_pos > ( 1u << 24 ) )
  {
    throw deserialize_error( "aig: impossible output count" );
  }
  for ( std::uint32_t i = 0; i < num_pos; ++i )
  {
    const auto po = r.u32();
    if ( lit_node( po ) >= num_nodes )
    {
      throw deserialize_error( "aig: output references a missing node" );
    }
    aig.add_po( po );
  }
  return aig;
}

// --- ESOP --------------------------------------------------------------------

void write_esop( byte_writer& w, const esop& expression )
{
  w.u32( expression.num_inputs );
  w.u32( expression.num_outputs );
  w.u32( static_cast<std::uint32_t>( expression.terms.size() ) );
  for ( const auto& term : expression.terms )
  {
    w.u64( term.product.mask );
    w.u64( term.product.polarity );
    w.u64( term.output_mask );
  }
}

esop read_esop( byte_reader& r )
{
  esop expression;
  expression.num_inputs = r.u32();
  expression.num_outputs = r.u32();
  if ( expression.num_inputs > 64u || expression.num_outputs > 64u )
  {
    throw deserialize_error( "esop: more than 64 inputs/outputs" );
  }
  const auto num_terms = r.u32();
  if ( num_terms > ( 1u << 28 ) )
  {
    throw deserialize_error( "esop: impossible term count" );
  }
  expression.terms.reserve( num_terms );
  const auto var_mask = expression.num_inputs == 64u
                            ? ~std::uint64_t{ 0 }
                            : ( ( std::uint64_t{ 1 } << expression.num_inputs ) - 1u );
  const auto out_mask = expression.num_outputs == 64u
                            ? ~std::uint64_t{ 0 }
                            : ( ( std::uint64_t{ 1 } << expression.num_outputs ) - 1u );
  for ( std::uint32_t i = 0; i < num_terms; ++i )
  {
    esop_term term;
    term.product.mask = r.u64();
    term.product.polarity = r.u64();
    term.output_mask = r.u64();
    if ( ( term.product.mask & ~var_mask ) != 0u ||
         ( term.product.polarity & ~term.product.mask ) != 0u ||
         ( term.output_mask & ~out_mask ) != 0u )
    {
      throw deserialize_error( "esop: term bits outside the declared variable range" );
    }
    expression.terms.push_back( term );
  }
  return expression;
}

// --- XMG ---------------------------------------------------------------------

void write_xmg( byte_writer& w, const xmg_network& graph )
{
  w.u32( graph.num_pis() );
  w.u32( static_cast<std::uint32_t>( graph.num_nodes() ) );
  for ( std::uint32_t n = graph.num_pis() + 1u;
        n < static_cast<std::uint32_t>( graph.num_nodes() ); ++n )
  {
    w.u8( graph.is_maj( n ) ? 0u : 1u );
    const auto& fanin = graph.fanins( n );
    w.u32( fanin[0] );
    w.u32( fanin[1] );
    w.u32( fanin[2] );
  }
  w.u32( graph.num_pos() );
  for ( const auto po : graph.pos() )
  {
    w.u32( po );
  }
}

xmg_network read_xmg( byte_reader& r )
{
  const auto num_pis = r.u32();
  const auto num_nodes = r.u32();
  if ( num_nodes < 1u + num_pis || num_nodes > ( 1u << 30 ) )
  {
    throw deserialize_error( "xmg: impossible node count" );
  }
  xmg_network graph( num_pis );
  for ( std::uint32_t n = num_pis + 1u; n < num_nodes; ++n )
  {
    const auto kind_tag = r.u8();
    if ( kind_tag > 1u )
    {
      throw deserialize_error( "xmg: unknown node kind" );
    }
    const std::array<xmg_lit, 3> fanin = { r.u32(), r.u32(), r.u32() };
    for ( const auto f : fanin )
    {
      if ( ( f >> 1 ) >= n )
      {
        throw deserialize_error( "xmg: fanin references a future node" );
      }
    }
    graph.append_raw_node( kind_tag == 0u ? xmg_network::node_kind::maj
                                          : xmg_network::node_kind::xor2,
                           fanin );
  }
  const auto num_pos = r.u32();
  if ( num_pos > ( 1u << 24 ) )
  {
    throw deserialize_error( "xmg: impossible output count" );
  }
  for ( std::uint32_t i = 0; i < num_pos; ++i )
  {
    const auto po = r.u32();
    if ( ( po >> 1 ) >= num_nodes )
    {
      throw deserialize_error( "xmg: output references a missing node" );
    }
    graph.add_po( po );
  }
  return graph;
}

// --- reversible circuit ------------------------------------------------------

void write_circuit( byte_writer& w, const reversible_circuit& circuit )
{
  w.u32( circuit.num_lines() );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& info = circuit.line( l );
    w.str( info.name );
    std::uint8_t flags = 0;
    flags |= info.is_primary_input ? 1u : 0u;
    flags |= info.is_constant_input ? 2u : 0u;
    flags |= info.constant_value ? 4u : 0u;
    flags |= info.is_garbage ? 8u : 0u;
    w.u8( flags );
    w.u32( static_cast<std::uint32_t>( info.output_index ) );
  }
  w.u32( static_cast<std::uint32_t>( circuit.num_gates() ) );
  for ( const auto& gate : circuit.gates() )
  {
    w.u32( gate.target );
    w.u32( static_cast<std::uint32_t>( gate.controls.size() ) );
    for ( const auto& c : gate.controls )
    {
      w.u32( c.line );
      w.u8( c.positive ? 1u : 0u );
    }
  }
}

reversible_circuit read_circuit( byte_reader& r )
{
  const auto num_lines = r.u32();
  if ( num_lines > ( 1u << 20 ) )
  {
    throw deserialize_error( "circuit: impossible line count" );
  }
  reversible_circuit circuit( num_lines );
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    auto& info = circuit.line( l );
    info.name = r.str();
    const auto flags = r.u8();
    info.is_primary_input = ( flags & 1u ) != 0u;
    info.is_constant_input = ( flags & 2u ) != 0u;
    info.constant_value = ( flags & 4u ) != 0u;
    info.is_garbage = ( flags & 8u ) != 0u;
    info.output_index = static_cast<int>( r.u32() );
    if ( info.output_index < -1 )
    {
      throw deserialize_error( "circuit: invalid output index" );
    }
  }
  const auto num_gates = r.u32();
  if ( num_gates > ( 1u << 28 ) )
  {
    throw deserialize_error( "circuit: impossible gate count" );
  }
  for ( std::uint32_t g = 0; g < num_gates; ++g )
  {
    toffoli_gate gate;
    gate.target = r.u32();
    if ( gate.target >= num_lines )
    {
      throw deserialize_error( "circuit: gate target outside the line range" );
    }
    const auto num_controls = r.u32();
    if ( num_controls > num_lines )
    {
      throw deserialize_error( "circuit: more controls than lines" );
    }
    for ( std::uint32_t c = 0; c < num_controls; ++c )
    {
      control ctrl;
      ctrl.line = r.u32();
      ctrl.positive = r.u8() != 0u;
      if ( ctrl.line >= num_lines )
      {
        throw deserialize_error( "circuit: control outside the line range" );
      }
      gate.controls.push_back( ctrl );
    }
    circuit.add_gate( std::move( gate ) );
  }
  return circuit;
}

// --- one-shot wrappers -------------------------------------------------------

namespace
{

template<typename WriteFn>
std::vector<std::uint8_t> serialize_with( WriteFn&& write )
{
  byte_writer w;
  write( w );
  return w.take();
}

template<typename ReadFn>
auto deserialize_with( const std::vector<std::uint8_t>& bytes, ReadFn&& read )
{
  byte_reader r( bytes );
  auto value = read( r );
  r.expect_end();
  return value;
}

} // namespace

std::vector<std::uint8_t> serialize_aig( const aig_network& aig )
{
  return serialize_with( [&]( byte_writer& w ) { write_aig( w, aig ); } );
}

aig_network deserialize_aig( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_aig( r ); } );
}

std::vector<std::uint8_t> serialize_esop( const esop& expression )
{
  return serialize_with( [&]( byte_writer& w ) { write_esop( w, expression ); } );
}

esop deserialize_esop( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_esop( r ); } );
}

std::vector<std::uint8_t> serialize_xmg( const xmg_network& graph )
{
  return serialize_with( [&]( byte_writer& w ) { write_xmg( w, graph ); } );
}

xmg_network deserialize_xmg( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_xmg( r ); } );
}

std::vector<std::uint8_t> serialize_circuit( const reversible_circuit& circuit )
{
  return serialize_with( [&]( byte_writer& w ) { write_circuit( w, circuit ); } );
}

reversible_circuit deserialize_circuit( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_circuit( r ); } );
}

} // namespace qsyn::store
