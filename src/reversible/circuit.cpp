#include "circuit.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace qsyn
{

static_assert( sizeof( toffoli_gate ) == 24u, "a gate is its control list plus the target" );

control_list::control_list( std::initializer_list<control> controls )
{
  for ( const auto& c : controls )
  {
    push_back( c );
  }
}

control_list::control_list( const control_list& other ) : size_( other.size_ )
{
  if ( on_heap() )
  {
    set_heap( { new control[size_], size_ } );
  }
  std::copy( other.begin(), other.end(), data() );
}

control_list::control_list( control_list&& other ) noexcept
{
  // The raw bytes carry either the inline controls or the heap buffer.
  std::memcpy( inline_, other.inline_, sizeof inline_ );
  size_ = other.size_;
  other.size_ = 0u;
}

control_list& control_list::operator=( const control_list& other )
{
  if ( this != &other )
  {
    control_list copy( other );
    *this = std::move( copy );
  }
  return *this;
}

control_list& control_list::operator=( control_list&& other ) noexcept
{
  if ( this != &other )
  {
    release();
    std::memcpy( inline_, other.inline_, sizeof inline_ );
    size_ = other.size_;
    other.size_ = 0u;
  }
  return *this;
}

void control_list::release()
{
  if ( on_heap() )
  {
    delete[] heap().data;
  }
  size_ = 0u;
}

void control_list::push_back( const control& c )
{
  const auto value = c; // `c` may live in the buffer a regrowth frees
  if ( size_ < inline_capacity )
  {
    inline_[size_++] = value;
    return;
  }
  const auto old = data();
  const auto capacity = on_heap() ? heap().capacity : inline_capacity;
  if ( size_ == capacity )
  {
    auto* grown = new control[2u * capacity];
    std::copy( old, old + size_, grown );
    if ( on_heap() )
    {
      delete[] old;
    }
    set_heap( { grown, 2u * capacity } );
  }
  heap().data[size_++] = value;
}

control* control_list::erase( control* first, control* last )
{
  const auto index = first - begin();
  const auto new_size = static_cast<std::uint32_t>( std::move( last, end(), first ) - begin() );
  if ( on_heap() && new_size <= inline_capacity )
  {
    const auto h = heap();
    std::copy( h.data, h.data + new_size, inline_ );
    delete[] h.data;
  }
  size_ = new_size;
  return begin() + index;
}

reversible_circuit::reversible_circuit( unsigned num_lines ) : lines_( num_lines ) {}

unsigned reversible_circuit::add_line( const line_info& info )
{
  lines_.push_back( info );
  return static_cast<unsigned>( lines_.size() - 1u );
}

void reversible_circuit::add_gate( toffoli_gate gate )
{
  assert( gate.target < num_lines() );
#ifndef NDEBUG
  for ( const auto& c : gate.controls )
  {
    assert( c.line < num_lines() );
    assert( c.line != gate.target );
  }
#endif
  gates_.push_back( std::move( gate ) );
}

void reversible_circuit::add_not( std::uint32_t target )
{
  add_gate( { {}, target } );
}

void reversible_circuit::add_cnot( std::uint32_t ctrl, std::uint32_t target )
{
  add_gate( { { { ctrl, true } }, target } );
}

void reversible_circuit::add_toffoli( std::uint32_t c0, std::uint32_t c1, std::uint32_t target )
{
  add_gate( { { { c0, true }, { c1, true } }, target } );
}

void reversible_circuit::add_mct( control_list controls, std::uint32_t target )
{
  add_gate( { std::move( controls ), target } );
}

void reversible_circuit::add_swap( std::uint32_t a, std::uint32_t b )
{
  add_cnot( a, b );
  add_cnot( b, a );
  add_cnot( a, b );
}

void reversible_circuit::add_fredkin( std::uint32_t ctrl, std::uint32_t a, std::uint32_t b )
{
  add_cnot( b, a );
  add_toffoli( ctrl, a, b );
  add_cnot( b, a );
}

void reversible_circuit::append( const reversible_circuit& other )
{
  assert( other.num_lines() <= num_lines() );
  for ( const auto& g : other.gates_ )
  {
    add_gate( g );
  }
}

void reversible_circuit::append_reversed( const reversible_circuit& other )
{
  assert( other.num_lines() <= num_lines() );
  for ( auto it = other.gates_.rbegin(); it != other.gates_.rend(); ++it )
  {
    add_gate( *it );
  }
}

void reversible_circuit::append_reversed_window( std::size_t begin, std::size_t end )
{
  assert( begin <= end && end <= gates_.size() );
  for ( std::size_t i = end; i > begin; --i )
  {
    gates_.push_back( gates_[i - 1u] );
  }
}

void reversible_circuit::apply( std::vector<bool>& state ) const
{
  assert( state.size() == num_lines() );
  for ( const auto& g : gates_ )
  {
    bool fire = true;
    for ( const auto& c : g.controls )
    {
      if ( state[c.line] != c.positive )
      {
        fire = false;
        break;
      }
    }
    if ( fire )
    {
      state[g.target] = !state[g.target];
    }
  }
}

std::vector<bool> reversible_circuit::simulate( const std::vector<bool>& inputs ) const
{
  auto state = inputs;
  apply( state );
  return state;
}

std::vector<std::uint64_t> reversible_circuit::permutation() const
{
  if ( num_lines() > 24u )
  {
    throw std::invalid_argument( "reversible_circuit::permutation: too many lines" );
  }
  const std::uint64_t size = std::uint64_t{ 1 } << num_lines();
  std::vector<std::uint64_t> perm( size );
  for ( std::uint64_t i = 0; i < size; ++i )
  {
    perm[i] = i;
  }
  for ( const auto& g : gates_ )
  {
    std::uint64_t control_mask = 0;
    std::uint64_t control_value = 0;
    for ( const auto& c : g.controls )
    {
      control_mask |= std::uint64_t{ 1 } << c.line;
      if ( c.positive )
      {
        control_value |= std::uint64_t{ 1 } << c.line;
      }
    }
    const auto target_bit = std::uint64_t{ 1 } << g.target;
    for ( std::uint64_t i = 0; i < size; ++i )
    {
      if ( ( perm[i] & control_mask ) == control_value )
      {
        perm[i] ^= target_bit;
      }
    }
  }
  return perm;
}

std::size_t reversible_circuit::num_toffoli_gates() const
{
  return static_cast<std::size_t>(
      std::count_if( gates_.begin(), gates_.end(),
                     []( const toffoli_gate& g ) { return g.controls.size() >= 2u; } ) );
}

std::string reversible_circuit::to_string() const
{
  std::ostringstream os;
  os << "circuit(" << num_lines() << " lines, " << num_gates() << " gates)\n";
  for ( const auto& g : gates_ )
  {
    os << "  t(";
    for ( std::size_t i = 0; i < g.controls.size(); ++i )
    {
      if ( i > 0 )
      {
        os << ", ";
      }
      os << ( g.controls[i].positive ? "" : "!" ) << g.controls[i].line;
    }
    os << ") -> " << g.target << "\n";
  }
  return os.str();
}

} // namespace qsyn
