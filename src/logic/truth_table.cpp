#include "truth_table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qsyn
{

tt_blocks::tt_blocks( std::size_t size ) : size_( size )
{
  if ( on_heap() )
  {
    heap_ = new std::uint64_t[size]();
  }
  else
  {
    std::fill_n( inline_, inline_blocks, std::uint64_t{ 0 } );
  }
}

tt_blocks::tt_blocks( const tt_blocks& other ) : size_( other.size_ )
{
  if ( on_heap() )
  {
    heap_ = new std::uint64_t[size_];
  }
  std::copy( other.begin(), other.end(), data() );
}

tt_blocks::tt_blocks( tt_blocks&& other ) noexcept
{
  *this = std::move( other );
}

tt_blocks& tt_blocks::operator=( const tt_blocks& other )
{
  if ( this != &other )
  {
    tt_blocks copy( other );
    *this = std::move( copy );
  }
  return *this;
}

tt_blocks& tt_blocks::operator=( tt_blocks&& other ) noexcept
{
  if ( this != &other )
  {
    release();
    if ( other.on_heap() )
    {
      heap_ = other.heap_;
    }
    else
    {
      std::copy_n( other.inline_, other.size_, inline_ );
    }
    size_ = other.size_;
    other.size_ = 0u;
  }
  return *this;
}

void tt_blocks::release()
{
  if ( on_heap() )
  {
    delete[] heap_;
  }
  size_ = 0u;
}

void tt_blocks::resize( std::size_t size )
{
  if ( size <= inline_blocks )
  {
    std::uint64_t kept[inline_blocks] = {};
    std::copy_n( data(), std::min( size_, size ), kept );
    release();
    std::copy_n( kept, inline_blocks, inline_ );
  }
  else
  {
    auto* grown = new std::uint64_t[size]();
    std::copy_n( data(), std::min( size_, size ), grown );
    release();
    heap_ = grown;
  }
  size_ = size;
}

truth_table::truth_table( unsigned num_vars )
    : num_vars_( num_vars ), blocks_( num_blocks_for( num_vars ) )
{
}

bool truth_table::get_bit( std::uint64_t index ) const
{
  assert( index < num_bits() );
  return ( blocks_[index >> 6] >> ( index & 63u ) ) & 1u;
}

void truth_table::set_bit( std::uint64_t index, bool value )
{
  assert( index < num_bits() );
  if ( value )
  {
    blocks_[index >> 6] |= std::uint64_t{ 1 } << ( index & 63u );
  }
  else
  {
    blocks_[index >> 6] &= ~( std::uint64_t{ 1 } << ( index & 63u ) );
  }
}

std::uint64_t truth_table::count_ones() const
{
  std::uint64_t count = 0;
  for ( auto b : blocks_ )
  {
    count += static_cast<std::uint64_t>( popcount64( b ) );
  }
  return count;
}

bool truth_table::is_const0() const
{
  for ( auto b : blocks_ )
  {
    if ( b != 0u )
    {
      return false;
    }
  }
  return true;
}

bool truth_table::is_const1() const
{
  const auto mask = block_mask( num_vars_ );
  if ( blocks_.size() == 1u )
  {
    return blocks_[0] == mask;
  }
  for ( auto b : blocks_ )
  {
    if ( b != ~std::uint64_t{ 0 } )
    {
      return false;
    }
  }
  return true;
}

truth_table truth_table::projection( unsigned num_vars, unsigned var )
{
  assert( var < num_vars );
  truth_table tt( num_vars );
  if ( var < 6u )
  {
    const auto pattern = projections[var];
    for ( auto& b : tt.blocks_ )
    {
      b = pattern;
    }
  }
  else
  {
    // Variable var toggles every 2^(var-6) blocks.
    const std::size_t period = std::size_t{ 1 } << ( var - 6u );
    for ( std::size_t i = 0; i < tt.blocks_.size(); ++i )
    {
      tt.blocks_[i] = ( ( i / period ) & 1u ) ? ~std::uint64_t{ 0 } : 0u;
    }
  }
  tt.mask_off_unused();
  return tt;
}

truth_table truth_table::constant( unsigned num_vars, bool value )
{
  truth_table tt( num_vars );
  if ( value )
  {
    for ( auto& b : tt.blocks_ )
    {
      b = ~std::uint64_t{ 0 };
    }
    tt.mask_off_unused();
  }
  return tt;
}

truth_table truth_table::from_binary_string( const std::string& s )
{
  if ( s.empty() || !is_power_of_two( s.size() ) )
  {
    throw std::invalid_argument( "truth_table::from_binary_string: length must be a power of two" );
  }
  const unsigned num_vars = ceil_log2( s.size() );
  truth_table tt( num_vars );
  // Assemble whole 64-bit blocks instead of issuing one set_bit per
  // character; bit i of the table is s[size - 1 - i].
  for ( std::size_t blk = 0; blk < tt.blocks_.size(); ++blk )
  {
    const std::size_t base = blk << 6;
    const std::size_t count = std::min<std::size_t>( 64u, s.size() - base );
    std::uint64_t word = 0;
    for ( std::size_t o = 0; o < count; ++o )
    {
      const char c = s[s.size() - 1u - ( base + o )];
      if ( c == '1' )
      {
        word |= std::uint64_t{ 1 } << o;
      }
      else if ( c != '0' )
      {
        throw std::invalid_argument( "truth_table::from_binary_string: invalid character" );
      }
    }
    tt.blocks_[blk] = word;
  }
  return tt;
}

truth_table truth_table::operator~() const
{
  truth_table result( num_vars_ );
  for ( std::size_t i = 0; i < blocks_.size(); ++i )
  {
    result.blocks_[i] = ~blocks_[i];
  }
  result.mask_off_unused();
  return result;
}

truth_table truth_table::operator&( const truth_table& other ) const
{
  truth_table result = *this;
  result &= other;
  return result;
}

truth_table truth_table::operator|( const truth_table& other ) const
{
  truth_table result = *this;
  result |= other;
  return result;
}

truth_table truth_table::operator^( const truth_table& other ) const
{
  truth_table result = *this;
  result ^= other;
  return result;
}

bool truth_table::operator==( const truth_table& other ) const
{
  return num_vars_ == other.num_vars_ && blocks_ == other.blocks_;
}

truth_table& truth_table::operator&=( const truth_table& other )
{
  assert( num_vars_ == other.num_vars_ );
  for ( std::size_t i = 0; i < blocks_.size(); ++i )
  {
    blocks_[i] &= other.blocks_[i];
  }
  return *this;
}

truth_table& truth_table::operator|=( const truth_table& other )
{
  assert( num_vars_ == other.num_vars_ );
  for ( std::size_t i = 0; i < blocks_.size(); ++i )
  {
    blocks_[i] |= other.blocks_[i];
  }
  return *this;
}

truth_table& truth_table::operator^=( const truth_table& other )
{
  assert( num_vars_ == other.num_vars_ );
  for ( std::size_t i = 0; i < blocks_.size(); ++i )
  {
    blocks_[i] ^= other.blocks_[i];
  }
  return *this;
}

truth_table truth_table::cofactor( unsigned var, bool polarity ) const
{
  assert( var < num_vars_ );
  truth_table result( num_vars_ );
  if ( var < 6u )
  {
    const auto proj = projections[var];
    const auto keep = polarity ? proj : ~proj;
    const unsigned shift = 1u << var;
    for ( std::size_t i = 0; i < blocks_.size(); ++i )
    {
      const auto selected = blocks_[i] & keep;
      result.blocks_[i] = polarity ? ( selected | ( selected >> shift ) )
                                   : ( selected | ( selected << shift ) );
    }
  }
  else
  {
    const std::size_t period = std::size_t{ 1 } << ( var - 6u );
    for ( std::size_t i = 0; i < blocks_.size(); ++i )
    {
      const bool upper = ( i / period ) & 1u;
      const std::size_t partner = upper ? i - period : i + period;
      result.blocks_[i] = ( upper == polarity ) ? blocks_[i] : blocks_[partner];
    }
  }
  result.mask_off_unused();
  return result;
}

bool truth_table::depends_on( unsigned var ) const
{
  assert( var < num_vars_ );
  if ( var < 6u )
  {
    // Compare the var=1 half of each block against the var=0 half in place:
    // bit p (with index-bit var clear) differs from bit p + 2^var iff
    // (b ^ (b >> 2^var)) is set at p.
    const unsigned shift = 1u << var;
    const auto low_half = ~projections[var];
    for ( const auto b : blocks_ )
    {
      if ( ( ( b ^ ( b >> shift ) ) & low_half ) != 0u )
      {
        return true;
      }
    }
    return false;
  }
  // Variable lives across blocks: compare block i against block i + period
  // for every i whose period-bit is clear.
  const std::size_t period = std::size_t{ 1 } << ( var - 6u );
  for ( std::size_t base = 0; base < blocks_.size(); base += 2u * period )
  {
    for ( std::size_t k = 0; k < period; ++k )
    {
      if ( blocks_[base + k] != blocks_[base + period + k] )
      {
        return true;
      }
    }
  }
  return false;
}

std::vector<unsigned> truth_table::support() const
{
  // Single sweep over the blocks accumulating a support bit-mask: the six
  // word-level variables are tested with shifted self-comparisons, the
  // block-level variables by comparing partner blocks.
  std::uint64_t found = 0;
  const unsigned word_vars = std::min( num_vars_, 6u );
  const std::uint64_t word_done = ( std::uint64_t{ 1 } << word_vars ) - 1u;
  const std::uint64_t all_done =
      num_vars_ >= 64u ? ~std::uint64_t{ 0 } : ( std::uint64_t{ 1 } << num_vars_ ) - 1u;
  for ( std::size_t i = 0; i < blocks_.size() && found != all_done; ++i )
  {
    const auto b = blocks_[i];
    if ( ( found & word_done ) != word_done )
    {
      for ( unsigned v = 0; v < word_vars; ++v )
      {
        if ( !( ( found >> v ) & 1u ) &&
             ( ( b ^ ( b >> ( 1u << v ) ) ) & ~projections[v] ) != 0u )
        {
          found |= std::uint64_t{ 1 } << v;
        }
      }
    }
    for ( unsigned v = 6u; v < num_vars_; ++v )
    {
      const std::size_t period = std::size_t{ 1 } << ( v - 6u );
      if ( !( ( found >> v ) & 1u ) && !( i & period ) && b != blocks_[i + period] )
      {
        found |= std::uint64_t{ 1 } << v;
      }
    }
  }
  std::vector<unsigned> vars;
  vars.reserve( static_cast<std::size_t>( popcount64( found ) ) );
  for ( auto w = found; w != 0u; w &= w - 1u )
  {
    vars.push_back( static_cast<unsigned>( lsb_index( w ) ) );
  }
  return vars;
}

namespace
{

/// Packs the bits of `b` whose position has index-bit `var` clear into the
/// low half of the word (log-step fold; the kept positions form the regular
/// pattern ~projections[var]).
std::uint64_t compress_remove_bit( std::uint64_t b, unsigned var )
{
  auto x = b & ~projections[var];
  for ( unsigned s = var; s < 5u; ++s )
  {
    x = ( x | ( x >> ( 1u << s ) ) ) & ~projections[s + 1u];
  }
  return x;
}

/// Removes variable `var` from a table of `num_vars` variables stored in
/// `blocks` by keeping the var=0 half (only valid when the function does not
/// depend on `var`).  Operates with whole-block moves / word-level folds.
void remove_var_from_blocks( tt_blocks& blocks, unsigned num_vars, unsigned var )
{
  if ( var >= 6u )
  {
    // Gather the blocks whose period-bit is clear, preserving order.
    const std::size_t period = std::size_t{ 1 } << ( var - 6u );
    std::size_t out = 0;
    for ( std::size_t base = 0; base < blocks.size(); base += 2u * period )
    {
      for ( std::size_t k = 0; k < period; ++k, ++out )
      {
        blocks[out] = blocks[base + k];
      }
    }
  }
  else if ( num_vars > 6u )
  {
    // Each block compresses to 32 valid bits; splice block pairs.
    for ( std::size_t i = 0; i < blocks.size(); i += 2u )
    {
      blocks[i >> 1] = compress_remove_bit( blocks[i], var ) |
                       ( compress_remove_bit( blocks[i + 1u], var ) << 32 );
    }
  }
  else
  {
    blocks[0] = compress_remove_bit( blocks[0], var );
  }
  blocks.resize( num_blocks_for( num_vars - 1u ) );
}

} // namespace

truth_table truth_table::shrink_to_support( std::vector<unsigned>* var_map ) const
{
  const auto vars = support();
  if ( var_map )
  {
    *var_map = vars;
  }
  if ( vars.size() == num_vars_ )
  {
    return *this;
  }
  // Drop the non-support variables from highest to lowest so the indices of
  // the remaining variables stay valid during the removal.
  truth_table result = *this;
  std::uint64_t keep = 0;
  for ( const auto v : vars )
  {
    keep |= std::uint64_t{ 1 } << v;
  }
  for ( unsigned v = num_vars_; v-- > 0u; )
  {
    if ( !( ( keep >> v ) & 1u ) )
    {
      remove_var_from_blocks( result.blocks_, result.num_vars_, v );
      --result.num_vars_;
    }
  }
  result.mask_off_unused();
  return result;
}

std::string truth_table::to_hex() const
{
  static const char* digits = "0123456789abcdef";
  const std::size_t num_digits =
      num_vars_ <= 2u ? 1u : ( std::size_t{ 1 } << ( num_vars_ - 2u ) );
  std::string s( num_digits, '0' );
  for ( std::size_t d = 0; d < num_digits; ++d )
  {
    const auto nibble = ( blocks_[d >> 4] >> ( ( d & 15u ) * 4u ) ) & 0xfu;
    s[num_digits - 1u - d] = digits[nibble];
  }
  return s;
}

std::string truth_table::to_binary() const
{
  std::string s( num_bits(), '0' );
  for ( std::uint64_t i = 0; i < num_bits(); ++i )
  {
    if ( get_bit( i ) )
    {
      s[num_bits() - 1u - i] = '1';
    }
  }
  return s;
}

std::size_t truth_table::hash() const
{
  std::size_t seed = num_vars_;
  for ( auto b : blocks_ )
  {
    seed = hash_combine( seed, static_cast<std::size_t>( b ) );
  }
  return seed;
}

void truth_table::mask_off_unused()
{
  if ( num_vars_ < 6u )
  {
    blocks_[0] &= block_mask( num_vars_ );
  }
}

} // namespace qsyn
