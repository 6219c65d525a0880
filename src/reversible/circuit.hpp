/// \file circuit.hpp
/// \brief Reversible circuits over the mixed-polarity multiple-controlled
/// Toffoli gate library (paper Sec. II-C).
///
/// A circuit is a cascade of Toffoli gates over `num_lines()` lines.  Each
/// gate has a set of positive/negative controls and one target; the target
/// is inverted iff every positive control reads 1 and every negative
/// control reads 0.  NOT and CNOT are the 0- and 1-control special cases.
///
/// Lines carry metadata (primary input / constant ancilla / which output a
/// line holds / garbage) so that flows can report qubit counts and verify
/// semantics against the original irreversible specification.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace qsyn
{

/// A control connection of a Toffoli gate.
struct control
{
  std::uint32_t line;
  bool positive; ///< false = negative control (fires on 0)

  bool operator==( const control& other ) const
  {
    return line == other.line && positive == other.positive;
  }
};

/// The controls of one gate.  Up to `inline_capacity` controls live inside
/// the gate, so NOT, CNOT and Toffoli gates (most gates of every flow's
/// circuits) need no allocation; longer lists go to the heap.  The heap
/// buffer's address and capacity are kept in the bytes of the inline
/// controls, so the list needs only 4-byte alignment and a whole gate
/// (list + target) is 24 bytes.
class control_list
{
public:
  static constexpr std::uint32_t inline_capacity = 2u;

  control_list() noexcept {}
  control_list( std::initializer_list<control> controls );
  control_list( const control_list& other );
  control_list( control_list&& other ) noexcept;
  control_list& operator=( const control_list& other );
  control_list& operator=( control_list&& other ) noexcept;
  ~control_list() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0u; }
  control* data() { return on_heap() ? heap().data : inline_; }
  const control* data() const { return on_heap() ? heap().data : inline_; }
  control* begin() { return data(); }
  control* end() { return data() + size_; }
  const control* begin() const { return data(); }
  const control* end() const { return data() + size_; }
  control& operator[]( std::size_t i ) { return data()[i]; }
  const control& operator[]( std::size_t i ) const { return data()[i]; }

  void push_back( const control& c );
  /// Removes [first, last); returns the position after the removed range
  /// (in the new storage if the list moved back inline).
  control* erase( control* first, control* last );
  void clear() { release(); }

  bool operator==( const control_list& other ) const
  {
    return size_ == other.size_ && std::equal( begin(), end(), other.begin() );
  }

private:
  struct heap_buffer
  {
    control* data;
    std::uint32_t capacity;
  };
  static_assert( sizeof( heap_buffer ) <= inline_capacity * sizeof( control ) );

  /// Heap storage is used exactly when more than `inline_capacity`
  /// controls are held.
  bool on_heap() const { return size_ > inline_capacity; }
  heap_buffer heap() const
  {
    heap_buffer h;
    std::memcpy( &h, inline_, sizeof h );
    return h;
  }
  void set_heap( const heap_buffer& h ) { std::memcpy( inline_, &h, sizeof h ); }
  void release();

  control inline_[inline_capacity];
  std::uint32_t size_ = 0u;
};

/// One mixed-polarity multiple-controlled Toffoli gate.
struct toffoli_gate
{
  control_list controls;
  std::uint32_t target = 0;

  unsigned num_controls() const { return static_cast<unsigned>( controls.size() ); }
};

/// Role of a circuit line at the circuit boundary.
struct line_info
{
  std::string name;

  /// Input side.
  bool is_primary_input = false;   ///< carries an input variable
  bool is_constant_input = false;  ///< ancilla with a fixed initial value
  bool constant_value = false;

  /// Output side.
  int output_index = -1;           ///< >= 0: holds primary output #output_index
  bool is_garbage = true;          ///< discarded at the end
};

/// A reversible (Toffoli) circuit.
class reversible_circuit
{
public:
  reversible_circuit() = default;
  explicit reversible_circuit( unsigned num_lines );

  unsigned num_lines() const { return static_cast<unsigned>( lines_.size() ); }
  std::size_t num_gates() const { return gates_.size(); }
  const std::vector<toffoli_gate>& gates() const { return gates_; }
  std::vector<toffoli_gate>& gates() { return gates_; }

  line_info& line( unsigned index ) { return lines_.at( index ); }
  const line_info& line( unsigned index ) const { return lines_.at( index ); }

  /// Appends a fresh line; returns its index.
  unsigned add_line( const line_info& info = {} );

  /// --- gate constructors ---------------------------------------------------

  void add_gate( toffoli_gate gate );
  /// NOT gate.
  void add_not( std::uint32_t target );
  /// CNOT with a positive control.
  void add_cnot( std::uint32_t ctrl, std::uint32_t target );
  /// Toffoli with two positive controls.
  void add_toffoli( std::uint32_t c0, std::uint32_t c1, std::uint32_t target );
  /// General gate from (line, polarity) pairs.
  void add_mct( control_list controls, std::uint32_t target );
  /// SWAP via three CNOTs.
  void add_swap( std::uint32_t a, std::uint32_t b );
  /// Fredkin (controlled swap) via CNOT + Toffoli + CNOT.
  void add_fredkin( std::uint32_t ctrl, std::uint32_t a, std::uint32_t b );

  /// Appends all gates of `other` (same line count).
  void append( const reversible_circuit& other );
  /// Appends the gates of `other` in reverse order (uncompute; Toffoli
  /// gates are self-inverse).
  void append_reversed( const reversible_circuit& other );
  /// Appends gates [begin, end) of this circuit reversed (in-place
  /// Bennett-style uncompute of a recorded window).
  void append_reversed_window( std::size_t begin, std::size_t end );

  /// --- semantics -------------------------------------------------------------

  /// Applies the circuit to a state vector of line values (in place).
  void apply( std::vector<bool>& state ) const;

  /// Simulates one input assignment; returns the final line values.
  std::vector<bool> simulate( const std::vector<bool>& inputs ) const;

  /// Full permutation over 2^num_lines() (num_lines() <= 24).
  std::vector<std::uint64_t> permutation() const;

  /// --- reporting ---------------------------------------------------------------

  /// Number of gates with >= 2 controls (classic "Toffoli count").
  std::size_t num_toffoli_gates() const;

  /// Human-readable gate list (debugging, small circuits).
  std::string to_string() const;

private:
  std::vector<line_info> lines_;
  std::vector<toffoli_gate> gates_;
};

} // namespace qsyn
