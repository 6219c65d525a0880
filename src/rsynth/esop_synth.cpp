#include "esop_synth.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "../common/bits.hpp"

namespace qsyn
{

namespace
{

/// A term during synthesis: control set over circuit lines (inputs or
/// factoring ancillae) and the outputs it feeds.
struct synth_term
{
  control_list controls;
  std::uint64_t output_mask = 0;
};

/// Key identifying a factorable control pair.
struct pair_key
{
  control a;
  control b;

  bool operator<( const pair_key& other ) const
  {
    if ( a.line != other.a.line )
    {
      return a.line < other.a.line;
    }
    if ( a.positive != other.a.positive )
    {
      return a.positive < other.a.positive;
    }
    if ( b.line != other.b.line )
    {
      return b.line < other.b.line;
    }
    return b.positive < other.b.positive;
  }
};

bool has_control( const control_list& controls, const control& c )
{
  return std::find( controls.begin(), controls.end(), c ) != controls.end();
}

} // namespace

reversible_circuit esop_synthesize( const esop& expression, const esop_synth_params& params,
                                    esop_synth_stats* stats )
{
  const auto n = expression.num_inputs;
  const auto m = expression.num_outputs;

  reversible_circuit circuit( n + m );
  for ( unsigned i = 0; i < n; ++i )
  {
    auto& info = circuit.line( i );
    info.name = "x" + std::to_string( i );
    info.is_primary_input = true;
    info.is_garbage = true; // inputs come out unchanged but are not outputs
  }
  for ( unsigned o = 0; o < m; ++o )
  {
    auto& info = circuit.line( n + o );
    info.name = "y" + std::to_string( o );
    info.is_constant_input = true;
    info.constant_value = false;
    info.output_index = static_cast<int>( o );
    info.is_garbage = false;
  }

  // Initial terms: cube literals become mixed-polarity controls on input
  // lines.
  std::vector<synth_term> terms;
  terms.reserve( expression.terms.size() );
  for ( const auto& t : expression.terms )
  {
    synth_term st;
    st.output_mask = t.output_mask;
    for ( auto m = t.product.mask; m != 0u; m &= m - 1u )
    {
      const auto v = static_cast<unsigned>( lsb_index( m ) );
      st.controls.push_back( { v, t.product.var_polarity( v ) } );
    }
    terms.push_back( std::move( st ) );
  }

  // --- factoring rounds (p > 0) --------------------------------------------
  // Each round extracts the most frequent control pair into an ancilla.
  // The compute gates are collected so they can be replayed in reverse to
  // restore the ancillae to 0.
  reversible_circuit compute_prefix( 0 ); // gate recording via index window
  const std::size_t factor_gates_begin = circuit.num_gates();
  unsigned factored = 0;
  for ( unsigned round = 0; round < params.p; ++round )
  {
    std::map<pair_key, unsigned> frequency;
    for ( const auto& t : terms )
    {
      for ( std::size_t i = 0; i < t.controls.size(); ++i )
      {
        for ( std::size_t j = i + 1u; j < t.controls.size(); ++j )
        {
          auto a = t.controls[i];
          auto b = t.controls[j];
          if ( b.line < a.line )
          {
            std::swap( a, b );
          }
          ++frequency[{ a, b }];
        }
      }
    }
    const auto best = std::max_element(
        frequency.begin(), frequency.end(),
        []( const auto& x, const auto& y ) { return x.second < y.second; } );
    if ( best == frequency.end() || best->second < params.min_factor_uses )
    {
      break;
    }
    const auto key = best->first;
    // Allocate the ancilla and compute the conjunction once.
    line_info info;
    info.name = "f" + std::to_string( factored );
    info.is_constant_input = true;
    info.constant_value = false;
    info.is_garbage = false; // restored to 0
    const auto ancilla = circuit.add_line( info );
    circuit.add_mct( { key.a, key.b }, ancilla );
    ++factored;
    // Rewrite all terms containing the pair.
    for ( auto& t : terms )
    {
      if ( has_control( t.controls, key.a ) && has_control( t.controls, key.b ) )
      {
        t.controls.erase( std::remove_if( t.controls.begin(), t.controls.end(),
                                          [&]( const control& c ) {
                                            return c == key.a || c == key.b;
                                          } ),
                          t.controls.end() );
        t.controls.push_back( { ancilla, true } );
      }
    }
  }
  const std::size_t factor_gates_end = circuit.num_gates();
  (void)compute_prefix;

  // --- term emission with shared-output copying ------------------------------
  // Group terms by output mask; a multi-output group is realized once on a
  // still-clean output line and copied to the others with CNOTs.
  std::map<std::uint64_t, std::vector<const synth_term*>> groups;
  for ( const auto& t : terms )
  {
    if ( t.output_mask != 0u )
    {
      groups[t.output_mask].push_back( &t );
    }
  }
  std::vector<bool> line_dirty( m, false );
  // Multi-output groups first (they need a clean representative line).
  std::vector<std::pair<std::uint64_t, const std::vector<const synth_term*>*>> ordered;
  for ( const auto& [mask, group] : groups )
  {
    ordered.emplace_back( mask, &group );
  }
  std::sort( ordered.begin(), ordered.end(), []( const auto& a, const auto& b ) {
    return popcount64( a.first ) > popcount64( b.first );
  } );

  for ( const auto& [mask, group] : ordered )
  {
    std::vector<unsigned> outs;
    for ( unsigned o = 0; o < m; ++o )
    {
      if ( ( mask >> o ) & 1u )
      {
        outs.push_back( o );
      }
    }
    if ( outs.size() == 1u )
    {
      for ( const auto* t : *group )
      {
        circuit.add_mct( t->controls, n + outs[0] );
      }
      line_dirty[outs[0]] = true;
      continue;
    }
    // Find a clean representative.
    int rep = -1;
    for ( const auto o : outs )
    {
      if ( !line_dirty[o] )
      {
        rep = static_cast<int>( o );
        break;
      }
    }
    if ( rep >= 0 )
    {
      for ( const auto* t : *group )
      {
        circuit.add_mct( t->controls, n + static_cast<unsigned>( rep ) );
      }
      for ( const auto o : outs )
      {
        if ( static_cast<int>( o ) != rep )
        {
          circuit.add_cnot( n + static_cast<unsigned>( rep ), n + o );
          line_dirty[o] = true;
        }
      }
      line_dirty[static_cast<unsigned>( rep )] = true;
    }
    else
    {
      // No clean line left: duplicate the Toffolis per output.
      for ( const auto o : outs )
      {
        for ( const auto* t : *group )
        {
          circuit.add_mct( t->controls, n + o );
        }
        line_dirty[o] = true;
      }
    }
  }

  // --- uncompute factoring ancillae ----------------------------------------
  circuit.append_reversed_window( factor_gates_begin, factor_gates_end );

  if ( stats )
  {
    stats->ancilla_lines = factored;
    stats->factored_pairs = factored;
  }
  return circuit;
}

} // namespace qsyn
