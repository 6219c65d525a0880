#include "verify.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "../common/bits.hpp"
#include "../sat/incremental.hpp"

namespace qsyn
{

namespace
{

constexpr std::uint64_t all_ones = ~std::uint64_t{ 0 };

/// Fills one lane group per input for the `W` consecutive counter blocks
/// starting at `blk0` (word k of input i covers assignments
/// `(blk0 + k) * 64 .. + 63`): the low six variables cycle through the
/// projection patterns in every word, the higher ones broadcast the
/// corresponding bit of the word's block index.
void fill_counter_wide( unsigned num_inputs, std::uint64_t blk0, unsigned W,
                        std::vector<std::uint64_t>& words )
{
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    for ( unsigned k = 0; k < W; ++k )
    {
      words[std::size_t{ i } * W + k] =
          i < 6u ? projections[i] : ( ( ( blk0 + k ) >> ( i - 6u ) ) & 1u ) ? all_ones : 0u;
    }
  }
}

/// Unpacks assignment lane `j` of word `k` of a grouped input batch.
std::vector<bool> unpack_wide_lane( const std::vector<std::uint64_t>& words, unsigned W,
                                    unsigned k, unsigned j )
{
  std::vector<bool> assignment( words.size() / W );
  for ( std::size_t i = 0; i < assignment.size(); ++i )
  {
    assignment[i] = ( words[i * W + k] >> j ) & 1u;
  }
  return assignment;
}

/// OR of the per-output differences in word `k` of two grouped results.
std::uint64_t diff_word_wide( const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b, unsigned W, unsigned k )
{
  std::uint64_t diff = 0;
  for ( std::size_t o = 0; o < a.size() / W; ++o )
  {
    diff |= a[o * W + k] ^ b[o * W + k];
  }
  return diff;
}

} // namespace

std::vector<std::uint32_t> input_lines_of( const reversible_circuit& circuit )
{
  std::vector<std::uint32_t> lines;
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_primary_input )
    {
      lines.push_back( l );
    }
  }
  return lines;
}

std::vector<std::uint32_t> output_lines_of( const reversible_circuit& circuit )
{
  int max_index = -1;
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    max_index = std::max( max_index, circuit.line( l ).output_index );
  }
  std::vector<std::uint32_t> lines( static_cast<std::size_t>( max_index + 1 ), 0u );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto idx = circuit.line( l ).output_index;
    if ( idx >= 0 )
    {
      lines[static_cast<std::size_t>( idx )] = l;
    }
  }
  return lines;
}

std::vector<bool> evaluate_circuit( const reversible_circuit& circuit,
                                    const std::vector<bool>& inputs )
{
  const auto in_lines = input_lines_of( circuit );
  if ( inputs.size() != in_lines.size() )
  {
    throw std::invalid_argument( "evaluate_circuit: input arity mismatch" );
  }
  std::vector<bool> state( circuit.num_lines(), false );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input )
    {
      state[l] = circuit.line( l ).constant_value;
    }
  }
  for ( std::size_t i = 0; i < in_lines.size(); ++i )
  {
    state[in_lines[i]] = inputs[i];
  }
  circuit.apply( state );
  const auto out_lines = output_lines_of( circuit );
  std::vector<bool> outputs( out_lines.size() );
  for ( std::size_t o = 0; o < out_lines.size(); ++o )
  {
    outputs[o] = state[out_lines[o]];
  }
  return outputs;
}

// --- exhaustive tiers --------------------------------------------------------

bool verify_against_truth_tables( const reversible_circuit& circuit,
                                  const std::vector<truth_table>& outputs )
{
  const auto num_inputs = static_cast<unsigned>( input_lines_of( circuit ).size() );
  if ( num_inputs > 24u )
  {
    throw std::invalid_argument( "verify_against_truth_tables: too many inputs" );
  }
  const auto width = auto_sim_width( std::uint64_t{ 1 } << num_inputs );
  const auto W = words_of( width );
  wide_simulator sim( circuit, width );
  if ( sim.output_lines().size() != outputs.size() )
  {
    return false;
  }
  for ( const auto& tt : outputs )
  {
    if ( tt.num_vars() != num_inputs )
    {
      return false;
    }
  }
  const auto mask = block_mask( num_inputs );
  const auto num_blocks = num_blocks_for( num_inputs );
  std::vector<std::uint64_t> words( std::size_t{ num_inputs } * W );
  for ( std::uint64_t blk = 0; blk < num_blocks; blk += W )
  {
    fill_counter_wide( num_inputs, blk, W, words );
    const auto& result = sim.evaluate( words );
    for ( std::size_t o = 0; o < outputs.size(); ++o )
    {
      for ( unsigned k = 0; k < W && blk + k < num_blocks; ++k )
      {
        // The counter-order batch of block blk+k is exactly block blk+k of
        // the truth table (bit i of index x = value of variable i).
        if ( ( result[o * W + k] ^ outputs[o].blocks()[blk + k] ) & mask )
        {
          return false;
        }
      }
    }
  }
  return true;
}

// --- the wide engine ---------------------------------------------------------

namespace
{

/// The counter-order enumeration of the exhaustive passes: the spec and
/// the circuit are simulated once per lane group over all 2^inputs
/// assignments, in block order, and `visit( words, live, expected, actual )`
/// inspects each group (its first `live` words lie inside the input space)
/// and returns false to stop.  The deadline is polled once per
/// pass; returns false iff it expired before the enumeration finished.
template<typename Visit>
bool for_each_counter_group( const reversible_circuit& circuit, const aig_network& aig,
                             const deadline& stop, sim_width width, const char* tier,
                             Visit&& visit )
{
  const auto W = words_of( width );
  const auto num_pis = aig.num_pis();
  if ( num_pis > 24u )
  {
    throw std::invalid_argument( std::string( tier ) + ": too many inputs" );
  }
  wide_simulator sim( circuit, width );
  if ( sim.input_lines().size() != num_pis || sim.output_lines().size() != aig.num_pos() )
  {
    throw std::invalid_argument( std::string( tier ) + ": interface mismatch" );
  }
  wide_aig_simulator spec( aig, width );
  const auto poll_deadline = !stop.unlimited();
  const auto num_blocks = num_blocks_for( num_pis );
  std::vector<std::uint64_t> words( std::size_t{ num_pis } * W );
  for ( std::uint64_t blk = 0; blk < num_blocks; blk += W )
  {
    if ( poll_deadline && stop.expired() )
    {
      return false;
    }
    fill_counter_wide( num_pis, blk, W, words );
    const auto& expected = spec.evaluate( words );
    const auto live = static_cast<unsigned>( std::min<std::uint64_t>( W, num_blocks - blk ) );
    if ( !visit( words, live, expected, sim.evaluate( words ) ) )
    {
      break;
    }
  }
  return true;
}

/// The exhaustive tier.  Word-by-word comparison in block order keeps the
/// first-counterexample contract (the lowest failing assignment in counter
/// order) and the per-assignment coverage accounting identical at every
/// width.
partial_verify_report exhaustive_wide( const reversible_circuit& circuit, const aig_network& aig,
                                       const deadline& stop, sim_width width )
{
  const auto W = words_of( width );
  const auto mask = block_mask( aig.num_pis() );
  const auto lanes_per_block = static_cast<std::uint64_t>( popcount64( mask ) );
  partial_verify_report report;
  report.complete = for_each_counter_group(
      circuit, aig, stop, width, "verify_against_aig_exhaustive",
      [&]( const std::vector<std::uint64_t>& words, unsigned live,
           const std::vector<std::uint64_t>& expected, const std::vector<std::uint64_t>& actual ) {
        for ( unsigned k = 0; k < live; ++k )
        {
          if ( const auto diff = diff_word_wide( expected, actual, W, k ) & mask )
          {
            report.counterexample =
                unpack_wide_lane( words, W, k, static_cast<unsigned>( lsb_index( diff ) ) );
            report.assignments_completed += lsb_index( diff ) + 1u;
            return false;
          }
          report.assignments_completed += lanes_per_block;
        }
        return true;
      } );
  report.assignments_requested = std::uint64_t{ 1 } << aig.num_pis();
  return report;
}

/// The SAT tier on a narrow design: one counter-order pass proves or
/// refutes every output at once.  The counterexample is the lowest
/// counter-order assignment distinguishing the lowest differing output
/// (not the lowest assignment distinguishing any output, as in the
/// exhaustive tier): outputs are scanned lowest-first in every group, and
/// the first column where an output differs is its lowest one.
sat_verify_outcome prove_by_simulation( const reversible_circuit& circuit,
                                        const aig_network& aig, const deadline& stop )
{
  const auto width = auto_sim_width( std::uint64_t{ 1 } << aig.num_pis() );
  const auto W = words_of( width );
  const auto mask = block_mask( aig.num_pis() );
  auto lowest = aig.num_pos(); // lowest output seen to differ so far
  std::optional<std::vector<bool>> counterexample;
  const auto finished = for_each_counter_group(
      circuit, aig, stop, width, "verify_against_aig_sat",
      [&]( const std::vector<std::uint64_t>& words, unsigned live,
           const std::vector<std::uint64_t>& expected, const std::vector<std::uint64_t>& actual ) {
        // Outputs at or above `lowest` can no longer change the answer.
        for ( unsigned o = 0; o < lowest; ++o )
        {
          for ( unsigned k = 0; k < live; ++k )
          {
            if ( const auto diff = ( expected[o * W + k] ^ actual[o * W + k] ) & mask )
            {
              lowest = o;
              counterexample =
                  unpack_wide_lane( words, W, k, static_cast<unsigned>( lsb_index( diff ) ) );
              break;
            }
          }
        }
        return lowest != 0u;
      } );
  sat_verify_outcome outcome;
  outcome.resolved = finished;
  outcome.equivalent = finished && !counterexample;
  if ( finished && counterexample )
  {
    outcome.counterexample = std::move( counterexample );
    outcome.failing_output = lowest;
  }
  return outcome;
}

/// The sampled tier.  The rng stream is consumed one word per input per
/// 64-lane block, in block order, so every width sees identical patterns.
/// Lane masking plus per-64-block accounting keeps `assignments_completed`
/// exact (never rounded up to lane-group granularity) when the request
/// size is not lane-aligned.
partial_verify_report sampled_wide( const reversible_circuit& circuit, const aig_network& aig,
                                    const deadline& stop, unsigned num_samples,
                                    std::uint64_t seed, sim_width width )
{
  const auto num_pis = aig.num_pis();
  // When the whole input space is no larger than the sample budget,
  // enumerate it exhaustively: random sampling would draw duplicate
  // vectors and could certify a tiny design without ever covering it.
  if ( num_pis <= 24u && ( std::uint64_t{ 1 } << num_pis ) <= num_samples )
  {
    return exhaustive_wide( circuit, aig, stop, width );
  }
  const auto W = words_of( width );
  wide_simulator sim( circuit, width );
  if ( sim.input_lines().size() != num_pis || sim.output_lines().size() != aig.num_pos() )
  {
    throw std::invalid_argument( "verify_against_aig_sampled: interface mismatch" );
  }
  std::mt19937_64 rng( seed );
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ num_samples } + 2u;
  const auto total = report.assignments_requested;
  wide_aig_simulator spec( aig, width );
  const auto poll_deadline = !stop.unlimited();
  std::vector<std::uint64_t> words( std::size_t{ num_pis } * W );
  for ( std::uint64_t base = 0; base < total; base += std::uint64_t{ 64 } * W )
  {
    if ( poll_deadline && stop.expired() )
    {
      report.complete = false;
      return report;
    }
    // One rng word per input per 64-lane block = 64 independent random
    // assignments per word; words past the request stay zero (masked out)
    // without consuming the stream.  The first block pins lane 0 to
    // all-zero and lane 1 to all-one.
    for ( unsigned k = 0; k < W; ++k )
    {
      const auto covered = base + std::uint64_t{ 64 } * k < total;
      for ( unsigned i = 0; i < num_pis; ++i )
      {
        auto w = covered ? rng() : 0u;
        if ( covered && base == 0 && k == 0 )
        {
          w = ( w & ~std::uint64_t{ 3 } ) | 2u;
        }
        words[std::size_t{ i } * W + k] = w;
      }
    }
    const auto& expected = spec.evaluate( words );
    const auto& actual = sim.evaluate( words );
    for ( unsigned k = 0; k < W && base + std::uint64_t{ 64 } * k < total; ++k )
    {
      const auto lanes = std::min<std::uint64_t>( 64u, total - ( base + std::uint64_t{ 64 } * k ) );
      const auto lane_mask = lanes == 64u ? all_ones : ( std::uint64_t{ 1 } << lanes ) - 1u;
      if ( const auto diff = diff_word_wide( expected, actual, W, k ) & lane_mask )
      {
        report.counterexample =
            unpack_wide_lane( words, W, k, static_cast<unsigned>( lsb_index( diff ) ) );
        report.assignments_completed += lsb_index( diff ) + 1u;
        return report;
      }
      report.assignments_completed += lanes;
    }
  }
  return report;
}

} // namespace

partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop,
                                                              sim_width width )
{
  return exhaustive_wide( circuit, aig, stop, width );
}

partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop )
{
  const auto num_pis = aig.num_pis();
  const auto width =
      num_pis > 24u ? sim_width::w512 : auto_sim_width( std::uint64_t{ 1 } << num_pis );
  return verify_against_aig_exhaustive_budgeted( circuit, aig, stop, width );
}

std::optional<std::vector<bool>> verify_against_aig_exhaustive( const reversible_circuit& circuit,
                                                                const aig_network& aig )
{
  return verify_against_aig_exhaustive_budgeted( circuit, aig, deadline{} ).counterexample;
}

partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples,
                                                           std::uint64_t seed, sim_width width )
{
  return sampled_wide( circuit, aig, stop, num_samples, seed, width );
}

partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples,
                                                           std::uint64_t seed )
{
  return verify_against_aig_sampled_budgeted( circuit, aig, stop, num_samples, seed,
                                              auto_sim_width( std::uint64_t{ num_samples } + 2u ) );
}

std::optional<std::vector<bool>> verify_against_aig_sampled( const reversible_circuit& circuit,
                                                             const aig_network& aig,
                                                             unsigned num_samples,
                                                             std::uint64_t seed )
{
  return verify_against_aig_sampled_budgeted( circuit, aig, deadline{}, num_samples, seed )
      .counterexample;
}

// --- SAT tier ----------------------------------------------------------------

aig_network circuit_to_aig( const reversible_circuit& circuit )
{
  const auto in_lines = input_lines_of( circuit );
  const auto out_lines = output_lines_of( circuit );
  aig_network aig( static_cast<unsigned>( in_lines.size() ) );
  // Symbolic line state: a literal per line, updated gate by gate.
  std::vector<aig_lit> state( circuit.num_lines(), aig_network::const0 );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input )
    {
      state[l] = aig_network::get_constant( circuit.line( l ).constant_value );
    }
  }
  for ( std::size_t i = 0; i < in_lines.size(); ++i )
  {
    state[in_lines[i]] = aig.pi( static_cast<unsigned>( i ) );
  }
  for ( const auto& g : circuit.gates() )
  {
    std::vector<aig_lit> controls;
    controls.reserve( g.controls.size() );
    for ( const auto& c : g.controls )
    {
      controls.push_back( lit_not_cond( state[c.line], !c.positive ) );
    }
    const auto fire = aig.create_nary_and( std::move( controls ) );
    state[g.target] = aig.create_xor( state[g.target], fire );
  }
  for ( const auto line : out_lines )
  {
    aig.add_po( state[line] );
  }
  return aig;
}

std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig )
{
  sat::incremental_cec engine;
  return verify_against_aig_sat( circuit, aig, engine );
}

std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig,
                                                         sat::incremental_cec& engine,
                                                         unsigned* failing_output )
{
  const auto outcome = verify_against_aig_sat_budgeted( circuit, aig, engine, sat::check_limits{} );
  if ( outcome.equivalent )
  {
    return std::nullopt;
  }
  if ( failing_output && outcome.failing_output )
  {
    *failing_output = *outcome.failing_output;
  }
  return outcome.counterexample;
}

sat_verify_outcome verify_against_aig_sat_budgeted( const reversible_circuit& circuit,
                                                    const aig_network& aig,
                                                    sat::incremental_cec& engine,
                                                    const sat::check_limits& limits )
{
  if ( aig.num_pis() <= sat_tier_simulation_max_pis )
  {
    return prove_by_simulation( circuit, aig, limits.stop );
  }
  const auto impl = circuit_to_aig( circuit );
  if ( impl.num_pis() != aig.num_pis() || impl.num_pos() != aig.num_pos() )
  {
    throw std::invalid_argument( "verify_against_aig_sat: interface mismatch" );
  }
  const auto checked = engine.check( aig, impl, limits );
  sat_verify_outcome outcome;
  outcome.resolved = checked.resolved;
  outcome.equivalent = checked.resolved && checked.equivalent;
  outcome.counterexample = checked.counterexample;
  outcome.failing_output = checked.failing_output;
  return outcome;
}

reversible_circuit corrupt_circuit( const reversible_circuit& circuit, const aig_network& spec )
{
  auto corrupted = circuit;
  for ( std::size_t g = corrupted.num_gates(); g-- > 0; )
  {
    auto& gate = corrupted.gates()[g];
    const auto original = gate.target;
    for ( std::uint32_t t = 0; t < corrupted.num_lines(); ++t )
    {
      const auto on_control =
          std::any_of( gate.controls.begin(), gate.controls.end(),
                       [t]( const control& c ) { return c.line == t; } );
      if ( t == original || on_control )
      {
        continue;
      }
      gate.target = t;
      if ( verify_against_aig_exhaustive( corrupted, spec ).has_value() )
      {
        return corrupted;
      }
      gate.target = original;
    }
  }
  throw std::logic_error( "corrupt_circuit: no single retarget changes the function" );
}

bool verify_permutation( const reversible_circuit& circuit,
                         const std::vector<std::uint64_t>& expected )
{
  if ( circuit.num_lines() > 20u )
  {
    throw std::invalid_argument( "verify_permutation: too many lines" );
  }
  return circuit.permutation() == expected;
}

} // namespace qsyn
