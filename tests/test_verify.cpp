/// The wide bit-parallel simulation engine (every lane width, whichever
/// SIMD backend the build dispatches to) vs. the scalar `evaluate_circuit`
/// oracle, plus the exhaustive / sampled / SAT tiers built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "core/flows.hpp"
#include "logic/aig.hpp"
#include "reversible/circuit.hpp"
#include "reversible/verify.hpp"
#include "sat/incremental.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Deterministic random Toffoli/CNOT/NOT network over `num_lines` lines with
/// random primary-input / constant-ancilla roles and random output placement.
reversible_circuit random_circuit( std::mt19937_64& rng, unsigned num_lines, unsigned num_gates,
                                   unsigned num_inputs )
{
  reversible_circuit circuit( num_lines );
  // Roles: the first num_inputs lines carry inputs (shuffling the carrier
  // lines would not change coverage — input i is "the i-th input line in
  // line order" either way), the rest are constant ancillae with random
  // initial values.
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    auto& info = circuit.line( l );
    if ( l < num_inputs )
    {
      info.is_primary_input = true;
    }
    else
    {
      info.is_constant_input = true;
      info.constant_value = rng() & 1u;
    }
  }
  // Outputs: a random nonempty subset of lines, indexed in line order.
  int next_output = 0;
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    if ( ( rng() & 3u ) == 0u || ( l + 1u == num_lines && next_output == 0 ) )
    {
      circuit.line( l ).output_index = next_output++;
      circuit.line( l ).is_garbage = false;
    }
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    const auto target = static_cast<std::uint32_t>( rng() % num_lines );
    control_list controls;
    for ( std::uint32_t l = 0; l < num_lines; ++l )
    {
      if ( l != target && ( rng() & 3u ) == 0u )
      {
        controls.push_back( { l, static_cast<bool>( rng() & 1u ) } );
      }
    }
    circuit.add_mct( controls, target );
  }
  return circuit;
}

std::vector<bool> random_assignment( std::mt19937_64& rng, unsigned num_inputs )
{
  std::vector<bool> assignment( num_inputs );
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    assignment[i] = rng() & 1u;
  }
  return assignment;
}

/// Packs `assignments[j]` into bit j of one word per input variable.
std::vector<std::uint64_t> pack( const std::vector<std::vector<bool>>& assignments,
                                 unsigned num_inputs )
{
  std::vector<std::uint64_t> words( num_inputs, 0u );
  for ( std::size_t j = 0; j < assignments.size(); ++j )
  {
    for ( unsigned i = 0; i < num_inputs; ++i )
    {
      if ( assignments[j][i] )
      {
        words[i] |= std::uint64_t{ 1 } << j;
      }
    }
  }
  return words;
}

std::vector<bool> counter_assignment( std::uint64_t x, unsigned num_inputs )
{
  std::vector<bool> assignment( num_inputs );
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    assignment[i] = ( x >> i ) & 1u;
  }
  return assignment;
}

} // namespace

// --- wide simulator vs. scalar oracle --------------------------------------

namespace
{

constexpr sim_width all_widths[] = { sim_width::w64, sim_width::w256, sim_width::w512 };

/// Lays out one 64-assignment batch per word of a lane group, input-major
/// (`words[i * W + k]` = word k of input i), the layout `wide_simulator`
/// takes.
std::vector<std::uint64_t> pack_group( const std::vector<std::vector<std::vector<bool>>>& batches,
                                       unsigned num_inputs )
{
  const auto W = batches.size();
  std::vector<std::uint64_t> words( num_inputs * W );
  for ( std::size_t k = 0; k < W; ++k )
  {
    const auto packed = pack( batches[k], num_inputs );
    for ( unsigned i = 0; i < num_inputs; ++i )
    {
      words[i * W + k] = packed[i];
    }
  }
  return words;
}

} // namespace

TEST( verify_wide_sim, matches_scalar_on_random_circuits_at_every_width )
{
  std::mt19937_64 rng( 11 );
  for ( int instance = 0; instance < 40; ++instance )
  {
    const unsigned num_lines = 2u + rng() % 9u;
    const unsigned num_inputs = 1u + rng() % num_lines;
    const auto circuit = random_circuit( rng, num_lines, 1u + rng() % 40u, num_inputs );

    for ( const auto width : all_widths )
    {
      const auto W = words_of( width );
      std::vector<std::vector<std::vector<bool>>> batches( W );
      for ( auto& batch : batches )
      {
        for ( unsigned j = 0; j < 64u; ++j )
        {
          batch.push_back( random_assignment( rng, num_inputs ) );
        }
      }
      wide_simulator sim( circuit, width );
      ASSERT_EQ( sim.width(), width );
      const auto& words = sim.evaluate( pack_group( batches, num_inputs ) );
      for ( unsigned k = 0; k < W; ++k )
      {
        for ( unsigned j = 0; j < 64u; ++j )
        {
          const auto expected = evaluate_circuit( circuit, batches[k][j] );
          ASSERT_EQ( words.size(), expected.size() * W );
          for ( std::size_t o = 0; o < expected.size(); ++o )
          {
            EXPECT_EQ( ( words[o * W + k] >> j ) & 1u, static_cast<std::uint64_t>( expected[o] ) )
                << "instance " << instance << " width " << lanes_of( width ) << " word " << k
                << " lane " << j << " output " << o;
          }
        }
      }
    }
  }
}

TEST( verify_wide_sim, matches_scalar_exhaustively_up_to_ten_inputs_at_every_width )
{
  std::mt19937_64 rng( 23 );
  for ( const unsigned num_inputs : { 1u, 2u, 5u, 6u, 7u, 10u } )
  {
    const unsigned num_lines = num_inputs + 1u + rng() % 3u;
    const auto circuit = random_circuit( rng, num_lines, 25u, num_inputs );
    const std::uint64_t space = std::uint64_t{ 1 } << num_inputs;
    for ( const auto width : all_widths )
    {
      const auto W = words_of( width );
      wide_simulator sim( circuit, width );
      for ( std::uint64_t base = 0; base < space; base += lanes_of( width ) )
      {
        // Counter order across the group; lanes past the space repeat
        // assignment 0 and are not checked.
        std::vector<std::vector<std::vector<bool>>> batches( W );
        for ( unsigned k = 0; k < W; ++k )
        {
          for ( unsigned j = 0; j < 64u; ++j )
          {
            const auto x = base + k * 64u + j;
            batches[k].push_back( counter_assignment( x < space ? x : 0u, num_inputs ) );
          }
        }
        const auto& words = sim.evaluate( pack_group( batches, num_inputs ) );
        for ( unsigned k = 0; k < W; ++k )
        {
          for ( unsigned j = 0; j < 64u && base + k * 64u + j < space; ++j )
          {
            const auto expected = evaluate_circuit( circuit, batches[k][j] );
            for ( std::size_t o = 0; o < expected.size(); ++o )
            {
              EXPECT_EQ( ( words[o * W + k] >> j ) & 1u, static_cast<std::uint64_t>( expected[o] ) )
                  << "n=" << num_inputs << " width " << lanes_of( width )
                  << " x=" << base + k * 64u + j << " output " << o;
            }
          }
        }
      }
    }
  }
}

TEST( verify_wide_sim, constant_ancilla_values_are_broadcast )
{
  // out = (1 AND x0) XOR x1 realized with a constant-1 ancilla as control.
  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).constant_value = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  circuit.add_toffoli( 0, 2, 1 ); // fires iff x0 (ancilla is constant 1)
  for ( const auto width : all_widths )
  {
    const auto W = words_of( width );
    wide_simulator sim( circuit, width );
    std::vector<std::uint64_t> words( 2u * W );
    for ( unsigned k = 0; k < W; ++k )
    {
      words[k] = projections[0];
      words[W + k] = projections[1];
    }
    const auto& out = sim.evaluate( words );
    ASSERT_EQ( out.size(), std::size_t{ W } );
    for ( unsigned k = 0; k < W; ++k )
    {
      EXPECT_EQ( out[k], projections[0] ^ projections[1] ) << lanes_of( width ) << " word " << k;
    }
  }
}

TEST( verify_wide_sim, input_arity_mismatch_throws )
{
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  for ( const auto width : all_widths )
  {
    wide_simulator sim( circuit, width );
    EXPECT_THROW( sim.evaluate( std::vector<std::uint64_t>( words_of( width ) ) ),
                  std::invalid_argument )
        << lanes_of( width );
  }
}

// --- truth-table tier --------------------------------------------------------

TEST( verify_truth_tables, agrees_with_scalar_oracle_and_detects_single_bit_flips )
{
  std::mt19937_64 rng( 37 );
  for ( const unsigned num_inputs : { 3u, 6u, 8u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 2u, 30u, num_inputs );
    const auto num_outputs = output_lines_of( circuit ).size();
    // Reference tables from the scalar oracle.
    std::vector<truth_table> outputs( num_outputs, truth_table( num_inputs ) );
    for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << num_inputs ); ++x )
    {
      const auto value = evaluate_circuit( circuit, counter_assignment( x, num_inputs ) );
      for ( std::size_t o = 0; o < num_outputs; ++o )
      {
        outputs[o].set_bit( x, value[o] );
      }
    }
    EXPECT_TRUE( verify_against_truth_tables( circuit, outputs ) ) << num_inputs;

    auto corrupted = outputs;
    const auto flip_output = rng() % num_outputs;
    const auto flip_index = rng() % ( std::uint64_t{ 1 } << num_inputs );
    corrupted[flip_output].set_bit( flip_index, !corrupted[flip_output].get_bit( flip_index ) );
    EXPECT_FALSE( verify_against_truth_tables( circuit, corrupted ) ) << num_inputs;
  }
}

TEST( verify_truth_tables, output_count_and_arity_mismatches_are_rejected )
{
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  EXPECT_FALSE( verify_against_truth_tables( circuit, {} ) );
  EXPECT_FALSE(
      verify_against_truth_tables( circuit, { truth_table( 3 ) } ) ); // wrong variable count
}

// --- exhaustive tier ---------------------------------------------------------

TEST( verify_exhaustive, certifies_extraction_and_finds_first_counterexample )
{
  std::mt19937_64 rng( 51 );
  for ( const unsigned num_inputs : { 1u, 2u, 3u, 4u, 5u, 6u, 8u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 2u, 20u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    // Ragged tails included: for num_inputs < 6 the whole space is one
    // partial word.
    EXPECT_EQ( verify_against_aig_exhaustive( circuit, spec ), std::nullopt ) << num_inputs;

    // Complement one PO: the verifier must return the first failing
    // assignment in counter order (the scalar enumeration's contract).
    auto corrupted = spec;
    corrupted.set_po( 0, lit_not( corrupted.po( 0 ) ) );
    const auto cex = verify_against_aig_exhaustive( circuit, corrupted );
    ASSERT_TRUE( cex.has_value() ) << num_inputs;
    EXPECT_NE( evaluate_circuit( circuit, *cex ), corrupted.evaluate( *cex ) );
    std::uint64_t first_failing = 0;
    for ( std::uint64_t x = 0;; ++x )
    {
      const auto assignment = counter_assignment( x, num_inputs );
      if ( evaluate_circuit( circuit, assignment ) != corrupted.evaluate( assignment ) )
      {
        first_failing = x;
        break;
      }
    }
    EXPECT_EQ( *cex, counter_assignment( first_failing, num_inputs ) ) << num_inputs;
  }
}

TEST( verify_exhaustive, output_arity_mismatch_throws )
{
  // One circuit output vs. two AIG POs: both simulation tiers must reject
  // the interface instead of comparing past the shorter result vector.
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  aig_network aig( 2 );
  aig.add_po( aig.pi( 1 ) );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_exhaustive( circuit, aig ), std::invalid_argument );
  EXPECT_THROW( verify_against_aig_sampled( circuit, aig, 2, 1 ), std::invalid_argument );
  EXPECT_THROW( verify_against_aig_sat( circuit, aig ), std::invalid_argument );
}

TEST( verify_exhaustive, too_many_inputs_throws )
{
  reversible_circuit circuit( 25 );
  for ( unsigned l = 0; l < 25u; ++l )
  {
    circuit.line( l ).is_primary_input = true;
  }
  circuit.line( 0 ).output_index = 0;
  aig_network aig( 25 );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_exhaustive( circuit, aig ), std::invalid_argument );
}

// --- sampled tier ------------------------------------------------------------

TEST( verify_sampled, small_spaces_are_enumerated_exhaustively )
{
  // f = x0 AND x1, circuit computes OR: wrong exactly on the two one-hot
  // patterns.  Sampling could miss them; the exhaustive branch cannot, and
  // must return the first failing assignment x = 1, i.e. (1, 0).  This is
  // the regression contract for the counterexample format of the scalar
  // enumeration the bit-parallel engine replaced.
  aig_network aig( 2 );
  aig.add_po( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ) );

  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).output_index = 0;
  circuit.line( 2 ).is_garbage = false;
  circuit.add_gate( toffoli_gate{ { { 0, false }, { 1, false } }, 2 } );
  circuit.add_not( 2 );

  const auto cex = verify_against_aig_sampled( circuit, aig, 256, 1 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_EQ( *cex, ( std::vector<bool>{ true, false } ) );
}

TEST( verify_sampled, ragged_budget_below_one_word_still_covers_extremes )
{
  // 7 inputs with a 5-sample budget: 2^7 > 5, so the random branch runs one
  // ragged 7-lane batch.  A circuit wrong only on the all-one pattern must
  // still be caught (lane 1 pins all-one).
  const unsigned n = 7;
  aig_network aig( n );
  std::vector<aig_lit> pis;
  for ( unsigned i = 0; i < n; ++i )
  {
    pis.push_back( aig.pi( i ) );
  }
  aig.add_po( aig.create_nary_and( pis ) );

  reversible_circuit circuit( n + 1u );
  for ( unsigned l = 0; l < n; ++l )
  {
    circuit.line( l ).is_primary_input = true;
  }
  circuit.line( n ).is_constant_input = true;
  circuit.line( n ).output_index = 0;
  circuit.line( n ).is_garbage = false;
  // Constant-0 output: differs from the spec only on the all-one input.
  const auto cex = verify_against_aig_sampled( circuit, aig, 5, 99 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_EQ( *cex, std::vector<bool>( n, true ) );
  EXPECT_NE( evaluate_circuit( circuit, *cex ), aig.evaluate( *cex ) );
}

TEST( verify_sampled, accepts_correct_extraction_on_wide_inputs )
{
  std::mt19937_64 rng( 77 );
  const unsigned num_inputs = 12; // 2^12 > 256: genuine random sampling
  const auto circuit = random_circuit( rng, num_inputs + 3u, 30u, num_inputs );
  EXPECT_EQ( verify_against_aig_sampled( circuit, circuit_to_aig( circuit ), 256, 7 ),
             std::nullopt );
}

// --- circuit -> AIG extraction and the SAT tier ------------------------------

TEST( verify_sat, extraction_matches_scalar_oracle )
{
  std::mt19937_64 rng( 91 );
  for ( int instance = 0; instance < 20; ++instance )
  {
    const unsigned num_inputs = 1u + rng() % 6u;
    const auto circuit = random_circuit( rng, num_inputs + 1u + rng() % 3u, 15u, num_inputs );
    const auto aig = circuit_to_aig( circuit );
    for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << num_inputs ); ++x )
    {
      const auto assignment = counter_assignment( x, num_inputs );
      EXPECT_EQ( aig.evaluate( assignment ), evaluate_circuit( circuit, assignment ) )
          << "instance " << instance << " x=" << x;
    }
  }
}

TEST( verify_sat, proves_correct_circuits_and_refutes_corrupted_ones )
{
  std::mt19937_64 rng( 123 );
  for ( int instance = 0; instance < 10; ++instance )
  {
    const unsigned num_inputs = 2u + rng() % 5u;
    const auto circuit = random_circuit( rng, num_inputs + 2u, 20u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    EXPECT_EQ( verify_against_aig_sat( circuit, spec ), std::nullopt ) << instance;

    auto corrupted = spec;
    corrupted.set_po( 0, lit_not( corrupted.po( 0 ) ) );
    const auto cex = verify_against_aig_sat( circuit, corrupted );
    ASSERT_TRUE( cex.has_value() ) << instance;
    // Counterexample round-trip: it must actually distinguish the circuit
    // from the (corrupted) specification.
    EXPECT_NE( evaluate_circuit( circuit, *cex ), corrupted.evaluate( *cex ) ) << instance;
  }
}

TEST( verify_sat, interface_mismatch_throws )
{
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  aig_network aig( 3 );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_sat( circuit, aig ), std::invalid_argument );
}

namespace
{

/// Appends `count` random MCT gates (up to three controls of random
/// polarity) to a copy of `circuit`: a same-interface variant whose outputs
/// differ from the original's at scattered outputs and columns.
reversible_circuit with_random_gates( reversible_circuit circuit, std::mt19937_64& rng,
                                      unsigned count )
{
  const auto num_lines = circuit.num_lines();
  for ( unsigned g = 0; g < count; ++g )
  {
    const auto target = static_cast<std::uint32_t>( rng() % num_lines );
    control_list controls;
    for ( unsigned c = rng() % 4u; c > 0u; --c )
    {
      const auto line = static_cast<std::uint32_t>( rng() % num_lines );
      const bool taken = std::any_of( controls.begin(), controls.end(),
                                      [line]( const control& x ) { return x.line == line; } );
      if ( line != target && !taken )
      {
        controls.push_back( { line, static_cast<bool>( rng() & 1u ) } );
      }
    }
    circuit.add_mct( controls, target );
  }
  return circuit;
}

/// Scalar reference of the SAT tier's narrow counterexample: the lowest
/// output on which circuit and spec ever differ, and the lowest
/// counter-order assignment distinguishing that output (nullopt when they
/// are equivalent).
std::optional<std::pair<unsigned, std::vector<bool>>>
lowest_output_counterexample( const reversible_circuit& circuit, const aig_network& spec )
{
  const auto n = spec.num_pis();
  std::vector<std::vector<bool>> got;
  std::vector<std::vector<bool>> want;
  for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    got.push_back( evaluate_circuit( circuit, counter_assignment( x, n ) ) );
    want.push_back( spec.evaluate( counter_assignment( x, n ) ) );
  }
  for ( unsigned o = 0; o < spec.num_pos(); ++o )
  {
    for ( std::uint64_t x = 0; x < got.size(); ++x )
    {
      if ( got[x][o] != want[x][o] )
      {
        return std::make_pair( o, counter_assignment( x, n ) );
      }
    }
  }
  return std::nullopt;
}

} // namespace

TEST( verify_sat, narrow_counterexample_is_the_lowest_column_of_the_lowest_failing_output )
{
  // Pins the SAT tier's narrow-design counterexample bit for bit against
  // the scalar oracle: random circuits against random same-interface
  // variants, and single-retarget corruptions of synthesized INTDIV/NEWTON
  // circuits.
  std::vector<std::pair<reversible_circuit, aig_network>> cases;
  std::mt19937_64 rng( 2718 );
  for ( int instance = 0; instance < 60; ++instance )
  {
    const unsigned num_inputs = 1u + rng() % 9u;
    const auto circuit = random_circuit( rng, num_inputs + 1u + rng() % 4u, 25u, num_inputs );
    const auto variant = with_random_gates( circuit, rng, 1u + rng() % 4u );
    cases.emplace_back( circuit, circuit_to_aig( variant ) );
  }
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( const unsigned n : { 5u, 8u } )
    {
      for ( const auto kind : { flow_kind::esop_based, flow_kind::hierarchical } )
      {
        const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
        flow_params params;
        params.kind = kind;
        params.verify = false;
        const auto flow = run_flow_on_aig( mod.aig, params );
        const auto spec = optimize( mod.aig, params.optimization_rounds );
        cases.emplace_back( flow.circuit, spec );
        cases.emplace_back( corrupt_circuit( flow.circuit, spec ), spec );
      }
    }
  }
  sat::incremental_cec engine;
  std::size_t refuted = 0;
  std::set<unsigned> failing_outputs;
  std::size_t nonzero_columns = 0;
  for ( std::size_t c = 0; c < cases.size(); ++c )
  {
    const auto& [circuit, spec] = cases[c];
    ASSERT_LE( spec.num_pis(), sat_tier_simulation_max_pis ) << c;
    const auto expected = lowest_output_counterexample( circuit, spec );
    unsigned failing_output = ~0u;
    const auto cex = verify_against_aig_sat( circuit, spec, engine, &failing_output );
    ASSERT_EQ( cex.has_value(), expected.has_value() ) << "case " << c;
    if ( expected )
    {
      ++refuted;
      failing_outputs.insert( expected->first );
      nonzero_columns += std::count( expected->second.begin(), expected->second.end(), true ) > 0;
      EXPECT_EQ( failing_output, expected->first ) << "case " << c;
      EXPECT_EQ( *cex, expected->second ) << "case " << c;
    }
  }
  // Enough refutations, at more than one output and past column 0, to pin
  // the ordering.
  EXPECT_GE( refuted, 20u );
  EXPECT_GE( failing_outputs.size(), 3u );
  EXPECT_GE( nonzero_columns, 10u );
}

TEST( verify_sat, narrow_check_honours_an_expired_deadline )
{
  // A narrow check polls its deadline once per lane group: an expired one
  // leaves it unresolved (so the flow's downgrade ladder applies) without
  // encoding anything into the engine.
  std::mt19937_64 rng( 5 );
  const auto circuit = random_circuit( rng, 15u, 60u, sat_tier_simulation_max_pis );
  const auto spec = circuit_to_aig( circuit );
  sat::incremental_cec engine;
  cancellation_token token;
  token.request_cancel();
  sat::check_limits limits;
  limits.stop = deadline::with_token( token );
  const auto outcome = verify_against_aig_sat_budgeted( circuit, spec, engine, limits );
  EXPECT_FALSE( outcome.resolved );
  EXPECT_FALSE( outcome.counterexample.has_value() );
  EXPECT_EQ( engine.stats().checks, 0u );

  const auto settled = verify_against_aig_sat_budgeted( circuit, spec, engine, sat::check_limits{} );
  EXPECT_TRUE( settled.resolved );
  EXPECT_TRUE( settled.equivalent );
  EXPECT_EQ( engine.stats().checks, 0u );
}

TEST( verify_sat, wide_designs_reach_the_engine_with_the_exhaustive_verdict )
{
  // Above the simulation boundary the SAT tier extracts the circuit and
  // checks it on the caller's engine; its verdict must equal the
  // exhaustive tier's, its counterexample must be real, and a repeated
  // check must reuse the encoding (no new union nodes).
  const unsigned num_inputs = sat_tier_simulation_max_pis + 1u;
  std::mt19937_64 rng( 1313 );
  sat::incremental_cec engine;
  std::size_t calls = 0;
  const auto check = [&]( const reversible_circuit& circuit, const aig_network& spec ) {
    unsigned failing_output = ~0u;
    const auto cex = verify_against_aig_sat( circuit, spec, engine, &failing_output );
    EXPECT_EQ( engine.stats().checks, ++calls );
    EXPECT_EQ( cex.has_value(), verify_against_aig_exhaustive( circuit, spec ).has_value() );
    if ( cex )
    {
      EXPECT_NE( evaluate_circuit( circuit, *cex )[failing_output],
                 spec.evaluate( *cex )[failing_output] );
    }
    return cex.has_value();
  };
  for ( int instance = 0; instance < 3; ++instance )
  {
    const auto circuit = random_circuit( rng, num_inputs + 2u, 30u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    EXPECT_FALSE( check( circuit, spec ) ) << instance;
    EXPECT_TRUE( check( corrupt_circuit( circuit, spec ), spec ) ) << instance;
    (void)check( circuit, circuit_to_aig( with_random_gates( circuit, rng, 2u ) ) );
    const auto nodes = engine.stats().nodes;
    EXPECT_FALSE( check( circuit, spec ) ) << instance;
    EXPECT_EQ( engine.stats().nodes, nodes ) << instance;
  }
}

// --- verification tiers vs. the scalar oracle -------------------------------
//
// The differential harness of the simulation tiers: every width (whichever
// SIMD backend the build dispatches to) is pinned against a scalar
// enumeration that evaluates one assignment at a time through
// `evaluate_circuit` and `aig_network::evaluate` — bit-identical verdicts,
// counterexamples, and coverage accounting, ragged tails and constant
// ancillae included.

namespace
{

/// Scalar oracle of the exhaustive tier: counter order, one assignment at
/// a time, stopping at the first difference.
partial_verify_report scalar_exhaustive_report( const reversible_circuit& circuit,
                                                const aig_network& spec )
{
  const auto num_inputs = spec.num_pis();
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ 1 } << num_inputs;
  for ( std::uint64_t x = 0; x < report.assignments_requested; ++x )
  {
    const auto assignment = counter_assignment( x, num_inputs );
    ++report.assignments_completed;
    if ( evaluate_circuit( circuit, assignment ) != spec.evaluate( assignment ) )
    {
      report.counterexample = assignment;
      break;
    }
  }
  return report;
}

/// Scalar oracle of the sampled tier.  It reproduces the tier's pattern
/// stream: one rng word per input per 64-lane block, blocks in order,
/// inputs in order, lane 0 of the first block pinned to all-zero and lane 1
/// to all-one.  Each lane is then checked as one scalar assignment.  Small
/// spaces delegate to the exhaustive enumeration, like the tier does.
partial_verify_report scalar_sampled_report( const reversible_circuit& circuit,
                                             const aig_network& spec, unsigned num_samples,
                                             std::uint64_t seed )
{
  const auto num_inputs = spec.num_pis();
  if ( num_inputs <= 24u && ( std::uint64_t{ 1 } << num_inputs ) <= num_samples )
  {
    return scalar_exhaustive_report( circuit, spec );
  }
  std::mt19937_64 rng( seed );
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ num_samples } + 2u;
  std::vector<std::uint64_t> words( num_inputs );
  for ( std::uint64_t base = 0; base < report.assignments_requested; base += 64u )
  {
    for ( auto& w : words )
    {
      w = rng();
      if ( base == 0 )
      {
        w = ( w & ~std::uint64_t{ 3 } ) | 2u;
      }
    }
    const auto lanes = std::min<std::uint64_t>( 64u, report.assignments_requested - base );
    for ( unsigned j = 0; j < lanes; ++j )
    {
      std::vector<bool> assignment( num_inputs );
      for ( unsigned i = 0; i < num_inputs; ++i )
      {
        assignment[i] = ( words[i] >> j ) & 1u;
      }
      ++report.assignments_completed;
      if ( evaluate_circuit( circuit, assignment ) != spec.evaluate( assignment ) )
      {
        report.counterexample = assignment;
        return report;
      }
    }
  }
  return report;
}

/// Full report equality: verdict, counterexample, and the per-assignment
/// coverage accounting must match the oracle exactly.
void expect_report_equal( const partial_verify_report& got, const partial_verify_report& want,
                          const std::string& context )
{
  EXPECT_EQ( got.counterexample, want.counterexample ) << context;
  EXPECT_EQ( got.assignments_requested, want.assignments_requested ) << context;
  EXPECT_EQ( got.assignments_completed, want.assignments_completed ) << context;
  EXPECT_EQ( got.complete, want.complete ) << context;
}

/// Corrupts a circuit behind its extracted specification: an extra NOT on
/// the lowest output line flips that output for every assignment.
reversible_circuit corrupt_first_output( const reversible_circuit& circuit )
{
  auto corrupted = circuit;
  corrupted.add_not( output_lines_of( circuit ).front() );
  return corrupted;
}

/// Corrupts a circuit behind its extracted specification with a gate that
/// fires only when its three highest input lines all end up one: unlike
/// `corrupt_first_output`, the candidate agrees with the spec on most
/// assignments, so its first counterexample is not the first one checked.
reversible_circuit corrupt_late( const reversible_circuit& circuit )
{
  const auto ins = input_lines_of( circuit );
  const auto n = ins.size();
  const control_list controls = { { ins[n - 1u], true },
                                  { ins[n - 2u], true },
                                  { ins[n - 3u], true } };
  auto target = output_lines_of( circuit ).front();
  for ( const auto line : output_lines_of( circuit ) )
  {
    if ( line != ins[n - 1u] && line != ins[n - 2u] && line != ins[n - 3u] )
    {
      target = line;
      break;
    }
  }
  auto corrupted = circuit;
  corrupted.add_mct( controls, target );
  return corrupted;
}

} // namespace

TEST( verify_wide, exhaustive_reports_match_oracle_at_every_width )
{
  std::mt19937_64 rng( 223 );
  // Ragged tails on purpose: 2^3 is a fraction of one word, 2^7 fills two
  // of a w512 group's eight words, 2^9 is exactly one w512 group.  The
  // random circuits carry constant ancillae and garbage lines.
  for ( const unsigned num_inputs : { 3u, 5u, 7u, 9u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 3u, 30u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    const auto corrupted = corrupt_first_output( circuit );
    const auto late = corrupt_late( circuit );

    const auto pass_oracle = scalar_exhaustive_report( circuit, spec );
    EXPECT_FALSE( pass_oracle.counterexample.has_value() ) << num_inputs;
    EXPECT_EQ( pass_oracle.assignments_completed, std::uint64_t{ 1 } << num_inputs );
    const auto fail_oracle = scalar_exhaustive_report( corrupted, spec );
    ASSERT_TRUE( fail_oracle.counterexample.has_value() ) << num_inputs;
    const auto late_oracle = scalar_exhaustive_report( late, spec );
    // At n = 3 the late gate changes no output of this circuit: that
    // candidate passes, and must pass at every width too.
    ASSERT_EQ( late_oracle.counterexample.has_value(), num_inputs > 3u ) << num_inputs;

    for ( const auto width : all_widths )
    {
      const auto context =
          "n=" + std::to_string( num_inputs ) + " width=" + std::to_string( lanes_of( width ) );
      expect_report_equal( verify_against_aig_exhaustive_budgeted( circuit, spec, deadline{}, width ),
                           pass_oracle, "pass " + context );
      expect_report_equal(
          verify_against_aig_exhaustive_budgeted( corrupted, spec, deadline{}, width ),
          fail_oracle, "fail " + context );
      expect_report_equal( verify_against_aig_exhaustive_budgeted( late, spec, deadline{}, width ),
                           late_oracle, "late " + context );
    }
  }
}

TEST( verify_wide, first_counterexample_is_lowest_column_at_every_width )
{
  // Spec = AND of all n inputs, circuit = constant 0: the only difference
  // is the all-one assignment — the LAST column of the space.  Every width
  // must report exactly it (not an earlier lane of the same wide group)
  // and count all 2^n assignments as covered.  At n = 10 the column is
  // found only after several lane-group passes at every width (16 at w64,
  // 2 at w512).
  for ( const unsigned n : { 7u, 10u } )
  {
    aig_network aig( n );
    std::vector<aig_lit> pis;
    for ( unsigned i = 0; i < n; ++i )
    {
      pis.push_back( aig.pi( i ) );
    }
    aig.add_po( aig.create_nary_and( pis ) );

    reversible_circuit circuit( n + 1u );
    for ( unsigned l = 0; l < n; ++l )
    {
      circuit.line( l ).is_primary_input = true;
    }
    circuit.line( n ).is_constant_input = true;
    circuit.line( n ).output_index = 0;
    circuit.line( n ).is_garbage = false;

    for ( const auto width : all_widths )
    {
      const auto context =
          "n=" + std::to_string( n ) + " width=" + std::to_string( lanes_of( width ) );
      const auto report = verify_against_aig_exhaustive_budgeted( circuit, aig, deadline{}, width );
      ASSERT_TRUE( report.counterexample.has_value() ) << context;
      EXPECT_EQ( *report.counterexample, std::vector<bool>( n, true ) ) << context;
      EXPECT_EQ( report.assignments_completed, std::uint64_t{ 1 } << n ) << context;
      EXPECT_TRUE( report.complete ) << context;
    }

    // And the dual: a circuit wrong everywhere fails on column 0 with
    // exactly one assignment counted, at every width.
    auto everywhere = circuit;
    everywhere.add_not( n ); // constant 1 vs AND: differs on all but all-one
    for ( const auto width : all_widths )
    {
      const auto context =
          "n=" + std::to_string( n ) + " width=" + std::to_string( lanes_of( width ) );
      const auto report =
          verify_against_aig_exhaustive_budgeted( everywhere, aig, deadline{}, width );
      ASSERT_TRUE( report.counterexample.has_value() ) << context;
      EXPECT_EQ( *report.counterexample, std::vector<bool>( n, false ) ) << context;
      EXPECT_EQ( report.assignments_completed, 1u ) << context;
    }
  }
}

TEST( verify_wide, sampled_reports_match_oracle_at_every_width )
{
  std::mt19937_64 rng( 239 );
  const unsigned num_inputs = 13; // 2^13 > every budget below: genuine sampling
  const auto circuit = random_circuit( rng, num_inputs + 3u, 35u, num_inputs );
  const auto spec = circuit_to_aig( circuit );
  const auto corrupted = corrupt_first_output( circuit );
  const auto late = corrupt_late( circuit );

  for ( const unsigned num_samples : { 5u, 70u, 250u, 512u } )
  {
    for ( const std::uint64_t seed : { 1u, 42u } )
    {
      const auto pass_oracle = scalar_sampled_report( circuit, spec, num_samples, seed );
      const auto fail_oracle = scalar_sampled_report( corrupted, spec, num_samples, seed );
      ASSERT_TRUE( fail_oracle.counterexample.has_value() ) << num_samples;
      const auto late_oracle = scalar_sampled_report( late, spec, num_samples, seed );
      for ( const auto width : all_widths )
      {
        const auto context = "samples=" + std::to_string( num_samples ) +
                             " seed=" + std::to_string( seed ) +
                             " width=" + std::to_string( lanes_of( width ) );
        expect_report_equal( verify_against_aig_sampled_budgeted( circuit, spec, deadline{},
                                                                  num_samples, seed, width ),
                             pass_oracle, "pass " + context );
        expect_report_equal( verify_against_aig_sampled_budgeted( corrupted, spec, deadline{},
                                                                  num_samples, seed, width ),
                             fail_oracle, "fail " + context );
        expect_report_equal( verify_against_aig_sampled_budgeted( late, spec, deadline{},
                                                                  num_samples, seed, width ),
                             late_oracle, "late " + context );
      }
    }
  }
}

TEST( verify_wide, sampled_accounting_is_exact_for_non_lane_aligned_requests )
{
  // Regression: a batched sampler must count per assignment, never round up
  // to lane-group granularity.  num_samples + 2 (the two pinned extremes)
  // lands off every lane boundary here — 7, 72, and 252 patterns — and the
  // completed count must equal the request exactly at every width,
  // including the widths whose group (256 or 512 lanes) exceeds the whole
  // request.
  std::mt19937_64 rng( 241 );
  const unsigned num_inputs = 12;
  const auto circuit = random_circuit( rng, num_inputs + 2u, 25u, num_inputs );
  const auto spec = circuit_to_aig( circuit );
  for ( const unsigned num_samples : { 5u, 70u, 250u } )
  {
    const std::uint64_t total = std::uint64_t{ num_samples } + 2u;
    for ( const auto width : all_widths )
    {
      const auto report = verify_against_aig_sampled_budgeted( circuit, spec, deadline{},
                                                               num_samples, 17u, width );
      const auto context = "samples=" + std::to_string( num_samples ) +
                           " width=" + std::to_string( lanes_of( width ) );
      EXPECT_FALSE( report.counterexample.has_value() ) << context;
      EXPECT_TRUE( report.complete ) << context;
      EXPECT_EQ( report.assignments_requested, total ) << context;
      EXPECT_EQ( report.assignments_completed, total ) << context;
    }
  }
}

TEST( verify_wide, active_backend_is_reported_and_consistent )
{
  // Smoke contract of the dispatcher: w64 always runs portably; wider
  // groups report whichever backend the build + CPU support, and the name
  // round-trips.  (The verdict identity across backends is enforced by the
  // cross-build gate in run_bench.sh — within one binary the differential
  // tests above already ran the dispatched kernels.)
  EXPECT_EQ( active_simd_backend( sim_width::w64 ), simd_backend::portable );
  for ( const auto width : all_widths )
  {
    const auto backend = active_simd_backend( width );
    EXPECT_TRUE( simd_backend_compiled( backend ) );
    EXPECT_NE( std::string( simd_backend_name( backend ) ), "" );
  }
}
