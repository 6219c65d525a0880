/// \file bench_verify.cpp
/// \brief Benchmark of the verification engine: the scalar seed path (one
/// `std::vector<bool>` assignment at a time) against the bit-parallel wide
/// engine, plus the SAT tier, on exhaustive verification of the
/// INTDIV/NEWTON designs.
///
/// For every (design, bitwidth, flow) case the benchmark runs exhaustive
/// circuit-vs-AIG verification three ways — scalar enumeration, the wide
/// engine at its 64-lane width (`w64_ms`, one 64-bit word per line), and
/// the SAT tier — and times the SAT tier two ways: the monolithic
/// one-miter-per-call reference engine (`sat::check_equivalence`), and the
/// tier as the product runs it (`sat_ms`: `verify_against_aig_sat_budgeted`
/// on a fresh engine, which proves these 7- and 8-input designs by one
/// exhaustive pass of the wide engine).  All tiers and both SAT paths must
/// accept the correct circuit and reject a deliberately corrupted copy with
/// a *real* counterexample, and the scalar and wide counterexamples must be
/// bit-identical.
///
/// Per case it also times the wide engine at the width the DSE exhaustive
/// tier picks (`wide_ms`, informational), its sustained per-word cost at
/// w512 against the same engine at w64 (`width_speedup`, the >= 4x metric
/// scripts/run_bench.sh gates on).  Every case replays a mixed pass/fail
/// candidate set at widths 64/256/512, one call per candidate, and requires
/// reports bit-identical to the scalar enumeration's (`widths_agree`), and
/// records the corrupted-circuit counterexample as a
/// bit string (`cex`) so run_bench.sh can diff verdicts between the AVX
/// and portable builds.
///
/// Schema v4 re-pinned the simulation metrics on the one remaining engine:
/// `w64_ms` and `w64_word_us` replaced the fields that timed the deleted
/// 64-bit block simulator.  Schema v5 drops the informational frontier
/// batch timings (`frontier_*`, `min_frontier_speedup`, `frontier_k`)
/// together with the batched verification API they measured.  Schema v6
/// re-points `sat_ms` from a bare `incremental_cec::check` on a
/// pre-extracted AIG to the SAT-tier entry point, and drops `sat_warm_ms`:
/// a narrow check keeps no engine state, so a warm run equals a cold one.
///
/// It writes BENCH_verify.json (see docs/ARCHITECTURE.md) with per-case
/// wall clocks and the w64-vs-scalar / SAT-tier-vs-monolithic /
/// w512-vs-w64 speedups so every future PR can extend the
/// perf trajectory (scripts/run_bench.sh gates on it).
///
/// Usage: bench_verify [--out FILE] [--quick] [--sim-only]
///   --sim-only skips the SAT tier entirely (timings and verdicts); it is
///   what run_bench.sh uses for the portable-build verdict-identity pass,
///   where only the simulation tiers are SIMD-relevant.

#include <algorithm>
#include <limits>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/flows.hpp"
#include "reversible/verify.hpp"
#include "sat/cnf.hpp"
#include "sat/incremental.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

namespace
{

using namespace qsyn;

/// The seed's scalar exhaustive check: one heap-allocated assignment and
/// one full AIG + circuit evaluation per input vector.  Kept here as the
/// reference the wide engine is measured (and bit-compared) against.
std::optional<std::vector<bool>> scalar_exhaustive( const reversible_circuit& circuit,
                                                    const aig_network& aig )
{
  const auto num_pis = aig.num_pis();
  for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << num_pis ); ++x )
  {
    std::vector<bool> inputs( num_pis );
    for ( unsigned i = 0; i < num_pis; ++i )
    {
      inputs[i] = ( x >> i ) & 1u;
    }
    if ( aig.evaluate( inputs ) != evaluate_circuit( circuit, inputs ) )
    {
      return inputs;
    }
  }
  return std::nullopt;
}

/// Runs `fn` repeatedly until `window_s` of wall clock accumulates (at
/// least once) and returns the average milliseconds per run.  The default
/// 0.5 s window keeps the sub-millisecond timings stable enough for the
/// regression gate in scripts/run_bench.sh.
template<typename Fn>
double time_ms( Fn&& fn, double window_s = 0.5 )
{
  stopwatch watch;
  unsigned reps = 0;
  double elapsed = 0.0;
  do
  {
    fn();
    ++reps;
    elapsed = watch.elapsed_seconds();
  } while ( elapsed < window_s && reps < 100000u );
  return elapsed * 1000.0 / reps;
}

/// Interleaved rounds of the per-word throughput measurement and the
/// window of each timed side.  A transient load spike during one side's
/// window would otherwise skew the ratio; the min over alternating rounds
/// is each width's unperturbed cost.  On a shared 4-core VM best-of-25
/// held the per-case minimum at 4.3-4.8x over six runs.
constexpr int width_rounds = 25;
constexpr double width_window_s = 0.1;

struct case_result
{
  std::string name;
  unsigned pis = 0;
  unsigned lines = 0;
  std::size_t gates = 0;
  double scalar_ms = 0.0;
  double w64_ms = 0.0;       ///< wide engine at w64, single candidate
  double speedup = 0.0;      ///< w64 vs scalar
  double wide_ms = 0.0;      ///< wide single-candidate pass at the DSE default width
  double wide_speedup = 0.0; ///< w64 vs the DSE default width, single candidate
  double w64_word_us = 0.0;  ///< sustained w64 cost per 64-assignment word
  double wide_word_us = 0.0; ///< sustained w512 cost per word
  double width_speedup = 0.0; ///< per-word throughput, w512 vs w64 (the >=4x gate)
  std::string simd_backend;  ///< kernel backend active at the case's width
  std::string cex;           ///< corrupted-circuit counterexample, bit i = input i
  double sat_mono_ms = 0.0;  ///< monolithic reference (sat::check_equivalence)
  double sat_ms = 0.0;       ///< SAT-tier entry point on a fresh engine
  double sat_speedup = 0.0;  ///< monolithic vs the SAT tier
  bool tiers_agree = true;      ///< all tiers accept the correct circuit,
                                ///< scalar == wide bit-for-bit
  bool corrupt_rejected = true; ///< all tiers reject the corrupted circuit
  bool widths_agree = true;     ///< reports at w64/w256/w512 bit-identical
                                ///< to the per-candidate scalar enumeration
};

std::string cex_string( const std::optional<std::vector<bool>>& cex )
{
  if ( !cex )
  {
    return "none";
  }
  std::string s;
  s.reserve( cex->size() );
  for ( const auto bit : *cex )
  {
    s.push_back( bit ? '1' : '0' );
  }
  return s;
}

/// One width's persistent engines for the per-word throughput
/// measurement: each call simulates one lane group of the spec and the
/// circuit, the inner step of an exhaustive pass.
struct word_pass
{
  wide_simulator sim;
  wide_aig_simulator spec;
  std::vector<std::uint64_t> words;

  word_pass( const reversible_circuit& circuit, const aig_network& aig, sim_width width )
      : sim( circuit, width ), spec( aig, width ),
        words( std::size_t{ aig.num_pis() } * words_of( width ), 0u )
  {
  }

  std::uint64_t operator()()
  {
    const auto& spec_out = spec.evaluate( words );
    const auto& out = sim.evaluate( words );
    return out.front() + spec_out.front();
  }
};

/// `scalar_exhaustive` as a coverage-accounted report: the independent
/// oracle of the wide engine's per-width reports.
partial_verify_report scalar_report( const reversible_circuit& circuit, const aig_network& aig )
{
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ 1 } << aig.num_pis();
  report.counterexample = scalar_exhaustive( circuit, aig );
  report.assignments_completed = report.assignments_requested;
  if ( report.counterexample )
  {
    report.assignments_completed = 1u;
    for ( unsigned i = 0; i < aig.num_pis(); ++i )
    {
      report.assignments_completed += std::uint64_t{ ( *report.counterexample )[i] } << i;
    }
  }
  return report;
}

bool reports_equal( const partial_verify_report& a, const partial_verify_report& b )
{
  return a.counterexample == b.counterexample &&
         a.assignments_requested == b.assignments_requested &&
         a.assignments_completed == b.assignments_completed && a.complete == b.complete;
}

case_result run_case( reciprocal_design design, unsigned n, flow_kind kind, bool sim_only )
{
  case_result r;
  r.name = std::string( design == reciprocal_design::intdiv ? "intdiv" : "newton" ) + "-n" +
           std::to_string( n ) + ( kind == flow_kind::esop_based ? "-esop" : "-hier" );

  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
  flow_params params;
  params.kind = kind;
  params.verify = false;
  const auto flow = run_flow_on_aig( mod.aig, params );
  const auto spec = optimize( mod.aig, params.optimization_rounds );
  const auto& circuit = flow.circuit;
  r.pis = spec.num_pis();
  r.lines = circuit.num_lines();
  r.gates = circuit.num_gates();

  // --- correct circuit: every tier must accept -------------------------------
  const auto scalar_cex = scalar_exhaustive( circuit, spec );
  const auto wide_cex = verify_against_aig_exhaustive( circuit, spec );

  // SAT tier, two ways.  Monolithic reference: fresh solver + one global
  // miter per call on a precomputed impl AIG (sat/cnf.hpp).  The tier
  // itself: the product's entry point on a fresh engine, so whatever path
  // it takes for this design (extraction included) is inside the scope.
  bool mono_ok = true;
  bool sat_ok = true;
  if ( !sim_only )
  {
    const auto impl = circuit_to_aig( circuit );
    r.sat_mono_ms = time_ms( [&] { mono_ok = sat::check_equivalence( spec, impl ).equivalent; } );
    r.sat_ms = time_ms( [&] {
      sat::incremental_cec engine;
      sat_ok = verify_against_aig_sat_budgeted( circuit, spec, engine, sat::check_limits{} )
                   .equivalent;
    } );
    r.sat_speedup = r.sat_ms > 0.0 ? r.sat_mono_ms / r.sat_ms : 0.0;
  }
  r.tiers_agree = !scalar_cex && !wide_cex && sat_ok && mono_ok;

  r.scalar_ms = time_ms( [&] { (void)scalar_exhaustive( circuit, spec ); } );
  r.w64_ms = time_ms( [&] {
    (void)verify_against_aig_exhaustive_budgeted( circuit, spec, deadline{}, sim_width::w64 );
  } );
  r.speedup = r.w64_ms > 0.0 ? r.scalar_ms / r.w64_ms : 0.0;

  // --- the SIMD-wide engine -------------------------------------------------
  // Width as the DSE exhaustive tier picks it for this input space; w64
  // always runs the portable scalar kernels, so n <= 6 cases would measure
  // engine layout, not SIMD width.
  const auto width = auto_sim_width( std::uint64_t{ 1 } << r.pis );
  r.simd_backend = simd_backend_name( active_simd_backend( width ) );
  r.wide_ms = time_ms(
      [&] { (void)verify_against_aig_exhaustive_budgeted( circuit, spec, deadline{}, width ); } );
  r.wide_speedup = r.wide_ms > 0.0 ? r.w64_ms / r.wide_ms : 0.0;

  // Sustained per-word verification throughput, the gated width-scaling
  // metric: the same engine at w512 vs w64, persistent engines
  // (construction amortized away, as in a long sweep), spec walk included
  // on both sides, cost divided by the words a pass settles.  Per-word is
  // the width-scaling measure: at n=7 a 512-lane group wraps the
  // 128-assignment space, so whole-case wall clocks (wide_ms) can gain
  // at most 2x there — the full-width gain
  // materializes whenever a group is filled (n >= 9 spaces, sampled tiers,
  // fraig signatures).
  {
    volatile std::uint64_t sink = 0;
    word_pass narrow( circuit, spec, sim_width::w64 );
    word_pass group( circuit, spec, sim_width::w512 );
    auto narrow_ms = std::numeric_limits<double>::infinity();
    auto group_ms = std::numeric_limits<double>::infinity();
    for ( int round = 0; round < width_rounds; ++round )
    {
      narrow_ms = std::min( narrow_ms, time_ms( [&] { sink = sink + narrow(); }, width_window_s ) );
      group_ms = std::min( group_ms, time_ms( [&] { sink = sink + group(); }, width_window_s ) );
    }
    r.w64_word_us = narrow_ms * 1000.0;
    r.wide_word_us = group_ms * 1000.0 / static_cast<double>( words_of( sim_width::w512 ) );
    r.width_speedup = r.wide_word_us > 0.0 ? r.w64_word_us / r.wide_word_us : 0.0;
  }

  // --- corrupted circuit: every tier must reject, scalar == wide -------------
  const auto corrupted = corrupt_circuit( circuit, spec );
  const auto scalar_bad = scalar_exhaustive( corrupted, spec );
  const auto wide_bad = verify_against_aig_exhaustive( corrupted, spec );
  r.corrupt_rejected = scalar_bad.has_value() && wide_bad.has_value();
  // Scalar and wide enumerate in the same order: identical counterexample.
  r.tiers_agree = r.tiers_agree && scalar_bad == wide_bad;
  r.cex = cex_string( wide_bad );
  if ( !sim_only )
  {
    const auto sat_bad = verify_against_aig_sat( corrupted, spec );
    const auto mono_bad = sat::check_equivalence( spec, circuit_to_aig( corrupted ) );
    r.corrupt_rejected = r.corrupt_rejected && sat_bad.has_value() && !mono_bad.equivalent;
    // Both SAT counterexamples must be real (the monolithic one is
    // solver-dependent, the tier's reports its lowest failing output).
    if ( sat_bad )
    {
      r.corrupt_rejected = r.corrupt_rejected &&
                           evaluate_circuit( corrupted, *sat_bad ) != spec.evaluate( *sat_bad );
    }
    if ( mono_bad.counterexample )
    {
      r.corrupt_rejected = r.corrupt_rejected &&
                           evaluate_circuit( corrupted, *mono_bad.counterexample ) !=
                               spec.evaluate( *mono_bad.counterexample );
    }
  }

  // --- per-width bit-identity on a mixed pass/fail candidate set -------------
  // Candidates failing at different columns (the NOT flips every column,
  // the 3-control MCT only fires from column 7 on) pin the
  // first-counterexample contract and the per-assignment accounting
  // against the scalar enumeration at every width.
  auto flip_first = circuit;
  flip_first.add_not( output_lines_of( circuit ).front() );
  auto flip_late = circuit;
  {
    const auto ins = input_lines_of( circuit );
    const control_list controls = { { ins[0], true }, { ins[1], true }, { ins[2], true } };
    auto target = output_lines_of( circuit ).front();
    for ( const auto line : output_lines_of( circuit ) )
    {
      if ( line != ins[0] && line != ins[1] && line != ins[2] )
      {
        target = line;
        break;
      }
    }
    flip_late.add_mct( controls, target );
  }
  const std::vector<const reversible_circuit*> mixed = { &circuit, &flip_first, &flip_late,
                                                         &corrupted };
  std::vector<partial_verify_report> oracle;
  oracle.reserve( mixed.size() );
  for ( const auto* candidate : mixed )
  {
    oracle.push_back( scalar_report( *candidate, spec ) );
  }
  for ( const auto w : { sim_width::w64, sim_width::w256, sim_width::w512 } )
  {
    for ( std::size_t c = 0; c < mixed.size(); ++c )
    {
      r.widths_agree =
          r.widths_agree &&
          reports_equal( verify_against_aig_exhaustive_budgeted( *mixed[c], spec, deadline{}, w ),
                         oracle[c] );
    }
  }

  std::printf( "%-16s pis %2u  gates %6zu | scalar %9.3f ms | w64 %8.4f ms (%6.1fx) | "
               "word %8.3f -> %7.3f us (%4.1fx, %s) | wide %8.4f ms (%4.1fx) | "
               "sat mono %8.2f ms  tier %7.3f ms (%6.1fx) | %s%s%s\n",
               r.name.c_str(), r.pis, r.gates, r.scalar_ms, r.w64_ms, r.speedup,
               r.w64_word_us, r.wide_word_us, r.width_speedup, r.simd_backend.c_str(),
               r.wide_ms, r.wide_speedup, r.sat_mono_ms, r.sat_ms, r.sat_speedup,
               r.tiers_agree ? "agree" : "TIERS DIVERGED",
               r.corrupt_rejected ? "" : ", CORRUPTION MISSED",
               r.widths_agree ? "" : ", WIDTHS DIVERGED" );
  return r;
}

void write_json( const char* path, const std::vector<case_result>& cases, bool sim_only )
{
  bool all_agree = true;
  bool widths_agree = true;
  double min_speedup = 0.0;
  double min_sat_speedup = 0.0;
  double min_wide_speedup = 0.0;
  double min_width_speedup = 0.0;
  for ( const auto& c : cases )
  {
    all_agree = all_agree && c.tiers_agree && c.corrupt_rejected && c.widths_agree;
    widths_agree = widths_agree && c.widths_agree;
    min_speedup = min_speedup == 0.0 ? c.speedup : std::min( min_speedup, c.speedup );
    min_sat_speedup =
        min_sat_speedup == 0.0 ? c.sat_speedup : std::min( min_sat_speedup, c.sat_speedup );
    min_wide_speedup =
        min_wide_speedup == 0.0 ? c.wide_speedup : std::min( min_wide_speedup, c.wide_speedup );
    min_width_speedup =
        min_width_speedup == 0.0 ? c.width_speedup : std::min( min_width_speedup, c.width_speedup );
  }
  FILE* f = std::fopen( path, "w" );
  if ( !f )
  {
    std::fprintf( stderr, "cannot open %s for writing\n", path );
    std::exit( 1 );
  }
  std::fprintf( f, "{\n  \"bench\": \"verify\",\n  \"schema_version\": 6,\n" );
  std::fprintf( f, "  \"sim_only\": %s,\n", sim_only ? "true" : "false" );
  std::fprintf( f, "  \"simd_backend\": \"%s\",\n",
                simd_backend_name( active_simd_backend( sim_width::w512 ) ) );
  std::fprintf( f, "  \"all_agree\": %s,\n", all_agree ? "true" : "false" );
  std::fprintf( f, "  \"widths_agree\": %s,\n", widths_agree ? "true" : "false" );
  std::fprintf( f, "  \"min_speedup\": %.1f,\n", min_speedup );
  std::fprintf( f, "  \"min_sat_speedup\": %.1f,\n", min_sat_speedup );
  std::fprintf( f, "  \"min_wide_speedup\": %.1f,\n", min_wide_speedup );
  // Two decimals: the run_bench.sh floors compare these values, and one
  // decimal would round a failing 3.46 into a passing 3.5.
  std::fprintf( f, "  \"min_width_speedup\": %.2f,\n", min_width_speedup );
  std::fprintf( f, "  \"width_rounds\": %d,\n", width_rounds );
  std::fprintf( f, "  \"cases\": [\n" );
  for ( std::size_t i = 0; i < cases.size(); ++i )
  {
    const auto& c = cases[i];
    std::fprintf( f, "    {\n" );
    std::fprintf( f, "      \"name\": \"%s\",\n", c.name.c_str() );
    std::fprintf( f, "      \"pis\": %u,\n", c.pis );
    std::fprintf( f, "      \"lines\": %u,\n", c.lines );
    std::fprintf( f, "      \"gates\": %zu,\n", c.gates );
    std::fprintf( f, "      \"scalar_ms\": %.4f,\n", c.scalar_ms );
    std::fprintf( f, "      \"w64_ms\": %.4f,\n", c.w64_ms );
    std::fprintf( f, "      \"speedup\": %.1f,\n", c.speedup );
    std::fprintf( f, "      \"wide_ms\": %.4f,\n", c.wide_ms );
    std::fprintf( f, "      \"wide_speedup\": %.1f,\n", c.wide_speedup );
    std::fprintf( f, "      \"w64_word_us\": %.4f,\n", c.w64_word_us );
    std::fprintf( f, "      \"wide_word_us\": %.4f,\n", c.wide_word_us );
    std::fprintf( f, "      \"width_speedup\": %.2f,\n", c.width_speedup );
    std::fprintf( f, "      \"simd_backend\": \"%s\",\n", c.simd_backend.c_str() );
    std::fprintf( f, "      \"cex\": \"%s\",\n", c.cex.c_str() );
    std::fprintf( f, "      \"sat_mono_ms\": %.2f,\n", c.sat_mono_ms );
    std::fprintf( f, "      \"sat_ms\": %.4f,\n", c.sat_ms );
    std::fprintf( f, "      \"sat_speedup\": %.1f,\n", c.sat_speedup );
    std::fprintf( f, "      \"tiers_agree\": %s,\n", c.tiers_agree ? "true" : "false" );
    std::fprintf( f, "      \"corrupt_rejected\": %s,\n", c.corrupt_rejected ? "true" : "false" );
    std::fprintf( f, "      \"widths_agree\": %s\n", c.widths_agree ? "true" : "false" );
    std::fprintf( f, "    }%s\n", i + 1 < cases.size() ? "," : "" );
  }
  std::fprintf( f, "  ]\n}\n" );
  std::fclose( f );
}

} // namespace

int main( int argc, char** argv )
{
  const char* out_path = "BENCH_verify.json";
  bool quick = false;
  bool sim_only = false;
  for ( int i = 1; i < argc; ++i )
  {
    if ( std::strcmp( argv[i], "--out" ) == 0 && i + 1 < argc )
    {
      out_path = argv[++i];
    }
    else if ( std::strcmp( argv[i], "--quick" ) == 0 )
    {
      quick = true;
    }
    else if ( std::strcmp( argv[i], "--sim-only" ) == 0 )
    {
      sim_only = true;
    }
  }

  std::vector<case_result> cases;
  const unsigned max_n = quick ? 7u : 8u;
  for ( unsigned n = 7u; n <= max_n; ++n )
  {
    for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
    {
      for ( const auto kind : { flow_kind::esop_based, flow_kind::hierarchical } )
      {
        cases.push_back( run_case( design, n, kind, sim_only ) );
      }
    }
  }

  write_json( out_path, cases, sim_only );
  std::printf( "\nwrote %s\n", out_path );

  bool ok = true;
  for ( const auto& c : cases )
  {
    ok = ok && c.tiers_agree && c.corrupt_rejected && c.widths_agree;
  }
  return ok ? 0 : 1;
}
