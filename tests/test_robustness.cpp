/// Robustness suite: budgets, cooperative cancellation, verify-tier
/// degradation, per-design failure isolation, and deterministic fault
/// injection.  The central invariants:
///
///   * unlimited budgets are bit-identical to the unbudgeted engine,
///   * anytime kernels (EXORCISM, sampling) stop gracefully with honest
///     partial-result accounting; kernels without a partial result (TBS,
///     a mid-flight CDCL search) report `budget_exhausted` / `unknown`,
///   * one failing or hanging configuration/design never takes down a
///     sweep — it becomes a status record, everything else is unaffected.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/dse.hpp"
#include "reversible/verify.hpp"
#include "rsynth/tbs.hpp"
#include "sat/incremental.hpp"
#include "sat/solver.hpp"
#include "synth/exorcism.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/parser.hpp"

using namespace qsyn;

namespace
{

/// A deadline that is already expired, without any wall-clock sleeping.
deadline expired_deadline()
{
  cancellation_token token;
  token.request_cancel();
  return deadline::with_token( token );
}

/// XOR spec plus a correct CNOT-CNOT realization of it, the minimal
/// fixture for the verification tiers.
struct xor_fixture
{
  aig_network aig{ 2 };
  reversible_circuit circuit{ 3 };

  xor_fixture()
  {
    aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );
    circuit.line( 0 ).is_primary_input = true;
    circuit.line( 1 ).is_primary_input = true;
    circuit.line( 2 ).is_constant_input = true;
    circuit.line( 2 ).output_index = 0;
    circuit.line( 2 ).is_garbage = false;
    circuit.add_cnot( 0, 2 );
    circuit.add_cnot( 1, 2 );
  }
};

std::string tiny_xor_verilog()
{
  return "module f(a, b, y);\n"
         "  input a, b;\n"
         "  output y;\n"
         "  assign y = a ^ b;\n"
         "endmodule\n";
}

/// RAII disarm so an assertion failure cannot leak an armed site into
/// later tests.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

bool costs_equal( const dse_point& a, const dse_point& b )
{
  return a.label == b.label && a.result.costs.qubits == b.result.costs.qubits &&
         a.result.costs.t_count == b.result.costs.t_count &&
         a.result.costs.gates == b.result.costs.gates;
}

} // namespace

// --- deadline / cancellation primitives --------------------------------------

TEST( robustness_deadline, default_is_unlimited_and_never_expires )
{
  const deadline d;
  EXPECT_TRUE( d.unlimited() );
  EXPECT_FALSE( d.expired() );
  EXPECT_GT( d.remaining_seconds(), 1e12 );
}

TEST( robustness_deadline, nonpositive_seconds_mean_unlimited )
{
  EXPECT_TRUE( deadline::in( 0.0 ).unlimited() );
  EXPECT_TRUE( deadline::in( -1.0 ).unlimited() );
  EXPECT_FALSE( deadline::in( 3600.0 ).unlimited() );
  EXPECT_FALSE( deadline::in( 3600.0 ).expired() );
}

TEST( robustness_deadline, cancellation_token_expires_every_copy )
{
  cancellation_token token;
  const auto d = deadline::in( 3600.0, token );
  const auto copy = d;
  EXPECT_FALSE( d.expired() );
  token.request_cancel();
  EXPECT_TRUE( d.expired() );
  EXPECT_TRUE( copy.expired() );
  EXPECT_EQ( d.remaining_seconds(), 0.0 );
}

TEST( robustness_deadline, tightened_takes_the_tighter_limit )
{
  const auto loose = deadline::in( 3600.0 );
  const auto tight = loose.tightened( 0.5 );
  EXPECT_LT( tight.remaining_seconds(), 1.0 );
  // Tightening with a looser limit keeps the original.
  const auto kept = tight.tightened( 3600.0 );
  EXPECT_LT( kept.remaining_seconds(), 1.0 );
  // Nonpositive seconds leave the deadline unchanged (still unlimited here).
  EXPECT_TRUE( deadline{}.tightened( 0.0 ).unlimited() );
  EXPECT_FALSE( deadline{}.tightened( 1.0 ).unlimited() );
}

TEST( robustness_deadline, out_of_range_seconds_saturate_to_unlimited )
{
  // Regression: `in` and `tightened` converted seconds into the clock's
  // int64 tick count unchecked — undefined behaviour from ~9.2e9 s on, and
  // in practice a deadline that had already expired — and `tightened( NaN )`
  // expired at once because `NaN <= 0` is false.  A limit too long for the
  // clock means no limit; so does NaN.
  const auto inf = std::numeric_limits<double>::infinity();
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  for ( const double seconds : { 1e10, 1e300, inf, nan } )
  {
    SCOPED_TRACE( testing::Message() << "seconds=" << seconds );
    EXPECT_TRUE( deadline::in( seconds ).unlimited() );
    EXPECT_FALSE( deadline::in( seconds ).expired() );
    EXPECT_TRUE( deadline{}.tightened( seconds ).unlimited() );
    EXPECT_FALSE( deadline{}.tightened( seconds ).expired() );
    // A finite deadline keeps its own limit.
    const auto hour = deadline::in( 3600.0 ).tightened( seconds );
    EXPECT_FALSE( hour.expired() );
    EXPECT_GT( hour.remaining_seconds(), 3500.0 );
    EXPECT_LE( hour.remaining_seconds(), 3600.0 );
  }
}

// --- thread pool: full exception collection + cancellation -------------------

TEST( robustness_pool, wait_all_collects_every_exception_of_a_batch )
{
  thread_pool pool( 4 );
  std::atomic<int> ran{ 0 };
  for ( int i = 0; i < 8; ++i )
  {
    pool.submit( [&ran, i] {
      ran.fetch_add( 1 );
      if ( i % 2 == 0 )
      {
        throw std::runtime_error( "job " + std::to_string( i ) );
      }
    } );
  }
  const auto errors = pool.wait_all();
  EXPECT_EQ( ran.load(), 8 );
  ASSERT_EQ( errors.size(), 4u ); // every failure, not just the first
  for ( const auto& error : errors )
  {
    EXPECT_THROW( std::rethrow_exception( error ), std::runtime_error );
  }
  // The batch is cleared: a fresh wait has nothing to report.
  EXPECT_TRUE( pool.wait_all().empty() );
}

TEST( robustness_pool, inline_pool_collects_every_exception_too )
{
  thread_pool pool( 1 );
  for ( int i = 0; i < 3; ++i )
  {
    pool.submit( [] { throw std::runtime_error( "inline boom" ); } );
  }
  EXPECT_EQ( pool.wait_all().size(), 3u );
}

TEST( robustness_pool, cancellation_token_reaches_job_deadlines )
{
  thread_pool pool( 2 );
  EXPECT_FALSE( pool.cancelled() );
  const auto job_deadline = deadline::with_token( pool.cancellation() );
  EXPECT_FALSE( job_deadline.expired() );
  pool.cancel();
  EXPECT_TRUE( pool.cancelled() );
  EXPECT_TRUE( job_deadline.expired() );
}

// --- SAT solver: cooperative deadline ----------------------------------------

TEST( robustness_solver, expired_deadline_returns_unknown )
{
  sat::solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause( { sat::pos_lit( a ), sat::pos_lit( b ) } );
  s.set_deadline( expired_deadline() );
  EXPECT_EQ( s.solve(), sat::result::unknown );
  // Clearing the deadline restores the verdict.
  s.set_deadline( deadline{} );
  EXPECT_EQ( s.solve(), sat::result::satisfiable );
}

// --- incremental CEC: unresolved outcomes instead of asserts -----------------

TEST( robustness_incremental, budget_exhaustion_reports_unresolved )
{
  // Functionally equal, structurally different XORs, with the window proof
  // disabled so only the solver could settle the miter.
  aig_network a( 2 );
  a.add_po( a.create_xor( a.pi( 0 ), a.pi( 1 ) ) );
  // (a & !b) | (!a & b): shares no AND node with create_xor's
  // !(a & b) & !(!a & !b) decomposition, so structural hashing cannot
  // merge the two outputs.
  aig_network b( 2 );
  b.add_po( b.create_or( b.create_and( b.pi( 0 ), lit_not( b.pi( 1 ) ) ),
                         b.create_and( lit_not( b.pi( 0 ) ), b.pi( 1 ) ) ) );

  sat::cec_options options;
  options.fraiging = false;
  options.fraig_window_depth = 0;    // no per-output window hint either
  options.fraig_window_nodes = 0;
  sat::incremental_cec engine( options );

  sat::check_limits limits;
  limits.stop = expired_deadline();
  const auto outcome = engine.check( a, b, limits );
  EXPECT_FALSE( outcome.resolved );

  // The same engine resolves the pair once the limits are lifted.
  const auto settled = engine.check( a, b );
  EXPECT_TRUE( settled.resolved );
  EXPECT_TRUE( settled.equivalent );
}

// --- TBS: no partial result, so expiry throws --------------------------------

TEST( robustness_tbs, expired_deadline_throws_budget_exhausted )
{
  std::vector<std::uint64_t> perm( 8 );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    perm[i] = i ^ 5u; // any nontrivial permutation
  }
  tbs_params params;
  params.stop = expired_deadline();
  EXPECT_THROW( tbs_synthesize( perm, params ), budget_exhausted );
  // Unlimited deadline: same call succeeds.
  EXPECT_NO_THROW( tbs_synthesize( perm, tbs_params{} ) );
}

// --- EXORCISM: anytime, graceful stop ----------------------------------------

TEST( robustness_exorcism, pair_budget_stops_gracefully_and_preserves_function )
{
  std::mt19937_64 rng( 7 );
  esop expression;
  expression.num_inputs = 6;
  expression.num_outputs = 2;
  for ( int t = 0; t < 24; ++t )
  {
    const std::uint64_t mask = rng() & 0x3Fu;
    expression.terms.push_back( { cube{ mask, rng() & mask }, 1u + ( rng() & 1u ) } );
  }
  const auto reference = expression;

  exorcism_params params;
  params.pair_budget = 1;
  auto limited = expression;
  const auto stats = exorcism( limited, params );
  EXPECT_TRUE( stats.budget_exhausted );
  EXPECT_LE( stats.pairs_attempted, params.pair_budget + 1 );
  for ( unsigned output = 0; output < reference.num_outputs; ++output )
  {
    for ( std::uint64_t input = 0; input < ( 1u << reference.num_inputs ); ++input )
    {
      ASSERT_EQ( limited.evaluate( input, output ), reference.evaluate( input, output ) );
    }
  }
}

TEST( robustness_exorcism, expired_deadline_stops_on_the_first_attempt )
{
  std::mt19937_64 rng( 11 );
  esop expression;
  expression.num_inputs = 5;
  expression.num_outputs = 1;
  for ( int t = 0; t < 16; ++t )
  {
    const std::uint64_t mask = rng() & 0x1Fu;
    expression.terms.push_back( { cube{ mask, rng() & mask }, 1u } );
  }
  exorcism_params params;
  params.stop = expired_deadline();
  const auto stats = exorcism( expression, params );
  EXPECT_TRUE( stats.budget_exhausted );
}

TEST( robustness_exorcism, unlimited_params_match_the_plain_overload )
{
  std::mt19937_64 rng( 13 );
  esop a;
  a.num_inputs = 6;
  a.num_outputs = 2;
  for ( int t = 0; t < 20; ++t )
  {
    const std::uint64_t mask = rng() & 0x3Fu;
    a.terms.push_back( { cube{ mask, rng() & mask }, 1u + ( rng() & 1u ) } );
  }
  auto b = a;
  const auto plain = exorcism( a );
  const auto limited = exorcism( b, exorcism_params{} );
  EXPECT_FALSE( limited.budget_exhausted );
  EXPECT_EQ( plain.final_terms, limited.final_terms );
  EXPECT_EQ( plain.final_literals, limited.final_literals );
  EXPECT_EQ( a.terms.size(), b.terms.size() );
}

// --- budgeted simulation tiers: honest partial coverage ----------------------

TEST( robustness_verify, expired_deadline_yields_partial_report_with_zero_coverage )
{
  const xor_fixture fx;
  const auto report = verify_against_aig_sampled_budgeted( fx.circuit, fx.aig,
                                                           expired_deadline() );
  EXPECT_FALSE( report.complete );
  EXPECT_EQ( report.assignments_completed, 0u );
  EXPECT_GT( report.assignments_requested, 0u );
  EXPECT_FALSE( report.counterexample.has_value() );
}

TEST( robustness_verify, unlimited_deadline_matches_the_unbudgeted_tiers )
{
  const xor_fixture fx;
  const auto sampled = verify_against_aig_sampled_budgeted( fx.circuit, fx.aig, deadline{} );
  EXPECT_TRUE( sampled.complete );
  EXPECT_EQ( sampled.assignments_completed, sampled.assignments_requested );
  EXPECT_FALSE( sampled.counterexample.has_value() );

  const auto exhaustive =
      verify_against_aig_exhaustive_budgeted( fx.circuit, fx.aig, deadline{} );
  EXPECT_TRUE( exhaustive.complete );
  EXPECT_EQ( exhaustive.assignments_requested, 4u ); // 2^2 inputs
  EXPECT_EQ( exhaustive.assignments_completed, 4u );
  EXPECT_FALSE( exhaustive.counterexample.has_value() );
}

TEST( robustness_verify, partial_report_counterexample_is_always_real )
{
  const xor_fixture fx;
  const auto corrupted = corrupt_circuit( fx.circuit, fx.aig );
  const auto report =
      verify_against_aig_exhaustive_budgeted( corrupted, fx.aig, deadline{} );
  ASSERT_TRUE( report.counterexample.has_value() );
  // Unlimited-deadline budgeted tier walks the same counter order as the
  // plain tier, so both must report the same first failing assignment.
  const auto plain = verify_against_aig_exhaustive( corrupted, fx.aig );
  ASSERT_TRUE( plain.has_value() );
  EXPECT_EQ( *report.counterexample, *plain );
}

// --- verify-tier degradation ladder in the flow ------------------------------

TEST( robustness_flows, sat_budget_exhaustion_degrades_to_exhaustive_proof )
{
  fault_guard guard;
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::sat;

  flow_artifact_cache cache;
  fault_injection::arm( "verify.sat", fault_injection::kind::trip );
  const auto result = run_flow_staged( mod.aig, params, cache );
  fault_injection::disarm_all();

  EXPECT_TRUE( result.verify_downgraded );
  EXPECT_EQ( result.verified_with, verify_mode::exhaustive );
  EXPECT_TRUE( result.verified );
  // A complete exhaustive fallback is still a proof: the flow stays `ok`.
  EXPECT_EQ( result.status, flow_status::ok );
  EXPECT_TRUE( result.verify_complete );
}

TEST( robustness_flows, sat_budget_exhaustion_degrades_to_sampled_when_too_wide )
{
  fault_guard guard;
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::sat;
  params.limits.exhaustive_fallback_max_pis = 0; // force the sampled rung

  flow_artifact_cache cache;
  fault_injection::arm( "verify.sat", fault_injection::kind::trip );
  const auto result = run_flow_staged( mod.aig, params, cache );
  fault_injection::disarm_all();

  EXPECT_TRUE( result.verify_downgraded );
  EXPECT_EQ( result.verified_with, verify_mode::sampled );
  EXPECT_TRUE( result.verified );
  // Sampling is weaker than the requested proof: recorded as degraded.
  EXPECT_EQ( result.status, flow_status::degraded );
}

TEST( robustness_flows, unarmed_sat_tier_is_unaffected )
{
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::sat;
  flow_artifact_cache cache;
  const auto result = run_flow_staged( mod.aig, params, cache );
  EXPECT_TRUE( result.verified );
  EXPECT_FALSE( result.verify_downgraded );
  EXPECT_EQ( result.verified_with, verify_mode::sat );
  EXPECT_EQ( result.status, flow_status::ok );
}

// --- fault injection: cache-miss and stage-failure sites ---------------------

TEST( robustness_faults, tripped_cache_hit_recomputes_without_changing_results )
{
  fault_guard guard;
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::hierarchical;

  flow_artifact_cache cache;
  const auto baseline = run_flow_staged( mod.aig, params, cache );
  const auto misses_before = cache.stats().misses;

  fault_injection::arm( "cache.hit", fault_injection::kind::trip );
  const auto rerun = run_flow_staged( mod.aig, params, cache );
  EXPECT_GT( fault_injection::hits( "cache.hit" ), 0u ); // before disarm: it resets counters
  fault_injection::disarm_all();

  EXPECT_GT( cache.stats().misses, misses_before ); // forced misses were accounted
  EXPECT_EQ( baseline.costs.qubits, rerun.costs.qubits );
  EXPECT_EQ( baseline.costs.t_count, rerun.costs.t_count );
  EXPECT_EQ( baseline.costs.gates, rerun.costs.gates );
}

TEST( robustness_faults, hits_counts_polls_and_disarm_resets )
{
  fault_guard guard;
  fault_injection::arm( "flow.esop", fault_injection::kind::trip, 1000 );
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) ); // inside after_hits window
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) );
  EXPECT_EQ( fault_injection::hits( "flow.esop" ), 2u );
  fault_injection::disarm_all();
  EXPECT_EQ( fault_injection::hits( "flow.esop" ), 0u );
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) ); // disarmed: inert
}

// --- per-design / per-configuration failure isolation ------------------------

TEST( robustness_dse, injected_stage_failure_is_isolated_to_one_design )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;

  const auto baseline = explore_designs( { reciprocal_design::intdiv,
                                           reciprocal_design::newton },
                                         5, 5, options );
  ASSERT_EQ( baseline.size(), 2u );
  ASSERT_EQ( baseline[0].status, flow_status::ok );
  ASSERT_EQ( baseline[1].status, flow_status::ok );

  // Under the task-graph scheduler the three cleanup configurations
  // coalesce onto ONE xmg stage task per design, so INTDIV(5) polls
  // `flow.xmg` exactly once (deterministic single-threaded topological
  // order: INTDIV's whole chain runs before NEWTON's).  NEWTON(5) polls
  // the site after the one-shot window has closed and passes.
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 0, 1 );
  const auto injected = explore_designs( { reciprocal_design::intdiv,
                                           reciprocal_design::newton },
                                         5, 5, options );
  fault_injection::disarm_all();

  ASSERT_EQ( injected.size(), 2u );
  EXPECT_EQ( injected[0].status, flow_status::failed );
  EXPECT_NE( injected[0].status_detail.find( "flow.xmg" ), std::string::npos );
  EXPECT_EQ( injected[1].status, flow_status::ok );

  // The sweep completed: both designs report full point lists, and every
  // non-failed point is bit-identical to the uninjected run.
  ASSERT_EQ( injected[0].points.size(), baseline[0].points.size() );
  ASSERT_EQ( injected[1].points.size(), baseline[1].points.size() );
  for ( std::size_t i = 0; i < injected[0].points.size(); ++i )
  {
    if ( injected[0].points[i].result.status == flow_status::ok )
    {
      EXPECT_TRUE( costs_equal( injected[0].points[i], baseline[0].points[i] ) ) << i;
    }
    else
    {
      EXPECT_EQ( injected[0].points[i].result.status, flow_status::failed ) << i;
    }
  }
  for ( std::size_t i = 0; i < injected[1].points.size(); ++i )
  {
    EXPECT_TRUE( costs_equal( injected[1].points[i], baseline[1].points[i] ) ) << i;
  }
}

TEST( robustness_dse, injected_timeout_reports_timed_out_and_sweep_continues )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;
  fault_injection::arm( "dse.elaborate", fault_injection::kind::timeout, 0, 1 );
  const auto swept = explore_designs( { reciprocal_design::intdiv,
                                        reciprocal_design::newton },
                                      5, 5, options );
  fault_injection::disarm_all();
  ASSERT_EQ( swept.size(), 2u );
  EXPECT_EQ( swept[0].status, flow_status::timed_out );
  EXPECT_TRUE( swept[0].points.empty() );
  EXPECT_EQ( swept[1].status, flow_status::ok );
  EXPECT_FALSE( swept[1].points.empty() );
}

TEST( robustness_dse, elaboration_failure_becomes_a_failed_record )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;
  fault_injection::arm( "dse.elaborate", fault_injection::kind::fail, 0, 1 );
  const auto swept =
      explore_designs( { reciprocal_design::intdiv }, 5, 5, options );
  fault_injection::disarm_all();
  ASSERT_EQ( swept.size(), 1u );
  EXPECT_EQ( swept[0].status, flow_status::failed );
  EXPECT_NE( swept[0].status_detail.find( "dse.elaborate" ), std::string::npos );
}

TEST( robustness_dse, unlimited_budgets_are_bit_identical_to_the_default )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  auto configs = default_dse_configurations( true );

  explore_options plain;
  plain.num_threads = 1;
  const auto baseline = explore( mod.aig, configs, plain );

  // Generous-but-finite budgets must not perturb a sweep that fits them.
  explore_options budgeted = plain;
  budgeted.sweep_deadline_seconds = 3600.0;
  for ( auto& config : configs )
  {
    config.limits.deadline_seconds = 3600.0;
    config.limits.sat_conflict_budget = 1u << 30;
    config.limits.exorcism_pair_budget = std::uint64_t{ 1 } << 40;
  }
  const auto limited = explore( mod.aig, configs, budgeted );

  ASSERT_EQ( baseline.size(), limited.size() );
  for ( std::size_t i = 0; i < baseline.size(); ++i )
  {
    EXPECT_TRUE( costs_equal( baseline[i], limited[i] ) ) << baseline[i].label;
    EXPECT_EQ( limited[i].result.status, flow_status::ok ) << baseline[i].label;
  }
}

TEST( robustness_dse, deadline_limited_points_verify_like_run_flow_on_aig )
{
  // Every DSE point verifies inline, at the end of its own tail, exactly as
  // `run_flow_on_aig` verifies it.  Here an ESOP point with a finite
  // deadline shares the spec artifact with an unlimited hierarchical point.
  // The deadline sits midway between the ESOP configuration's own finish
  // and the end of the graph, so:
  //   * the ESOP point synthesizes and verifies within its deadline, like
  //     `run_flow_on_aig` under the same deadline, although the graph as a
  //     whole runs past it;
  //   * the unlimited point is verified in full — one configuration's
  //     deadline never decides another configuration's verification.
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 10 ) );
  flow_params esop;
  esop.kind = flow_kind::esop_based;
  esop.esop_p = 0;
  flow_params hier;
  hier.kind = flow_kind::hierarchical;
  hier.cleanup = cleanup_strategy::bennett;
  hier.cut_size = 6;
  explore_options options;
  options.num_threads = 1; // one worker: the ESOP chain runs before the XMG chain

  stopwatch watch;
  const auto unlimited = explore( mod.aig, { esop, hier }, options );
  const auto both_seconds = watch.elapsed_seconds();
  watch.restart();
  (void)explore( mod.aig, { esop }, options );
  const auto esop_seconds = watch.elapsed_seconds();
  ASSERT_EQ( unlimited[1].result.status, flow_status::ok );

  esop.limits.deadline_seconds = 0.5 * ( esop_seconds + both_seconds );
  const auto points = explore( mod.aig, { esop, hier }, options );

  const auto want_esop = run_flow_on_aig( mod.aig, esop );
  const auto& got_esop = points[0].result;
  EXPECT_EQ( want_esop.status, flow_status::ok ) << want_esop.status_detail;
  EXPECT_EQ( got_esop.status, flow_status::ok ) << got_esop.status_detail;
  EXPECT_TRUE( got_esop.verified );
  EXPECT_EQ( got_esop.verified_with, want_esop.verified_with );
  EXPECT_EQ( got_esop.verify_complete, want_esop.verify_complete );
  EXPECT_EQ( got_esop.verify_samples_requested, want_esop.verify_samples_requested );
  EXPECT_EQ( got_esop.verify_samples_completed, want_esop.verify_samples_completed );
  EXPECT_EQ( got_esop.verify_samples_completed, got_esop.verify_samples_requested );

  const auto want = run_flow_on_aig( mod.aig, hier );
  const auto& got = points[1].result;
  EXPECT_EQ( got.status, flow_status::ok ) << got.status_detail;
  EXPECT_TRUE( got.verified );
  EXPECT_EQ( got.verified_with, want.verified_with );
  EXPECT_EQ( got.verify_samples_requested, want.verify_samples_requested );
  EXPECT_EQ( got.verify_samples_completed, want.verify_samples_completed );
  EXPECT_EQ( got.verify_samples_completed, got.verify_samples_requested );
}

// --- Verilog diagnostics: file/line/token context ----------------------------

TEST( robustness_verilog, parser_errors_carry_file_line_and_token )
{
  try
  {
    verilog::parse_module( "module m(a;\n", "broken.v" );
    FAIL() << "expected a parse error";
  }
  catch ( const std::runtime_error& e )
  {
    const std::string what = e.what();
    EXPECT_NE( what.find( "broken.v:1" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "near" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "';'" ), std::string::npos ) << what;
  }
}

TEST( robustness_verilog, elaborator_errors_name_source_and_module )
{
  const std::string source = "module broken(a, y);\n"
                             "  input a;\n"
                             "  output y;\n"
                             "endmodule\n"; // y is never driven
  try
  {
    verilog::elaborate_verilog( source, "undriven.v" );
    FAIL() << "expected an elaboration error";
  }
  catch ( const std::runtime_error& e )
  {
    const std::string what = e.what();
    EXPECT_NE( what.find( "undriven.v" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "'broken'" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "'y'" ), std::string::npos ) << what;
  }
}

TEST( robustness_verilog, malformed_source_degrades_to_a_failed_flow )
{
  flow_params params;
  try
  {
    run_flow_on_verilog( "module m(a, y; endmodule", params );
    FAIL() << "expected a parse error";
  }
  catch ( const std::runtime_error& e )
  {
    // The diagnostic is actionable: it locates the error.
    EXPECT_NE( std::string( e.what() ).find( ":1:" ), std::string::npos ) << e.what();
  }
}
