/// Scheduler suite: the work-stealing thread pool, the task-graph engine,
/// and the graph-built DSE explorations.  The central invariants:
///
///   * QSYN_THREADS pins the default worker count (the ctest `scheduler`
///     fixtures run this whole binary at 1, 2, and hardware threads),
///   * a task graph respects every dependency edge, coalesces shared keys
///     onto one in-flight task, and isolates failure to the failing task's
///     transitive dependents — with the original task's key as blame,
///   * graph-scheduled explorations are bit-identical to the independent
///     oracle — one `run_flow_on_aig` call per configuration, in order —
///     on every flow kind and verification tier, for single designs and
///     whole batches (circuits, costs, verdicts, counterexamples, coverage
///     and status),
///   * stage failures stay attributable per point: the status detail names
///     the artifact key and stage that failed, shared task or not.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "core/dse.hpp"
#include "core/flows.hpp"
#include "core/task_graph.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Saves and restores QSYN_THREADS, so the env-override test cannot leak a
/// pinned value into the rest of the (possibly fixture-pinned) binary.
struct env_guard
{
  bool had = false;
  std::string saved;
  env_guard()
  {
    if ( const char* value = std::getenv( "QSYN_THREADS" ) )
    {
      had = true;
      saved = value;
    }
  }
  ~env_guard()
  {
    if ( had )
    {
      setenv( "QSYN_THREADS", saved.c_str(), 1 );
    }
    else
    {
      unsetenv( "QSYN_THREADS" );
    }
  }
};

/// RAII disarm so an assertion failure cannot leak an armed site into
/// later tests.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

/// The independent scheduler oracle: one `run_flow_on_aig` call per
/// configuration, in order, each on its own private cache — no graph, no
/// shared artifacts, no shared SAT engine.
std::vector<flow_result> sequential_flows( const aig_network& aig,
                                           const std::vector<flow_params>& configs )
{
  std::vector<flow_result> results;
  results.reserve( configs.size() );
  for ( const auto& config : configs )
  {
    results.push_back( run_flow_on_aig( aig, config ) );
  }
  return results;
}

bool same_circuit( const reversible_circuit& a, const reversible_circuit& b )
{
  if ( a.num_lines() != b.num_lines() || a.num_gates() != b.num_gates() )
  {
    return false;
  }
  for ( unsigned l = 0; l < a.num_lines(); ++l )
  {
    const auto& x = a.line( l );
    const auto& y = b.line( l );
    if ( x.is_primary_input != y.is_primary_input || x.is_constant_input != y.is_constant_input ||
         x.constant_value != y.constant_value || x.output_index != y.output_index ||
         x.is_garbage != y.is_garbage )
    {
      return false;
    }
  }
  for ( std::size_t g = 0; g < a.num_gates(); ++g )
  {
    if ( a.gates()[g].target != b.gates()[g].target ||
         !( a.gates()[g].controls == b.gates()[g].controls ) )
    {
      return false;
    }
  }
  return true;
}

/// Whole-result identity of an explored point against the oracle's result
/// for the same configuration: circuit gate by gate, costs, intermediate
/// statistics, the verification report and the status record.
void expect_same_result( const dse_point& got, const flow_result& want, const flow_params& config,
                         const std::string& context )
{
  const auto& r = got.result;
  EXPECT_EQ( got.label, dse_label( config ) ) << context;
  EXPECT_TRUE( same_circuit( r.circuit, want.circuit ) ) << context;
  EXPECT_EQ( r.costs.qubits, want.costs.qubits ) << context;
  EXPECT_EQ( r.costs.t_count, want.costs.t_count ) << context;
  EXPECT_EQ( r.costs.gates, want.costs.gates ) << context;
  EXPECT_EQ( r.esop_terms, want.esop_terms ) << context;
  EXPECT_EQ( r.xmg_maj, want.xmg_maj ) << context;
  EXPECT_EQ( r.xmg_xor, want.xmg_xor ) << context;
  EXPECT_EQ( r.verified, want.verified ) << context;
  EXPECT_EQ( r.verified_with, want.verified_with ) << context;
  EXPECT_EQ( r.counterexample, want.counterexample ) << context;
  EXPECT_EQ( r.verify_complete, want.verify_complete ) << context;
  EXPECT_EQ( r.verify_downgraded, want.verify_downgraded ) << context;
  EXPECT_EQ( r.verify_samples_requested, want.verify_samples_requested ) << context;
  EXPECT_EQ( r.verify_samples_completed, want.verify_samples_completed ) << context;
  EXPECT_EQ( r.status, want.status ) << context << ": " << r.status_detail;
}

std::string what_of( const std::exception_ptr& error )
{
  try
  {
    std::rethrow_exception( error );
  }
  catch ( const std::exception& e )
  {
    return e.what();
  }
  catch ( ... )
  {
    return "";
  }
}

} // namespace

// --- QSYN_THREADS ------------------------------------------------------------

TEST( scheduler_env, qsyn_threads_overrides_default_num_threads )
{
  env_guard guard;
  setenv( "QSYN_THREADS", "3", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 3u );
  setenv( "QSYN_THREADS", "1", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  // Non-positive values clamp to 1 instead of starting zero workers.
  setenv( "QSYN_THREADS", "0", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  setenv( "QSYN_THREADS", "-4", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  // Unparsable values fall back to the hardware default, never 0.
  setenv( "QSYN_THREADS", "not-a-number", 1 );
  EXPECT_GE( thread_pool::default_num_threads(), 1u );
  unsetenv( "QSYN_THREADS" );
  EXPECT_GE( thread_pool::default_num_threads(), 1u );
}

TEST( scheduler_env, qsyn_threads_clamps_oversized_values )
{
  env_guard guard;
  // 2^32 + 1 used to survive the long parse and wrap to 1 in the
  // long -> unsigned cast; 2^32 + 20000 wrapped to 20000 workers.  Both
  // now clamp to the documented ceiling.
  setenv( "QSYN_THREADS", "4294967297", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  setenv( "QSYN_THREADS", "4294987296", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  // Values beyond LONG_MAX saturate in strtol and clamp the same way.
  setenv( "QSYN_THREADS", "99999999999999999999999999", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  // The largest accepted value passes through unchanged.
  setenv( "QSYN_THREADS", std::to_string( thread_pool::max_env_threads ).c_str(), 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
}

// --- work stealing -----------------------------------------------------------

TEST( scheduler_pool, jobs_spawned_by_a_worker_can_be_stolen )
{
  thread_pool pool( 2 );
  ASSERT_EQ( pool.num_workers(), 2u );
  std::atomic<int> ran{ 0 };
  // The parent job runs on one worker and pushes all children onto that
  // worker's own deque; the other worker has nothing and must steal.  The
  // children sleep long enough that the idle worker always gets a turn.
  pool.submit( [&pool, &ran] {
    for ( int i = 0; i < 16; ++i )
    {
      pool.submit( [&ran] {
        std::this_thread::sleep_for( std::chrono::milliseconds( 2 ) );
        ran.fetch_add( 1 );
      } );
    }
  } );
  pool.wait();
  EXPECT_EQ( ran.load(), 16 );
  EXPECT_GE( pool.steals(), 1u );
}

TEST( scheduler_pool, worker_submitted_bursts_are_fully_waited )
{
  // Regression: submit() must count a job BEFORE publishing it.  Jobs
  // spawned from workers race wait()'s outstanding-count with the
  // claim-side decrements; the old publish-then-count order let a fast
  // claimant finish before the counts existed, waking wait() while work
  // was still queued (or hanging it via counter underflow).
  thread_pool pool( 4 );
  std::atomic<int> ran{ 0 };
  int expected = 0;
  for ( int round = 0; round < 50; ++round )
  {
    for ( int parent = 0; parent < 8; ++parent )
    {
      pool.submit( [&pool, &ran] {
        for ( int child = 0; child < 4; ++child )
        {
          pool.submit( [&ran] { ran.fetch_add( 1 ); } );
        }
        ran.fetch_add( 1 );
      } );
    }
    expected += 8 * 5;
    pool.wait();
    // Every job of the round — parents AND worker-spawned children — must
    // be done when wait() returns, every round.
    ASSERT_EQ( ran.load(), expected ) << "round " << round;
  }
}

TEST( scheduler_pool, inline_pool_never_steals )
{
  thread_pool pool( 1 );
  for ( int i = 0; i < 8; ++i )
  {
    pool.submit( [] {} );
  }
  pool.wait();
  EXPECT_EQ( pool.steals(), 0u );
}

// --- task graph: shapes ------------------------------------------------------

TEST( scheduler_graph, inline_diamond_runs_in_deterministic_topological_order )
{
  task_graph graph;
  std::vector<int> order; // inline pool: single-threaded, no lock needed
  const auto a = graph.add( "a", [&order] { order.push_back( 0 ); } );
  const auto b = graph.add( "b", [&order] { order.push_back( 1 ); }, { a } );
  const auto c = graph.add( "c", [&order] { order.push_back( 2 ); }, { a } );
  const auto d = graph.add( "d", [&order] { order.push_back( 3 ); }, { b, c } );
  thread_pool pool( 1 );
  graph.run( pool );
  // The determinism contract: each finished task submits its ready
  // dependents in insertion order, recursively, so the diamond is 0-1-2-3.
  EXPECT_EQ( order, ( std::vector<int>{ 0, 1, 2, 3 } ) );
  for ( const auto id : { a, b, c, d } )
  {
    EXPECT_EQ( graph.state( id ), task_state::done ) << graph.key( id );
  }
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_added, 4u );
  EXPECT_EQ( stats.tasks_run, 4u );
  EXPECT_EQ( stats.coalesced, 0u );
  EXPECT_GE( stats.wall_seconds, 0.0 );
  EXPECT_GE( stats.critical_path_seconds, 0.0 );
}

TEST( scheduler_graph, diamond_on_workers_respects_every_edge )
{
  task_graph graph;
  std::atomic<bool> a_done{ false }, b_done{ false }, c_done{ false };
  std::atomic<int> violations{ 0 };
  const auto a = graph.add( "a", [&a_done] { a_done = true; } );
  const auto b = graph.add( "b",
                            [&] {
                              if ( !a_done )
                              {
                                violations.fetch_add( 1 );
                              }
                              b_done = true;
                            },
                            { a } );
  const auto c = graph.add( "c",
                            [&] {
                              if ( !a_done )
                              {
                                violations.fetch_add( 1 );
                              }
                              c_done = true;
                            },
                            { a } );
  graph.add( "d",
             [&] {
               if ( !b_done || !c_done )
               {
                 violations.fetch_add( 1 );
               }
             },
             { b, c } );
  thread_pool pool( 2 );
  graph.run( pool );
  EXPECT_EQ( violations.load(), 0 );
  EXPECT_EQ( graph.stats().tasks_run, 4u );
}

TEST( scheduler_graph, wide_fan_in_waits_for_every_producer )
{
  task_graph graph;
  constexpr std::size_t width = 16;
  std::vector<std::atomic<bool>> produced( width );
  std::vector<task_id> producers;
  for ( std::size_t i = 0; i < width; ++i )
  {
    producers.push_back(
        graph.add( "p" + std::to_string( i ), [&produced, i] { produced[i] = true; } ) );
  }
  std::atomic<int> missing{ 0 };
  graph.add( "sink",
             [&] {
               for ( std::size_t i = 0; i < width; ++i )
               {
                 if ( !produced[i] )
                 {
                   missing.fetch_add( 1 );
                 }
               }
             },
             producers );
  // The fixture-pinned worker count (QSYN_THREADS) exercises 1, 2, and
  // hardware-wide pools over the same graph.
  thread_pool pool( thread_pool::default_num_threads() );
  graph.run( pool );
  EXPECT_EQ( missing.load(), 0 );
  EXPECT_EQ( graph.stats().tasks_run, width + 1 );
}

// --- task graph: coalescing --------------------------------------------------

TEST( scheduler_graph, shared_keys_coalesce_onto_one_task )
{
  task_graph graph;
  std::atomic<int> runs{ 0 };
  const auto first = graph.add_shared( "artifact", [&runs] { runs.fetch_add( 1 ); } );
  // The duplicate's callable must be dropped, not queued: first writer wins.
  const auto second = graph.add_shared( "artifact", [&runs] { runs.fetch_add( 100 ); } );
  EXPECT_EQ( first, second );
  EXPECT_EQ( graph.size(), 1u );
  ASSERT_TRUE( graph.find( "artifact" ).has_value() );
  EXPECT_EQ( *graph.find( "artifact" ), first );
  EXPECT_FALSE( graph.find( "missing" ).has_value() );
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_EQ( runs.load(), 1 );
  EXPECT_EQ( graph.stats().coalesced, 1u );
  EXPECT_EQ( graph.stats().tasks_run, 1u );
}

TEST( scheduler_graph, coalesced_shared_task_merges_new_dependencies )
{
  task_graph graph;
  std::atomic<bool> p1_done{ false }, p2_done{ false };
  std::atomic<int> violations{ 0 };
  const auto p1 = graph.add( "p1", [&p1_done] { p1_done = true; } );
  const auto p2 = graph.add( "p2", [&p2_done] { p2_done = true; } );
  const auto first = graph.add_shared( "artifact",
                                       [&] {
                                         if ( !p1_done || !p2_done )
                                         {
                                           violations.fetch_add( 1 );
                                         }
                                       },
                                       { p1 } );
  // Regression: the duplicate's callable is dropped, but its deps must be
  // MERGED — the shared task must not run before a prerequisite only the
  // later caller knows about.
  const auto second = graph.add_shared( "artifact", [] {}, { p2 } );
  EXPECT_EQ( first, second );
  EXPECT_EQ( graph.stats().coalesced, 1u );
  // A dep added after the shared task cannot be merged without risking a
  // cycle; dropping it silently would be worse, so it throws.
  const auto later = graph.add( "later", [] {} );
  EXPECT_THROW( graph.add_shared( "artifact", [] {}, { later } ),
                std::invalid_argument );
  thread_pool pool( thread_pool::default_num_threads() );
  graph.run( pool );
  EXPECT_EQ( violations.load(), 0 );
  EXPECT_EQ( graph.state( first ), task_state::done );
}

TEST( scheduler_graph, inline_run_reports_no_task_overlap )
{
  task_graph graph;
  for ( int i = 0; i < 3; ++i )
  {
    graph.add( "t" + std::to_string( i ),
               [] { std::this_thread::sleep_for( std::chrono::milliseconds( 2 ) ); } );
  }
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_EQ( graph.stats().max_concurrency, 1u );
}

TEST( scheduler_graph, overlapping_tasks_report_their_peak_concurrency )
{
  task_graph graph;
  std::atomic<bool> a_started{ false }, b_started{ false };
  const auto spin_until = []( const std::atomic<bool>& flag ) {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds( 10 );
    while ( !flag.load() && std::chrono::steady_clock::now() < give_up )
    {
      std::this_thread::yield();
    }
  };
  // Each seed waits for the other to start, so on two workers the two
  // intervals provably overlap — the signal the dead-parallelism canary
  // in run_bench.sh gates on (steals may legitimately stay 0 here).
  graph.add( "a", [&] {
    a_started = true;
    spin_until( b_started );
  } );
  graph.add( "b", [&] {
    b_started = true;
    spin_until( a_started );
  } );
  thread_pool pool( 2 );
  graph.run( pool );
  EXPECT_EQ( graph.stats().max_concurrency, 2u );
}

// --- task graph: failure isolation -------------------------------------------

TEST( scheduler_graph, failure_poisons_only_transitive_dependents )
{
  task_graph graph;
  const auto a = graph.add( "a", [] { throw std::runtime_error( "stage exploded" ); } );
  const auto b = graph.add( "b", [] {}, { a } );
  const auto c = graph.add( "c", [] {}, { b } );
  std::atomic<bool> d_ran{ false };
  const auto d = graph.add( "d", [&d_ran] { d_ran = true; } );
  thread_pool pool( 1 );
  graph.run( pool );

  EXPECT_EQ( graph.state( a ), task_state::failed );
  EXPECT_EQ( graph.state( b ), task_state::poisoned );
  EXPECT_EQ( graph.state( c ), task_state::poisoned );
  EXPECT_EQ( graph.state( d ), task_state::done );
  EXPECT_TRUE( d_ran.load() );
  // Poisoning propagates the ULTIMATE origin: c blames a, not b.
  EXPECT_EQ( graph.blame( b ), "a" );
  EXPECT_EQ( graph.blame( c ), "a" );
  EXPECT_EQ( what_of( graph.error( c ) ), "stage exploded" );
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_failed, 1u );
  EXPECT_EQ( stats.tasks_poisoned, 2u );
  EXPECT_EQ( stats.tasks_run, 1u );
}

TEST( scheduler_graph, expired_deadline_cancels_unstarted_tasks_and_poisons_dependents )
{
  cancellation_token token;
  const auto stop = deadline::with_token( token );
  task_graph graph;
  const auto a = graph.add( "a", [&token] { token.request_cancel(); } );
  const auto b = graph.add( "b", [] {}, { a } );
  const auto c = graph.add( "c", [] {} );
  const auto d = graph.add( "d", [] {}, { c } );
  // Inline order: a runs (and cancels), then b is cancelled pre-start,
  // then seed c is cancelled pre-start and poisons d.
  thread_pool pool( 1 );
  graph.run( pool, stop );

  EXPECT_EQ( graph.state( a ), task_state::done );
  EXPECT_EQ( graph.state( b ), task_state::cancelled );
  EXPECT_EQ( graph.state( c ), task_state::cancelled );
  EXPECT_EQ( graph.state( d ), task_state::poisoned );
  EXPECT_EQ( graph.blame( d ), "c" );
  EXPECT_THROW( std::rethrow_exception( graph.error( b ) ), budget_exhausted );
  // The cancellation record names the task it struck.
  EXPECT_NE( what_of( graph.error( b ) ).find( "'b'" ), std::string::npos );
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_run, 1u );
  EXPECT_EQ( stats.tasks_cancelled, 2u );
  EXPECT_EQ( stats.tasks_poisoned, 1u );
}

TEST( scheduler_graph, graph_rejects_forward_edges_and_reruns )
{
  task_graph graph;
  EXPECT_THROW( graph.add( "x", [] {}, { 0 } ), std::invalid_argument );
  graph.add( "x", [] {} );
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_THROW( graph.run( pool ), std::logic_error );
  EXPECT_THROW( graph.add( "y", [] {} ), std::logic_error );
}

TEST( scheduler_graph, flow_tasks_read_their_deadline_when_they_run )
{
  // Regression: the per-configuration deadline must be READ when a flow
  // task runs, not copied at graph-build time — the batch driver arms it
  // from the design's elaborate task, so designs scheduled late in a long
  // sweep must not start with their per-flow clock already consumed.
  // Here an upstream task cancels the deadline slot after the graph was
  // built; a build-time copy (armed, unlimited) would let the tail run to
  // completion instead of timing out.
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  flow_params params;
  params.kind = flow_kind::hierarchical;
  params.verify = false;

  task_graph graph;
  flow_artifact_cache cache;
  flow_result out;
  deadline armed; // unlimited while the graph is built
  cancellation_token token;
  const auto arm = graph.add( "arm", [&armed, &token] {
    token.request_cancel();
    armed = deadline::with_token( token );
  } );
  const auto ids =
      add_flow_tasks( graph, mod.aig, params, cache, armed, out, {}, { arm } );
  thread_pool pool( 1 );
  graph.run( pool );

  EXPECT_EQ( graph.state( ids.tail ), task_state::failed );
  EXPECT_THROW( std::rethrow_exception( graph.error( ids.tail ) ), budget_exhausted );
}

// --- graph-scheduled DSE -----------------------------------------------------

TEST( scheduler_dse, task_graph_matches_sequential_run_flow_bit_for_bit )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  // Every verification tier: the graph's tails verify inline and share one
  // SAT engine across the sweep, while the oracle verifies each
  // configuration on its own private cache and engine.
  for ( const auto tier : { verify_mode::sampled, verify_mode::exhaustive, verify_mode::sat } )
  {
    auto configs = default_dse_configurations( true );
    for ( auto& config : configs )
    {
      config.verification = tier;
    }
    const auto want = sequential_flows( mod.aig, configs );

    // The graph engine at the fixture-pinned default worker count.
    flow_artifact_cache cache;
    task_graph_stats stats;
    const auto got = explore( mod.aig, configs, {}, &cache, &stats );

    ASSERT_EQ( got.size(), want.size() );
    for ( std::size_t i = 0; i < got.size(); ++i )
    {
      const auto context = verify_mode_name( tier ) + " " + got[i].label;
      expect_same_result( got[i], want[i], configs[i], context );
      EXPECT_TRUE( got[i].result.verified ) << context;
      EXPECT_EQ( got[i].result.verified_with, tier ) << context;
    }
    // 7 configurations share 4 artifact tasks (optimize, collapse, esop,
    // xmg): 11 tasks, all run, and the 10 duplicate artifact requests
    // (6 optimize + 2 esop + 2 xmg) coalesce instead of recomputing.
    EXPECT_EQ( cache.stats().misses, 4u );
    EXPECT_EQ( stats.tasks_added, configs.size() + 4u );
    EXPECT_EQ( stats.tasks_run, stats.tasks_added );
    EXPECT_EQ( stats.coalesced, 10u );
    EXPECT_EQ( stats.tasks_failed + stats.tasks_poisoned + stats.tasks_cancelled, 0u );
    // The critical path is the lower bound of any schedule of this graph.
    EXPECT_LE( stats.critical_path_seconds, stats.wall_seconds + 0.05 );
  }
}

TEST( scheduler_dse, poisoned_points_name_the_failing_stage_task )
{
  fault_guard guard;
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  const auto configs = default_dse_configurations( true );
  explore_options options;
  options.num_threads = 1; // deterministic poll order: one xmg task, one poll
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 0, 1 );
  flow_artifact_cache cache;
  const auto points = explore( mod.aig, configs, options, &cache );
  fault_injection::disarm_all();

  for ( const auto& point : points )
  {
    if ( point.params.kind == flow_kind::hierarchical )
    {
      // The regression this guards: the shared xmg task fails ONCE, and
      // every dependent point's record still names the artifact key (which
      // carries the stage name) plus the underlying fault.
      EXPECT_EQ( point.result.status, flow_status::failed ) << point.label;
      EXPECT_NE( point.result.status_detail.find( "stage '" ), std::string::npos )
          << point.result.status_detail;
      EXPECT_NE( point.result.status_detail.find( "xmg[" ), std::string::npos )
          << point.result.status_detail;
      EXPECT_NE( point.result.status_detail.find( "flow.xmg" ), std::string::npos )
          << point.result.status_detail;
    }
    else
    {
      EXPECT_EQ( point.result.status, flow_status::ok ) << point.label;
    }
  }
}

TEST( scheduler_dse, batch_graph_matches_sequential_run_flow_bit_for_bit )
{
  explore_options graphed; // one graph for the whole batch, default workers
  task_graph_stats stats;
  const auto got = explore_designs( { reciprocal_design::intdiv,
                                      reciprocal_design::newton },
                                    5, 5, graphed, stats );

  ASSERT_EQ( got.size(), 2u );
  for ( const auto& design : got )
  {
    EXPECT_EQ( design.status, flow_status::ok ) << design.name << ": " << design.status_detail;
    const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design.design, 5 ) );
    // The configurations `explore_designs` sweeps at n = 5 with the
    // default options: functional included, sampled verification.
    const auto configs = default_dse_configurations( true );
    const auto want = sequential_flows( mod.aig, configs );
    ASSERT_EQ( design.points.size(), want.size() ) << design.name;
    for ( std::size_t i = 0; i < want.size(); ++i )
    {
      expect_same_result( design.points[i], want[i], configs[i],
                          design.name + " " + design.points[i].label );
    }
    // One computation per distinct artifact (optimize, collapse, esop, xmg).
    EXPECT_EQ( design.cache.misses, 4u ) << design.name;
  }
  EXPECT_EQ( got[0].name, "INTDIV(5)" );
  EXPECT_EQ( got[1].name, "NEWTON(5)" );
  // Per design: 1 elaborate + 4 artifacts + 7 tails; two designs, one graph.
  EXPECT_EQ( stats.tasks_added, 24u );
  EXPECT_EQ( stats.tasks_run, 24u );
  EXPECT_EQ( stats.coalesced, 20u );
}
