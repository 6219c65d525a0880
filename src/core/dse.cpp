#include "dse.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "../common/fault_injection.hpp"
#include "../common/thread_pool.hpp"
#include "../common/timer.hpp"
#include "../reversible/verify.hpp"
#include "../verilog/elaborator.hpp"

namespace qsyn
{

std::vector<flow_params> default_dse_configurations( bool include_functional )
{
  std::vector<flow_params> configs;
  if ( include_functional )
  {
    flow_params functional;
    functional.kind = flow_kind::functional;
    configs.push_back( functional );
  }
  for ( unsigned p = 0; p <= 2u; ++p )
  {
    flow_params esop;
    esop.kind = flow_kind::esop_based;
    esop.esop_p = p;
    configs.push_back( esop );
  }
  for ( const auto cleanup :
        { cleanup_strategy::keep_garbage, cleanup_strategy::bennett, cleanup_strategy::eager } )
  {
    flow_params hier;
    hier.kind = flow_kind::hierarchical;
    hier.cleanup = cleanup;
    configs.push_back( hier );
  }
  return configs;
}

std::string dse_label( const flow_params& params )
{
  switch ( params.kind )
  {
  case flow_kind::functional:
    return params.bidirectional_tbs ? "functional(tbs,bidir)" : "functional(tbs,uni)";
  case flow_kind::esop_based:
    return "esop(p=" + std::to_string( params.esop_p ) + ")";
  case flow_kind::hierarchical:
  {
    // Non-default LUT cut sizes are a DSE axis of their own; the default
    // k = 4 keeps the historical label (and the committed bench baselines).
    const auto k =
        params.cut_size == 4u ? std::string{} : ",k=" + std::to_string( params.cut_size );
    // No default labels: -Wswitch (enabled for the library) must keep
    // flagging newly added enumerators here.
    switch ( params.cleanup )
    {
    case cleanup_strategy::keep_garbage:
      return "hierarchical(garbage" + k + ")";
    case cleanup_strategy::bennett:
      return "hierarchical(bennett" + k + ")";
    case cleanup_strategy::eager:
      return "hierarchical(eager" + k + ")";
    }
    return "hierarchical(unknown)";
  }
  }
  return "unknown";
}

namespace
{

unsigned resolve_num_threads( const explore_options& options )
{
  return options.num_threads == 0u ? thread_pool::default_num_threads() : options.num_threads;
}

std::string error_what( const std::exception_ptr& error )
{
  if ( !error )
  {
    return "unknown error";
  }
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
    return "unknown error";
  }
}

bool is_budget_error( const std::exception_ptr& error )
{
  if ( !error )
  {
    return false;
  }
  try
  {
    std::rethrow_exception( error );
  }
  catch ( const budget_exhausted& )
  {
    return true;
  }
  catch ( ... )
  {
    return false;
  }
}

/// Maps a tail task's terminal state back onto its point's status record
/// (see `fill_flow_status_from_graph`, shared with the synthesis daemon).
void fill_point_status( const task_graph& graph, task_id tail, dse_point& point )
{
  fill_flow_status_from_graph( graph, tail, point.result );
}

// --- frontier batch verification ---------------------------------------------

/// Default sampling parameters of the inline ladder
/// (`verify_against_aig_sampled_budgeted`'s defaults) — the batch pass must
/// draw the same patterns to stay bit-identical to per-configuration calls.
constexpr unsigned batch_verify_samples = 256;
constexpr std::uint64_t batch_verify_seed = 1;

/// True for configurations whose simulation-tier check the task-graph
/// engines take over (`flow_params::defer_sim_verify`): the sampled and
/// exhaustive tiers miter against the spec AIG and batch across the
/// frontier; the functional flow's truth-table check and the SAT tier stay
/// inline.
bool defer_eligible( const flow_params& config )
{
  return config.verify && config.kind != flow_kind::functional &&
         ( config.verification == verify_mode::sampled ||
           config.verification == verify_mode::exhaustive );
}

/// One synthesized point whose inline check was deferred to the frontier
/// batch pass.
struct deferred_verify_slot
{
  flow_result* result = nullptr;
  verify_mode tier = verify_mode::none;
  unsigned rounds = 0;            ///< optimization rounds → spec artifact key
  double deadline_seconds = 0.0;  ///< the configuration's own `limits.deadline_seconds`
  const deadline* stop = nullptr; ///< the point's per-configuration deadline
};

/// The frontier batch-verification pass: groups the deferred points by
/// (spec artifact, tier, per-configuration deadline budget) and checks
/// each group in ONE SIMD-wide cross-circuit sweep — the spec AIG is walked
/// once per lane group for the whole frontier instead of once per
/// candidate.  Widths, sample counts, and seeds match the inline defaults
/// exactly, so every patched report is bit-identical to the
/// per-configuration call the tail skipped; only the wall clock changes
/// (attributed evenly across the group's `verify_seconds`).
void batch_verify_deferred( const aig_network& aig, flow_artifact_cache& cache,
                            const std::vector<deferred_verify_slot>& slots )
{
  std::map<std::tuple<unsigned, verify_mode, double>, std::vector<const deferred_verify_slot*>>
      groups;
  for ( const auto& slot : slots )
  {
    groups[{ slot.rounds, slot.tier, slot.deadline_seconds }].push_back( &slot );
  }
  for ( auto& [key, group] : groups )
  {
    const auto tier = std::get<1>( key );
    // Always a cache hit: every member's synthesis tail computed (or
    // coalesced onto) this artifact before it could synthesize at all.
    const auto& spec = cache.optimized( aig, std::get<0>( key ) );
    std::vector<const reversible_circuit*> circuits;
    circuits.reserve( group.size() );
    for ( const auto* slot : group )
    {
      circuits.push_back( &slot->result->circuit );
    }
    // The widths the inline default overloads pick, so lane layout — and
    // with it every verdict, counterexample, and coverage count — matches
    // per-configuration verification bit for bit.
    const auto width =
        tier == verify_mode::exhaustive
            ? ( spec.num_pis() > 24u
                    ? sim_width::w512
                    : auto_sim_width( std::uint64_t{ 1 } << spec.num_pis() ) )
            : auto_sim_width( std::uint64_t{ batch_verify_samples } + 2u );
    // Every member of a group carries the same per-configuration budget,
    // armed at the same instant (the start of its exploration or design),
    // so the first member's deadline serves the whole batch.  Configs with
    // different budgets never share a group: one config's deadline must not
    // decide another's verification.
    const auto& stop = *group.front()->stop;
    stopwatch watch;
    std::vector<partial_verify_report> reports;
    try
    {
      reports = tier == verify_mode::exhaustive
                    ? verify_batch_against_aig_exhaustive_budgeted( circuits, spec, stop, width )
                    : verify_batch_against_aig_sampled_budgeted(
                          circuits, spec, stop, batch_verify_samples, batch_verify_seed, width );
    }
    catch ( const std::exception& e )
    {
      // Interface mismatch or a too-wide exhaustive space throws the same
      // std::invalid_argument the inline call would have thrown inside
      // each tail — keep the per-point failure isolation it had there.
      for ( const auto* slot : group )
      {
        slot->result->status = flow_status::failed;
        slot->result->status_detail = e.what();
      }
      continue;
    }
    const auto share = watch.elapsed_seconds() / static_cast<double>( group.size() );
    for ( std::size_t i = 0; i < group.size(); ++i )
    {
      auto& result = *group[i]->result;
      result.verified_with = tier;
      record_sim_verify_report( result, reports[i] );
      result.verify_seconds += share;
      finalize_verify_status( result );
    }
  }
}

/// Collects the deferred-and-synthesized points of one exploration after
/// its graph ran: a point joins the batch only when its tail completed (a
/// poisoned/failed/cancelled tail keeps its status record — there is no
/// circuit to check) and its inline ladder really did skip
/// (`verified_with` still `none`).
std::vector<deferred_verify_slot> collect_deferred_slots(
    const task_graph& graph, const std::vector<flow_params>& configs,
    const std::vector<task_id>& tails, const std::vector<deadline>& stops,
    std::vector<dse_point>& points )
{
  std::vector<deferred_verify_slot> deferred;
  for ( std::size_t i = 0; i < configs.size(); ++i )
  {
    if ( configs[i].defer_sim_verify && graph.state( tails[i] ) == task_state::done &&
         points[i].result.verified_with == verify_mode::none )
    {
      deferred.push_back( { &points[i].result, configs[i].verification,
                            configs[i].optimization_rounds, configs[i].limits.deadline_seconds,
                            &stops[i] } );
    }
  }
  return deferred;
}

} // namespace

std::vector<dse_point> explore( const aig_network& aig, const std::vector<flow_params>& configs,
                                const explore_options& options, flow_artifact_cache* cache,
                                task_graph_stats* sched_stats )
{
  flow_artifact_cache private_cache;
  if ( !cache )
  {
    private_cache.attach_store( options.store );
    cache = &private_cache;
  }
  const auto stop = deadline::in( options.sweep_deadline_seconds );
  std::vector<dse_point> points( configs.size() );
  std::vector<deadline> stops;
  stops.reserve( configs.size() );
  for ( const auto& params : configs )
  {
    stops.push_back( stop.tightened( params.limits.deadline_seconds ) );
  }

  // The graph engine owns the simulation-tier checks of its frontier: the
  // tails run with `defer_sim_verify` set (on a local copy — the recorded
  // `points[i].params` keep the caller's configuration) and the batch pass
  // after the run verifies the whole frontier in one cross-circuit sweep.
  auto cfgs = configs;
  for ( auto& config : cfgs )
  {
    config.defer_sim_verify = defer_eligible( config );
  }

  // One dependency DAG per exploration — coalesced stage-artifact tasks
  // feeding unique per-configuration tails — so distinct artifacts compute
  // concurrently with each other and with every tail that is already
  // unblocked.  Results land in caller-indexed slots and every task is
  // deterministic, so the point list does not depend on the schedule.
  task_graph graph;
  std::vector<task_id> tails( configs.size() );
  for ( std::size_t i = 0; i < cfgs.size(); ++i )
  {
    points[i].label = dse_label( cfgs[i] );
    points[i].params = configs[i];
    tails[i] = add_flow_tasks( graph, aig, cfgs[i], *cache, stops[i], points[i].result ).tail;
  }

  // Never start more workers than there are tasks to run.
  thread_pool pool( static_cast<unsigned>( std::min<std::size_t>(
      resolve_num_threads( options ), std::max<std::size_t>( graph.size(), 1 ) ) ) );
  graph.run( pool, stop );
  for ( std::size_t i = 0; i < cfgs.size(); ++i )
  {
    fill_point_status( graph, tails[i], points[i] );
  }
  batch_verify_deferred( aig, *cache, collect_deferred_slots( graph, cfgs, tails, stops, points ) );
  if ( sched_stats )
  {
    *sched_stats = graph.stats();
  }
  return points;
}

namespace
{

/// Severity order of the status taxonomy (worst wins when aggregating the
/// points of one design).
int status_severity( flow_status status )
{
  switch ( status )
  {
  case flow_status::ok:
    return 0;
  case flow_status::degraded:
    return 1;
  case flow_status::timed_out:
    return 2;
  case flow_status::failed:
    return 3;
  }
  return 0;
}

/// Folds the worst point status (and its attributed detail) into the
/// design-level record.
void aggregate_design_status( design_exploration& entry )
{
  for ( const auto& point : entry.points )
  {
    if ( status_severity( point.result.status ) > status_severity( entry.status ) )
    {
      entry.status = point.result.status;
      entry.status_detail = point.label + ": " + point.result.status_detail;
    }
  }
}

std::string design_name( reciprocal_design design, unsigned n )
{
  return ( design == reciprocal_design::intdiv ? "INTDIV(" : "NEWTON(" ) +
         std::to_string( n ) + ")";
}

/// One design's slot in the batch graph.  Heap-pinned (the task lambdas
/// keep pointers into it) and written strictly by the design's own tasks:
/// the elaborate task fills `aig`, the stage/tail tasks go through
/// `cache`/`points`.  Task keys are prefixed with the design name, so
/// coalescing never crosses designs — each design keeps its own artifact
/// cache.
struct design_build
{
  design_exploration entry;
  std::vector<flow_params> configs;
  std::vector<dse_point> points;
  /// Per-configuration deadlines, armed by the elaborate task (the
  /// design's start) — NOT at graph-build time, where a nonzero
  /// `limits.deadline_seconds` would start ticking for every design at
  /// once and late-scheduled designs would begin with their per-flow
  /// clock already consumed by earlier ones.  The flow tasks read these
  /// slots by reference at run time, always after the elaborate task they
  /// depend on wrote them.
  std::vector<deadline> stops;
  flow_artifact_cache cache;
  aig_network aig;
  task_id elaborate = 0;
  std::vector<task_id> tails;
  task_id first_task = 0; ///< [first_task, last_task) are this design's tasks
  task_id last_task = 0;
};

/// The batch graph: the whole sweep is ONE task graph — per-design elaboration tasks feeding that design's stage
/// artifacts and synthesis tails — so different designs overlap on the
/// pool instead of running strictly one at a time.  Failure isolation now
/// falls out of poisoning: a failed elaboration poisons exactly that
/// design's tasks, a failed shared stage poisons exactly its dependent
/// tails.
std::vector<design_exploration> explore_designs_graph(
    const std::vector<reciprocal_design>& designs, unsigned min_bitwidth,
    unsigned max_bitwidth, const explore_options& options, task_graph_stats* sched )
{
  const auto sweep_stop = deadline::in( options.sweep_deadline_seconds );
  task_graph graph;
  std::vector<std::unique_ptr<design_build>> builds;
  for ( unsigned n = min_bitwidth; n <= max_bitwidth; ++n )
  {
    for ( const auto design : designs )
    {
      auto build = std::make_unique<design_build>();
      design_build* slot = build.get();
      slot->entry.design = design;
      slot->entry.bitwidth = n;
      slot->entry.name = design_name( design, n );
      slot->configs = default_dse_configurations( n <= options.functional_max_bitwidth );
      for ( auto& config : slot->configs )
      {
        config.verify = options.verification != verify_mode::none;
        config.verification = options.verification;
        config.limits = options.limits;
        // The per-design batch pass after the run takes over this design's
        // simulation-tier checks (see `batch_verify_deferred`).
        config.defer_sim_verify = defer_eligible( config );
      }
      slot->cache.attach_store( options.store );
      slot->points.resize( slot->configs.size() );
      // Pre-fill with the sweep deadline; the elaborate task below
      // tightens each slot by its per-config budget when the design
      // actually starts.  Sized up front so the references the flow tasks
      // capture stay stable.
      slot->stops.assign( slot->configs.size(), sweep_stop );
      slot->first_task = graph.size();
      const auto prefix = slot->entry.name + "/";
      slot->elaborate = graph.add( prefix + "elaborate", [slot, design, n, sweep_stop] {
        if ( sweep_stop.expired() )
        {
          throw budget_exhausted( "sweep deadline expired before the design started" );
        }
        fault_injection::poll( "dse.elaborate" );
        slot->aig =
            verilog::elaborate_verilog( reciprocal_verilog( design, n ), slot->entry.name )
                .aig;
        // Arm the per-configuration deadlines NOW — the design's start.
        // Every flow task depends on this task, so the writes are ordered
        // before any read.
        for ( std::size_t i = 0; i < slot->configs.size(); ++i )
        {
          slot->stops[i] =
              sweep_stop.tightened( slot->configs[i].limits.deadline_seconds );
        }
      } );
      for ( std::size_t i = 0; i < slot->configs.size(); ++i )
      {
        slot->points[i].label = dse_label( slot->configs[i] );
        slot->points[i].params = slot->configs[i];
        // Recorded params are the swept configuration: the defer flag is
        // the engine's internal routing, not part of it.
        slot->points[i].params.defer_sim_verify = false;
        slot->tails.push_back( add_flow_tasks( graph, slot->aig, slot->configs[i], slot->cache,
                                               slot->stops[i], slot->points[i].result, prefix,
                                               { slot->elaborate } )
                                   .tail );
      }
      slot->last_task = graph.size();
      builds.push_back( std::move( build ) );
    }
  }

  thread_pool pool( static_cast<unsigned>( std::min<std::size_t>(
      resolve_num_threads( options ), std::max<std::size_t>( graph.size(), 1 ) ) ) );
  graph.run( pool, sweep_stop );

  std::vector<design_exploration> explorations;
  explorations.reserve( builds.size() );
  for ( auto& build : builds )
  {
    auto& entry = build->entry;
    if ( graph.state( build->elaborate ) == task_state::done )
    {
      entry.points = std::move( build->points );
      for ( std::size_t i = 0; i < build->tails.size(); ++i )
      {
        fill_point_status( graph, build->tails[i], entry.points[i] );
      }
      batch_verify_deferred( build->aig, build->cache,
                             collect_deferred_slots( graph, build->configs, build->tails,
                                                     build->stops, entry.points ) );
      aggregate_design_status( entry );
      entry.cache = build->cache.stats();
    }
    else
    {
      // Elaboration failed, timed out, or was cancelled by the sweep
      // deadline: empty point list, design-level status record.
      const auto error = graph.error( build->elaborate );
      entry.status = is_budget_error( error ) ? flow_status::timed_out : flow_status::failed;
      entry.status_detail = error_what( error );
    }
    // Wall clock of this design = span of its own tasks inside the batch
    // run (0 when nothing of it ever started).
    double first = 0.0, last = 0.0;
    bool ran = false;
    for ( task_id id = build->first_task; id < build->last_task; ++id )
    {
      const auto start = graph.start_seconds( id );
      if ( start < 0.0 )
      {
        continue;
      }
      const auto end = std::max( start, graph.end_seconds( id ) );
      first = ran ? std::min( first, start ) : start;
      last = ran ? std::max( last, end ) : end;
      ran = true;
    }
    entry.wall_seconds = ran ? last - first : 0.0;
    explorations.push_back( std::move( entry ) );
  }
  if ( sched )
  {
    *sched = graph.stats();
  }
  return explorations;
}

} // namespace

std::vector<design_exploration> explore_designs( const std::vector<reciprocal_design>& designs,
                                                 unsigned min_bitwidth, unsigned max_bitwidth,
                                                 const explore_options& options )
{
  return explore_designs_graph( designs, min_bitwidth, max_bitwidth, options, nullptr );
}

std::vector<design_exploration> explore_designs( const std::vector<reciprocal_design>& designs,
                                                 unsigned min_bitwidth, unsigned max_bitwidth,
                                                 const explore_options& options,
                                                 task_graph_stats& sched_stats )
{
  return explore_designs_graph( designs, min_bitwidth, max_bitwidth, options, &sched_stats );
}

std::vector<std::size_t> pareto_front( const std::vector<dse_point>& points )
{
  std::vector<std::size_t> front;
  for ( std::size_t i = 0; i < points.size(); ++i )
  {
    bool dominated = false;
    for ( std::size_t j = 0; j < points.size(); ++j )
    {
      if ( i == j )
      {
        continue;
      }
      const auto& a = points[j].result.costs;
      const auto& b = points[i].result.costs;
      const bool no_worse = a.qubits <= b.qubits && a.t_count <= b.t_count;
      const bool better = a.qubits < b.qubits || a.t_count < b.t_count;
      if ( no_worse && better )
      {
        dominated = true;
        break;
      }
    }
    if ( !dominated )
    {
      front.push_back( i );
    }
  }
  return front;
}

std::string format_dse_table( const std::vector<dse_point>& points )
{
  const auto front = pareto_front( points );
  std::ostringstream os;
  os << std::left << std::setw( 24 ) << "configuration" << std::right << std::setw( 8 )
     << "qubits" << std::setw( 14 ) << "T-count" << std::setw( 10 ) << "gates" << std::setw( 10 )
     << "runtime" << std::setw( 10 ) << "verify" << "  pareto\n";
  for ( std::size_t i = 0; i < points.size(); ++i )
  {
    const auto& p = points[i];
    const bool on_front = std::find( front.begin(), front.end(), i ) != front.end();
    os << std::left << std::setw( 24 ) << p.label << std::right << std::setw( 8 )
       << p.result.costs.qubits << std::setw( 14 ) << p.result.costs.t_count << std::setw( 10 )
       << p.result.costs.gates << std::setw( 9 ) << std::fixed << std::setprecision( 2 )
       << p.result.runtime_seconds << "s" << std::setw( 9 ) << std::fixed
       << std::setprecision( 2 ) << p.result.verify_seconds << "s"
       << ( on_front ? "  *" : "" ) << "\n";
  }
  return os.str();
}

} // namespace qsyn
