#include "dse.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "../common/fault_injection.hpp"
#include "../common/thread_pool.hpp"
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

  // One dependency DAG per exploration — coalesced stage-artifact tasks
  // feeding unique per-configuration tails — so distinct artifacts compute
  // concurrently with each other and with every tail that is already
  // unblocked.  Results land in caller-indexed slots and every task is
  // deterministic, so the point list does not depend on the schedule.
  task_graph graph;
  std::vector<task_id> tails( configs.size() );
  for ( std::size_t i = 0; i < configs.size(); ++i )
  {
    points[i].label = dse_label( configs[i] );
    points[i].params = configs[i];
    tails[i] = add_flow_tasks( graph, aig, configs[i], *cache, stops[i], points[i].result ).tail;
  }

  // Never start more workers than there are tasks to run.
  thread_pool pool( static_cast<unsigned>( std::min<std::size_t>(
      resolve_num_threads( options ), std::max<std::size_t>( graph.size(), 1 ) ) ) );
  graph.run( pool, stop );
  for ( std::size_t i = 0; i < configs.size(); ++i )
  {
    fill_flow_status_from_graph( graph, tails[i], points[i].result );
  }
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
        fill_flow_status_from_graph( graph, build->tails[i], entry.points[i].result );
      }
      aggregate_design_status( entry );
      entry.cache = build->cache.stats();
    }
    else
    {
      // Elaboration failed, timed out, or was cancelled by the sweep
      // deadline: empty point list, design-level status record.
      flow_result elaboration;
      fill_flow_status_from_graph( graph, build->elaborate, elaboration );
      entry.status = elaboration.status;
      entry.status_detail = elaboration.status_detail;
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
