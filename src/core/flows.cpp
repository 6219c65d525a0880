#include "flows.hpp"

#include <stdexcept>
#include <type_traits>

#include "../common/fault_injection.hpp"
#include "../common/timer.hpp"
#include "dse.hpp" // dse_label for tail task keys
#include "../reversible/verify.hpp"
#include "../sat/incremental.hpp"
#include "../store/artifact_store.hpp"
#include "../store/serialize.hpp"
#include "../synth/aig_optimize.hpp"
#include "../synth/collapse.hpp"
#include "../synth/esop_extract.hpp"
#include "../synth/exorcism.hpp"
#include "../verilog/elaborator.hpp"
#include "../verilog/generators.hpp"

namespace qsyn
{

std::string verify_mode_name( verify_mode mode )
{
  switch ( mode )
  {
  case verify_mode::none:
    return "none";
  case verify_mode::sampled:
    return "sampled";
  case verify_mode::exhaustive:
    return "exhaustive";
  case verify_mode::sat:
    return "sat";
  }
  return "unknown";
}

std::string flow_status_name( flow_status status )
{
  switch ( status )
  {
  case flow_status::ok:
    return "ok";
  case flow_status::degraded:
    return "degraded";
  case flow_status::timed_out:
    return "timed_out";
  case flow_status::failed:
    return "failed";
  }
  return "unknown";
}

std::optional<verify_mode> verify_mode_from_name( const std::string& name )
{
  if ( name == "none" )
  {
    return verify_mode::none;
  }
  if ( name == "sampled" )
  {
    return verify_mode::sampled;
  }
  if ( name == "exhaustive" )
  {
    return verify_mode::exhaustive;
  }
  if ( name == "sat" )
  {
    return verify_mode::sat;
  }
  return std::nullopt;
}

namespace
{

/// Functional synthesis tail: TBS over the cached embedding.  The input
/// variables are placed on the low lines, the outputs on the high lines
/// (the embedding's layout); line metadata reflects Eq. (1).
flow_result functional_tail( const flow_artifact_cache::functional_artifact& art,
                             const flow_params& params, const deadline& stop )
{
  flow_result result;
  result.embedding_lines = art.embed.num_lines;
  result.max_collisions = art.embed.max_collisions;

  tbs_params tparams;
  tparams.bidirectional = params.bidirectional_tbs;
  tparams.stop = stop;
  result.circuit = tbs_synthesize( art.embed.permutation, tparams );

  // Line metadata: inputs on the low n lines, outputs on the high m lines.
  const auto r = art.embed.num_lines;
  const auto n = art.embed.num_inputs;
  const auto m = art.embed.num_outputs;
  for ( unsigned l = 0; l < r; ++l )
  {
    auto& info = result.circuit.line( l );
    info.name = "l" + std::to_string( l );
    if ( l < n )
    {
      info.is_primary_input = true;
    }
    else
    {
      info.is_constant_input = true;
      info.constant_value = false;
    }
    if ( l >= r - m )
    {
      info.output_index = static_cast<int>( l - ( r - m ) );
      info.is_garbage = false;
    }
  }
  return result;
}

/// Disk-tier payload kind of each artifact type.  The functional
/// intermediate (truth tables + embedding) has none: it is exponential in
/// the input count by construction, so it is only ever built for small
/// designs where recomputing is cheap.
template <class Artifact>
constexpr std::optional<store::payload_kind> disk_kind{};
template <>
constexpr std::optional<store::payload_kind> disk_kind<aig_network> = store::payload_kind::aig;
template <>
constexpr std::optional<store::payload_kind> disk_kind<flow_artifact_cache::esop_artifact> =
    store::payload_kind::esop;
template <>
constexpr std::optional<store::payload_kind> disk_kind<flow_artifact_cache::xmg_artifact> =
    store::payload_kind::xmg;
template <>
constexpr std::optional<store::payload_kind> disk_kind<flow_artifact_cache::outcome_artifact> =
    store::payload_kind::flow_outcome;

void write_payload( store::byte_writer& w, const aig_network& aig )
{
  store::write_aig( w, aig );
}

void read_payload( store::byte_reader& r, aig_network& aig )
{
  aig = store::read_aig( r );
}

/// ESOP payload: budget flag byte + cube list.
void write_payload( store::byte_writer& w, const flow_artifact_cache::esop_artifact& art )
{
  w.u8( art.budget_exhausted ? 1u : 0u );
  store::write_esop( w, art.expression );
}

void read_payload( store::byte_reader& r, flow_artifact_cache::esop_artifact& art )
{
  art.budget_exhausted = r.u8() != 0u;
  art.expression = store::read_esop( r );
  art.terms = art.expression.num_terms();
}

/// XMG payload: graph + resynthesis statistics.
void write_payload( store::byte_writer& w, const flow_artifact_cache::xmg_artifact& art )
{
  store::write_xmg( w, art.graph );
  w.u64( art.stats.luts );
  w.u64( art.stats.direct_forms );
  w.u64( art.stats.pprm_forms );
  w.u64( art.stats.isop_forms );
}

void read_payload( store::byte_reader& r, flow_artifact_cache::xmg_artifact& art )
{
  art.graph = store::read_xmg( r );
  art.stats.luts = r.u64();
  art.stats.direct_forms = r.u64();
  art.stats.pprm_forms = r.u64();
  art.stats.isop_forms = r.u64();
}

/// Outcome payload: the flow result, then the budget it was produced
/// under.  Entries written before outcomes carried a budget are shorter;
/// they fail the reader's bounds checks and count as a miss.
void write_payload( store::byte_writer& w, const flow_artifact_cache::outcome_artifact& art )
{
  const auto& result = art.result;
  w.u8( static_cast<std::uint8_t>( result.status ) );
  w.u8( result.verified ? 1u : 0u );
  w.u8( static_cast<std::uint8_t>( result.verified_with ) );
  w.u8( result.verify_downgraded ? 1u : 0u );
  w.f64( result.runtime_seconds );
  w.f64( result.verify_seconds );
  w.u32( result.costs.qubits );
  w.u64( result.costs.t_count );
  w.u64( result.costs.gates );
  w.u64( result.costs.toffoli_gates );
  w.u64( result.costs.depth );
  w.u64( result.esop_terms );
  w.u64( result.xmg_maj );
  w.u64( result.xmg_xor );
  w.u32( result.embedding_lines );
  w.u64( result.max_collisions );
  w.u64( result.aig_nodes_initial );
  w.u64( result.aig_nodes_optimized );
  w.str( result.status_detail );
  store::write_circuit( w, result.circuit );
  w.f64( art.produced_with.deadline_seconds );
  w.u64( art.produced_with.sat_conflict_budget );
  w.u64( art.produced_with.sat_propagation_budget );
  w.u64( art.produced_with.exorcism_pair_budget );
}

void read_payload( store::byte_reader& r, flow_artifact_cache::outcome_artifact& art )
{
  auto& result = art.result;
  const auto status = r.u8();
  if ( status > static_cast<std::uint8_t>( flow_status::failed ) )
  {
    throw store::deserialize_error( "outcome: unknown status" );
  }
  result.status = static_cast<flow_status>( status );
  result.verified = r.u8() != 0u;
  const auto tier = r.u8();
  if ( tier > static_cast<std::uint8_t>( verify_mode::sat ) )
  {
    throw store::deserialize_error( "outcome: unknown verify tier" );
  }
  result.verified_with = static_cast<verify_mode>( tier );
  result.verify_downgraded = r.u8() != 0u;
  result.runtime_seconds = r.f64();
  result.verify_seconds = r.f64();
  result.costs.qubits = r.u32();
  result.costs.t_count = r.u64();
  result.costs.gates = r.u64();
  result.costs.toffoli_gates = r.u64();
  result.costs.depth = r.u64();
  result.esop_terms = r.u64();
  result.xmg_maj = r.u64();
  result.xmg_xor = r.u64();
  result.embedding_lines = r.u32();
  result.max_collisions = r.u64();
  result.aig_nodes_initial = r.u64();
  result.aig_nodes_optimized = r.u64();
  result.status_detail = r.str();
  result.circuit = store::read_circuit( r );
  art.produced_with.deadline_seconds = r.f64();
  art.produced_with.sat_conflict_budget = r.u64();
  art.produced_with.sat_propagation_budget = r.u64();
  art.produced_with.exorcism_pair_budget = r.u64();
}

/// Refresh hook of the kinds that never replace a published artifact.
constexpr auto keep_published = []( const auto& ) { return nullptr; };

} // namespace

// --- flow_artifact_cache -----------------------------------------------------

flow_artifact_cache::flow_artifact_cache() = default;
flow_artifact_cache::~flow_artifact_cache() = default;

void flow_artifact_cache::check_same_design( std::uint64_t hash )
{
  if ( !bound_ )
  {
    bound_ = true;
    bound_hash_ = hash;
    return;
  }
  // The structural hash (which covers the PI, node and PO counts) catches
  // equal-sized but functionally distinct designs, which a size-only
  // fingerprint silently aliased (serving one design's artifacts for the
  // other).
  if ( hash != bound_hash_ )
  {
    throw std::invalid_argument(
        "flow_artifact_cache: cache is bound to one design AIG (structural content hash "
        "mismatch); use one cache per design" );
  }
}

void flow_artifact_cache::attach_store( std::shared_ptr<store::artifact_store> disk )
{
  std::lock_guard<std::mutex> lock( mutex_ );
  store_ = std::move( disk );
}

std::uint64_t flow_artifact_cache::design_hash() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return bound_ ? bound_hash_ : 0u;
}

template <class Artifact, class Compute, class Refresh>
flow_artifact_cache::answer<Artifact>
flow_artifact_cache::lookup( std::map<std::string, cell<Artifact>>& cells, std::uint64_t hash,
                             const std::string& key, Compute&& compute, Refresh&& refresh )
{
  constexpr bool stage_kind = !std::is_same_v<Artifact, outcome_artifact>;
  cell<Artifact>* slot = nullptr;
  std::shared_ptr<store::artifact_store> disk;
  answer<Artifact> out;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    check_same_design( hash );
    slot = &cells[key];
    disk = store_;
    out.tier = slot->published ? cache_tier::memory : cache_tier::waited;
  }

  // From here on only this key's cell is held: a concurrent caller of the
  // same key waits for the computation below, then is answered `waited`.
  std::lock_guard<std::mutex> cell_lock( slot->mutex );
  if ( !slot->value )
  {
    out.tier = cache_tier::store;
    if constexpr ( disk_kind<Artifact>.has_value() )
    {
      const auto payload = disk ? disk->load( { hash, *disk_kind<Artifact>, key } ) : std::nullopt;
      if ( payload )
      {
        try
        {
          store::byte_reader r( *payload );
          auto art = std::make_shared<Artifact>();
          read_payload( r, *art );
          r.expect_end();
          slot->value = std::move( art );
        }
        catch ( const store::deserialize_error& )
        {
          // malformed payload behind a valid header: recompute below
        }
      }
    }
  }
  else if ( stage_kind && fault_injection::poll( "cache.hit" ) )
  {
    // An injected "cache.hit" trip forces this hit to behave like a miss:
    // the stage recomputes (and the recomputation is discarded — the
    // published artifact is never replaced under readers) and the miss is
    // counted.
    (void)compute();
    out.tier = cache_tier::computed;
  }
  // This caller's own computation: a miss, or a replacement `refresh`
  // made for the published value.
  std::shared_ptr<const Artifact> fresh;
  if ( !slot->value )
  {
    // A throwing computation publishes nothing: the next caller retries.
    fresh = std::make_shared<const Artifact>( compute() );
    out.tier = cache_tier::computed;
  }
  else
  {
    fresh = refresh( *slot->value );
    out.refreshed = fresh != nullptr;
  }
  // Of the outcomes only completed ones are published: a timed-out or
  // failed attempt must not pin its failure for later requesters.
  bool publish = fresh != nullptr;
  if constexpr ( !stage_kind )
  {
    publish = publish && ( fresh->result.status == flow_status::ok ||
                           fresh->result.status == flow_status::degraded );
  }
  // The superseded object is retired, not destroyed, so references handed
  // out earlier stay valid.
  auto superseded = publish ? std::exchange( slot->value, fresh ) : nullptr;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    slot->published = slot->value != nullptr;
    if constexpr ( stage_kind )
    {
      ++( out.tier == cache_tier::computed ? stats_.misses
          : out.tier == cache_tier::store  ? stats_.store_hits
                                           : stats_.hits );
    }
    if ( superseded )
    {
      retired_.push_back( std::move( superseded ) );
    }
  }
  if constexpr ( disk_kind<Artifact>.has_value() )
  {
    if ( disk && publish )
    {
      store::byte_writer w;
      write_payload( w, *fresh );
      disk->save( { hash, *disk_kind<Artifact>, key }, w.take() );
    }
  }
  out.value = fresh ? std::move( fresh ) : slot->value;
  return out;
}

const aig_network& flow_artifact_cache::optimized( const hashed_aig& design, unsigned rounds,
                                                   const deadline& stop )
{
  return *lookup(
      optimized_, design.hash(), optimize_artifact_key( rounds ),
      [&] {
        fault_injection::poll( "flow.optimize" );
        return optimize( design.aig(), rounds, stop );
      },
      keep_published ).value;
}

const flow_artifact_cache::functional_artifact&
flow_artifact_cache::functional_intermediate( const hashed_aig& design, unsigned rounds,
                                              const deadline& stop )
{
  return *lookup(
      functional_, design.hash(),
      flow_artifact_key( { .kind = flow_kind::functional, .optimization_rounds = rounds } ),
      [&] {
        const auto& opt = optimized( design, rounds, stop );
        fault_injection::poll( "flow.collapse" );
        functional_artifact art;
        art.outputs = collapse_to_truth_tables( opt );
        art.embed = embed_optimum( art.outputs );
        return art;
      },
      keep_published ).value;
}

const flow_artifact_cache::esop_artifact&
flow_artifact_cache::esop_intermediate( const hashed_aig& design, unsigned rounds,
                                        bool run_exorcism,
                                        const exorcism_params& minimize_limits )
{
  // A requester with an unexpired deadline carries budget: it may upgrade
  // a cached artifact whose minimization stopped at an earlier caller's
  // budget instead of reusing the half-minimized cube list as-is.
  const bool requester_has_budget = run_exorcism && !minimize_limits.stop.expired();
  return *lookup(
      esops_, design.hash(),
      flow_artifact_key( { .kind = flow_kind::esop_based,
                           .optimization_rounds = rounds,
                           .run_exorcism = run_exorcism } ),
      [&] {
        const auto& opt = optimized( design, rounds, minimize_limits.stop );
        fault_injection::poll( "flow.esop" );
        esop_artifact art;
        art.expression = esop_from_aig( opt );
        if ( run_exorcism )
        {
          art.budget_exhausted = exorcism( art.expression, minimize_limits ).budget_exhausted;
        }
        art.terms = art.expression.num_terms();
        return art;
      },
      [&]( const esop_artifact& cached ) -> std::shared_ptr<const esop_artifact> {
        if ( !cached.budget_exhausted || !requester_has_budget )
        {
          return nullptr;
        }
        auto upgraded = std::make_shared<esop_artifact>( cached );
        upgraded->budget_exhausted =
            exorcism( upgraded->expression, minimize_limits ).budget_exhausted;
        upgraded->terms = upgraded->expression.num_terms();
        return upgraded;
      } ).value;
}

const flow_artifact_cache::xmg_artifact&
flow_artifact_cache::xmg_intermediate( const hashed_aig& design, unsigned rounds,
                                       unsigned cut_size, const deadline& stop )
{
  return *lookup(
      xmgs_, design.hash(),
      flow_artifact_key( { .kind = flow_kind::hierarchical,
                           .optimization_rounds = rounds,
                           .cut_size = cut_size } ),
      [&] {
        const auto& opt = optimized( design, rounds, stop );
        fault_injection::poll( "flow.xmg" );
        xmg_artifact art;
        art.graph = xmg_from_aig( opt, cut_size, &art.stats );
        return art;
      },
      keep_published ).value;
}

flow_artifact_cache::answer<flow_artifact_cache::outcome_artifact>
flow_artifact_cache::outcome( const hashed_aig& design, const flow_params& params,
                              const std::function<flow_result()>& compute )
{
  const auto run = [&] { return outcome_artifact{ compute(), params.limits }; };
  return lookup( outcomes_, design.hash(), outcome_key( params ), run,
                 [&]( const outcome_artifact& cached ) -> std::shared_ptr<const outcome_artifact> {
                   // Recomputing can only improve an imperfect outcome, and
                   // only for a requester that brings strictly more budget.
                   const bool imperfect = cached.result.status == flow_status::degraded ||
                                          cached.result.verify_downgraded;
                   return imperfect && params.limits.more_generous_than( cached.produced_with )
                              ? std::make_shared<const outcome_artifact>( run() )
                              : nullptr;
                 } );
}

sat::incremental_cec& flow_artifact_cache::sat_engine()
{
  std::lock_guard<std::mutex> lock( mutex_ );
  if ( !sat_engine_ )
  {
    sat_engine_ = std::make_unique<sat::incremental_cec>();
  }
  return *sat_engine_;
}

cache_stats flow_artifact_cache::stats() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return stats_;
}

// --- task-graph builder ------------------------------------------------------

std::string optimize_artifact_key( unsigned rounds )
{
  return "optimize[r=" + std::to_string( rounds ) + "]";
}

std::string flow_artifact_key( const flow_params& params )
{
  const auto r = std::to_string( params.optimization_rounds );
  switch ( params.kind )
  {
  case flow_kind::functional:
    return "collapse[r=" + r + "]";
  case flow_kind::esop_based:
    return "esop[r=" + r + ",exo=" + ( params.run_exorcism ? "1" : "0" ) + "]";
  case flow_kind::hierarchical:
    return "xmg[r=" + r + ",k=" + std::to_string( params.cut_size ) + "]";
  }
  return "unknown";
}

std::string outcome_key( const flow_params& params )
{
  std::string key = "flow[" + flow_artifact_key( params );
  switch ( params.kind )
  {
  case flow_kind::functional:
    key += ",bidir=" + std::string( params.bidirectional_tbs ? "1" : "0" );
    break;
  case flow_kind::esop_based:
    key += ",p=" + std::to_string( params.esop_p );
    break;
  case flow_kind::hierarchical:
    key += ",cleanup=" + std::to_string( static_cast<unsigned>( params.cleanup ) );
    break;
  }
  key += ",verify=" + verify_mode_name( params.verify ? params.verification : verify_mode::none );
  key += "]";
  return key;
}

flow_task_ids add_flow_tasks( task_graph& graph, const hashed_aig& design,
                              const flow_params& params, flow_artifact_cache& cache,
                              const deadline& stop, flow_result& out,
                              const std::string& key_prefix,
                              const std::vector<task_id>& extra_deps )
{
  flow_task_ids ids;
  ids.optimize = graph.add_shared(
      key_prefix + optimize_artifact_key( params.optimization_rounds ),
      [&design, &cache, rounds = params.optimization_rounds, stop_ptr = &stop] {
        cache.optimized( design, rounds, *stop_ptr );
      },
      extra_deps );

  const auto artifact_key = key_prefix + flow_artifact_key( params );
  switch ( params.kind )
  {
  case flow_kind::functional:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&design, &cache, rounds = params.optimization_rounds, stop_ptr = &stop] {
          cache.functional_intermediate( design, rounds, *stop_ptr );
        },
        { ids.optimize } );
    break;
  case flow_kind::esop_based:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&design, &cache, rounds = params.optimization_rounds,
         run_exorcism = params.run_exorcism,
         pair_budget = params.limits.exorcism_pair_budget, stop_ptr = &stop] {
          exorcism_params mlimits;
          mlimits.pair_budget = pair_budget;
          mlimits.stop = *stop_ptr;
          cache.esop_intermediate( design, rounds, run_exorcism, mlimits );
        },
        { ids.optimize } );
    break;
  case flow_kind::hierarchical:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&design, &cache, rounds = params.optimization_rounds, cut = params.cut_size,
         stop_ptr = &stop] { cache.xmg_intermediate( design, rounds, cut, *stop_ptr ); },
        { ids.optimize } );
    break;
  }

  // Unique (unkeyed) per-configuration tail: every stage lookup inside
  // run_flow_staged hits the cache the artifact tasks just filled, so the
  // tail is pure synthesis + verification; one whose deadline expired
  // before it started reports `timed_out` without running.  `stop` is read
  // when the task runs (not copied at build time), so batch drivers can arm
  // the per-configuration clock lazily from an upstream task.
  ids.tail = graph.add(
      key_prefix + "tail:" + dse_label( params ) + "#" + std::to_string( graph.size() ),
      [&design, &cache, &out, params, stop_ptr = &stop] {
        if ( stop_ptr->expired() )
        {
          throw budget_exhausted( "deadline expired before the configuration started" );
        }
        out = run_flow_staged( design, params, cache, *stop_ptr );
      },
      { ids.artifact } );
  return ids;
}

void fill_flow_status_from_graph( const task_graph& graph, task_id tail, flow_result& out )
{
  const auto state = graph.state( tail );
  if ( state == task_state::done )
  {
    return;
  }
  // A budget expiry times the tail out; any other error fails it.
  out.status = flow_status::failed;
  std::string what = "unknown error";
  try
  {
    if ( const auto error = graph.error( tail ) )
    {
      std::rethrow_exception( error );
    }
  }
  catch ( const budget_exhausted& e )
  {
    out.status = flow_status::timed_out;
    what = e.what();
  }
  catch ( const std::exception& e )
  {
    what = e.what();
  }
  catch ( ... )
  {
  }
  const auto& blame = graph.blame( tail );
  const bool upstream = state == task_state::poisoned && blame != graph.key( tail );
  out.status_detail = upstream ? "stage '" + blame + "' failed: " + what : what;
}

// --- staged flow driver ------------------------------------------------------

namespace
{

/// Copies a simulation-tier verification report into a flow result —
/// verdict, counterexample, and the coverage accounting fields.  The
/// caller sets `result.verified_with` to the tier that produced the
/// report.
void record_sim_verify_report( flow_result& result, const partial_verify_report& report )
{
  result.counterexample = report.counterexample;
  result.verify_complete = report.complete;
  result.verify_samples_requested = report.assignments_requested;
  result.verify_samples_completed = report.assignments_completed;
  result.verified = report.complete && !report.counterexample.has_value();
}

/// Applies the verification-phase status taxonomy to a result whose
/// verify fields are final: a counterexample is a definitive verdict
/// regardless of coverage; without one, partial coverage degrades the
/// result (or times it out when nothing ran), and a downgrade to a
/// weaker-than-requested tier degrades even at full coverage.
void finalize_verify_status( flow_result& result )
{
  if ( result.counterexample.has_value() )
  {
    return;
  }
  if ( !result.verify_complete )
  {
    if ( result.verify_samples_completed == 0 )
    {
      result.status = flow_status::timed_out;
      result.status_detail = "deadline expired before any verification coverage";
    }
    else if ( result.status != flow_status::timed_out )
    {
      result.status = flow_status::degraded;
      result.status_detail = "partial verification coverage: " +
                             std::to_string( result.verify_samples_completed ) + "/" +
                             std::to_string( result.verify_samples_requested ) + " assignments";
    }
  }
  else if ( result.verify_downgraded && result.verified_with == verify_mode::sampled &&
            result.status == flow_status::ok )
  {
    result.status = flow_status::degraded;
    result.status_detail = "sat verify budget exhausted; downgraded to sampled";
  }
}

} // namespace

flow_result run_flow_staged( const hashed_aig& design, const flow_params& params,
                             flow_artifact_cache& cache )
{
  return run_flow_staged( design, params, cache, deadline::in( params.limits.deadline_seconds ) );
}

flow_result run_flow_staged( const hashed_aig& design, const flow_params& params,
                             flow_artifact_cache& cache, const deadline& stop )
{
  stopwatch watch;
  const auto& optimized = cache.optimized( design, params.optimization_rounds, stop );

  flow_result result;
  const std::vector<truth_table>* verify_outputs = nullptr;
  switch ( params.kind )
  {
  case flow_kind::functional:
  {
    const auto& art = cache.functional_intermediate( design, params.optimization_rounds, stop );
    result = functional_tail( art, params, stop );
    verify_outputs = &art.outputs;
    break;
  }
  case flow_kind::esop_based:
  {
    exorcism_params mlimits;
    mlimits.pair_budget = params.limits.exorcism_pair_budget;
    mlimits.stop = stop;
    const auto& art = cache.esop_intermediate( design, params.optimization_rounds,
                                               params.run_exorcism, mlimits );
    result.esop_terms = art.terms;
    if ( art.budget_exhausted )
    {
      result.status = flow_status::degraded;
      result.status_detail = "exorcism stopped at its pair budget/deadline";
    }
    esop_synth_params sparams;
    sparams.p = params.esop_p;
    result.circuit = esop_synthesize( art.expression, sparams );
    break;
  }
  case flow_kind::hierarchical:
  {
    const auto& art =
        cache.xmg_intermediate( design, params.optimization_rounds, params.cut_size, stop );
    result.xmg_maj = art.graph.num_maj();
    result.xmg_xor = art.graph.num_xor();
    hierarchical_params hparams;
    hparams.cleanup = params.cleanup;
    result.circuit = hierarchical_synthesize( art.graph, hparams );
    break;
  }
  }
  result.aig_nodes_initial = design.aig().num_ands();
  result.aig_nodes_optimized = optimized.num_ands();
  result.costs = report_costs( result.circuit );
  // Synthesis runtime only: the stopwatch stops BEFORE verification, which
  // is simulation and was previously (wrongly) folded into every reported
  // runtime column.
  result.runtime_seconds = watch.elapsed_seconds();

  const auto mode = params.verify ? params.verification : verify_mode::none;
  if ( mode != verify_mode::none )
  {
    stopwatch verify_watch;
    // `verified_with` is assigned by the branch that actually produces the
    // verdict, so a downgraded SAT tier reports the fallback tier.
    switch ( mode )
    {
    case verify_mode::none:
      break;
    case verify_mode::sampled:
    case verify_mode::exhaustive:
      if ( verify_outputs )
      {
        // The functional flow checks against its collapsed truth tables —
        // full bit-parallel enumeration, so sampled == exhaustive here.
        result.verified_with = mode;
        result.verified = verify_against_truth_tables( result.circuit, *verify_outputs );
      }
      else
      {
        result.verified_with = mode;
        record_sim_verify_report(
            result, mode == verify_mode::sampled
                        ? verify_against_aig_sampled_budgeted( result.circuit, optimized, stop )
                        : verify_against_aig_exhaustive_budgeted( result.circuit, optimized,
                                                                  stop ) );
      }
      break;
    case verify_mode::sat:
    {
      // Narrow designs are proved by simulation; wider ones go to the
      // cache-owned persistent engine, where every configuration of a sweep
      // re-uses the spec encoding and the lemmas of earlier checks.  An
      // injected "verify.sat" trip simulates immediate budget exhaustion.
      sat::check_limits climits;
      climits.stop = stop;
      climits.conflict_budget = params.limits.sat_conflict_budget;
      climits.propagation_budget = params.limits.sat_propagation_budget;
      sat_verify_outcome outcome;
      if ( fault_injection::poll( "verify.sat" ) )
      {
        outcome.resolved = false;
      }
      else
      {
        outcome =
            verify_against_aig_sat_budgeted( result.circuit, optimized, cache.sat_engine(), climits );
      }
      if ( outcome.resolved )
      {
        result.verified_with = verify_mode::sat;
        result.verified = outcome.equivalent;
        result.counterexample = outcome.counterexample;
      }
      else
      {
        // Verify-tier degradation ladder: the SAT tier ran out of budget.
        // Fall back to an exhaustive proof when the design is narrow
        // enough and wall-clock remains, else to budgeted sampling —
        // recording the downgrade instead of hanging or reporting failure.
        result.verify_downgraded = true;
        const bool exhaustive_fits = optimized.num_pis() <= params.limits.exhaustive_fallback_max_pis &&
                                     optimized.num_pis() <= 24u;
        if ( exhaustive_fits && !stop.expired() )
        {
          result.verified_with = verify_mode::exhaustive;
          record_sim_verify_report(
              result, verify_against_aig_exhaustive_budgeted( result.circuit, optimized, stop ) );
        }
        else
        {
          result.verified_with = verify_mode::sampled;
          record_sim_verify_report(
              result, verify_against_aig_sampled_budgeted( result.circuit, optimized, stop ) );
        }
      }
      break;
    }
    }
    result.verify_seconds = verify_watch.elapsed_seconds();

    // Status accounting of the verification phase (an exhaustive fallback
    // proof is as strong as the requested SAT proof, so it stays `ok`).
    finalize_verify_status( result );
  }
  return result;
}

flow_result run_flow_on_aig( const aig_network& aig, const flow_params& params )
{
  flow_artifact_cache cache;
  return run_flow_staged( hashed_aig( aig ), params, cache );
}

flow_result run_flow_on_verilog( const std::string& verilog_source, const flow_params& params )
{
  const auto elaborated = verilog::elaborate_verilog( verilog_source );
  return run_flow_on_aig( elaborated.aig, params );
}

std::string reciprocal_verilog( reciprocal_design design, unsigned n )
{
  return design == reciprocal_design::intdiv ? verilog::generate_intdiv( n )
                                             : verilog::generate_newton( n );
}

flow_result run_reciprocal_flow( reciprocal_design design, unsigned n, const flow_params& params )
{
  return run_flow_on_verilog( reciprocal_verilog( design, n ), params );
}

} // namespace qsyn
