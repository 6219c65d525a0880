/// \file replay.cpp
/// \brief The traced, single-threaded replay of a workload's flows.
///
/// The replay calls the public stage functions in flow order — generate +
/// elaborate, the balance/refactor rounds of `optimize`, then per backend
/// collapse → embed → TBS, ESOP extract → EXORCISM → ESOP synthesis, or
/// LUT map → XMG → hierarchical synthesis, then `report_costs` and the
/// workload's verify tier (one `incremental_cec` per design for SAT, as
/// the artifact cache keeps one).  Every result is compared with the
/// program's own `flow_result` for the same configuration; a difference
/// fails the run, because the per-layer numbers would then describe a
/// different program.

#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/dse.hpp"
#include "reversible/verify.hpp"
#include "sat/incremental.hpp"
#include "sweep.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/collapse.hpp"
#include "synth/esop_extract.hpp"
#include "synth/lut_map.hpp"
#include "verilog/elaborator.hpp"

namespace qbench
{

namespace
{

using namespace qsyn;

/// Runs `fn` inside a span and returns its wall time in seconds.
template<class Fn>
double staged( span_recorder& spans, const char* name, int design, Fn&& fn )
{
  scoped_span span( spans, name, design );
  const double start = mono_now();
  fn();
  return mono_now() - start;
}

struct functional_art
{
  std::vector<truth_table> outputs;
  embedding embed;
};

/// The functional flow's tail: TBS over the embedding's permutation, with
/// the flow's line layout (inputs on the low lines, constant-0 ancillae
/// above them, outputs on the high lines).
reversible_circuit functional_circuit( const embedding& embed, const flow_params& params )
{
  tbs_params tparams;
  tparams.bidirectional = params.bidirectional_tbs;
  auto circuit = tbs_synthesize( embed.permutation, tparams );
  const auto r = embed.num_lines;
  for ( unsigned l = 0; l < r; ++l )
  {
    auto& info = circuit.line( l );
    info.name = "l" + std::to_string( l );
    if ( l < embed.num_inputs )
    {
      info.is_primary_input = true;
    }
    else
    {
      info.is_constant_input = true;
      info.constant_value = false;
    }
    if ( l >= r - embed.num_outputs )
    {
      info.output_index = static_cast<int>( l - ( r - embed.num_outputs ) );
      info.is_garbage = false;
    }
  }
  return circuit;
}

} // namespace

const std::vector<std::string>& stage_names()
{
  static const std::vector<std::string> names = {
      "verilog", "optimize", "lut_map", "xmg", "collapse", "embed", "esop",
      "exorcism", "tbs", "esop_synth", "hier", "cost", "verify", "sat" };
  return names;
}

replay_result replay_designs( const std::vector<replay_design>& designs, verify_mode mode,
                              bool deferred_sim_verify, bool check_optimize_hash,
                              span_recorder& spans )
{
  replay_result out;
  auto& counts = out.counts;
  double excluded = 0.0; // hash re-checks, outside every span
  const double start = mono_now();
  for ( std::size_t d = 0; d < designs.size(); ++d )
  {
    const auto& rd = designs[d];
    const int di = static_cast<int>( d );
    scoped_span design_span( spans, "design", di );

    aig_network aig;
    const double verilog_s = staged( spans, "verilog", di, [&] {
      aig = verilog::elaborate_verilog( reciprocal_verilog( rd.design, rd.bitwidth ), rd.name ).aig;
    } );
    counts.verilog_ands += aig.num_ands();

    std::map<unsigned, aig_network> optimized;
    std::map<unsigned, double> optimize_s;
    std::map<unsigned, functional_art> functionals;
    std::map<std::pair<unsigned, bool>, esop> esops;
    std::map<std::pair<unsigned, unsigned>, xmg_network> xmgs;
    /// Per artifact key: stage time and slowest tail on the critical path.
    std::map<std::string, std::pair<double, double>> branches;
    std::map<std::string, unsigned> branch_rounds;
    std::unique_ptr<sat::incremental_cec> engine;
    if ( mode == verify_mode::sat )
    {
      engine = std::make_unique<sat::incremental_cec>();
    }

    auto& outcomes = out.outcomes.emplace_back();
    for ( const auto& params : rd.configs )
    {
      const auto rounds = params.optimization_rounds;
      if ( !optimized.count( rounds ) )
      {
        aig_network current;
        optimize_s[rounds] = staged( spans, "optimize", di, [&] {
          current = aig.cleanup();
          for ( unsigned r = 0; r < rounds; ++r )
          {
            const auto before = current.num_ands();
            staged( spans, "balance", di, [&] { current = aig_balance( current ); } );
            staged( spans, "refactor", di, [&] { current = aig_refactor( current ); } );
            current = current.cleanup();
            if ( current.num_ands() >= before )
            {
              break;
            }
          }
        } );
        counts.optimize_ands_in += aig.num_ands();
        counts.optimize_ands_out += current.num_ands();
        if ( check_optimize_hash )
        {
          const double t = mono_now();
          if ( optimize( aig, rounds ).content_hash() != current.content_hash() )
          {
            ++counts.hash_mismatches;
          }
          excluded += mono_now() - t;
        }
        optimized.emplace( rounds, std::move( current ) );
      }
      const auto& opt = optimized.at( rounds );
      const auto key = flow_artifact_key( params );
      branch_rounds[key] = rounds;
      auto& branch = branches[key];

      replay_outcome outcome;
      outcome.aig_nodes_optimized = opt.num_ands();
      reversible_circuit circuit;
      const std::vector<truth_table>* spec_tables = nullptr;
      double tail = 0.0;
      switch ( params.kind )
      {
      case flow_kind::functional:
      {
        if ( !functionals.count( rounds ) )
        {
          functional_art art;
          branch.first += staged( spans, "collapse", di,
                                  [&] { art.outputs = collapse_to_truth_tables( opt ); } );
          branch.first += staged( spans, "embed", di,
                                  [&] { art.embed = embed_optimum( art.outputs ); } );
          counts.embed_lines += art.embed.num_lines;
          functionals.emplace( rounds, std::move( art ) );
        }
        const auto& art = functionals.at( rounds );
        spec_tables = &art.outputs;
        tail += staged( spans, "tbs", di, [&] { circuit = functional_circuit( art.embed, params ); } );
        break;
      }
      case flow_kind::esop_based:
      {
        const auto ekey = std::make_pair( rounds, params.run_exorcism );
        if ( !esops.count( ekey ) )
        {
          esop expression;
          branch.first += staged( spans, "esop", di, [&] { expression = esop_from_aig( opt ); } );
          if ( params.run_exorcism )
          {
            exorcism_params mparams;
            mparams.pair_budget = params.limits.exorcism_pair_budget;
            branch.first +=
                staged( spans, "exorcism", di, [&] { exorcism( expression, mparams ); } );
          }
          counts.exorcism_terms += expression.num_terms();
          esops.emplace( ekey, std::move( expression ) );
        }
        const auto& expression = esops.at( ekey );
        outcome.esop_terms = expression.num_terms();
        esop_synth_params sparams;
        sparams.p = params.esop_p;
        tail += staged( spans, "esop_synth", di,
                        [&] { circuit = esop_synthesize( expression, sparams ); } );
        break;
      }
      case flow_kind::hierarchical:
      {
        const auto xkey = std::make_pair( rounds, params.cut_size );
        if ( !xmgs.count( xkey ) )
        {
          lut_network luts;
          lut_map_params lparams;
          lparams.cut_size = params.cut_size;
          branch.first += staged( spans, "lut_map", di, [&] { luts = lut_map( opt, lparams ); } );
          counts.lut_map_ands_in += opt.num_ands();
          counts.luts += luts.luts.size();
          xmg_network graph;
          branch.first += staged( spans, "xmg", di, [&] { graph = xmg_from_luts( luts ); } );
          counts.xmg_maj += graph.num_maj();
          counts.xmg_xor += graph.num_xor();
          xmgs.emplace( xkey, std::move( graph ) );
        }
        const auto& graph = xmgs.at( xkey );
        outcome.xmg_maj = graph.num_maj();
        outcome.xmg_xor = graph.num_xor();
        hierarchical_params hparams;
        hparams.cleanup = params.cleanup;
        tail += staged( spans, "hier", di,
                        [&] { circuit = hierarchical_synthesize( graph, hparams ); } );
        break;
      }
      }
      counts.rsynth_gates += circuit.num_gates();
      tail += staged( spans, "cost", di, [&] { outcome.costs = report_costs( circuit ); } );

      const bool deferred = deferred_sim_verify && params.kind != flow_kind::functional &&
                            mode != verify_mode::sat;
      double verify_s = 0.0;
      if ( mode == verify_mode::sat )
      {
        verify_s = staged( spans, "sat", di, [&] {
          const auto r = verify_against_aig_sat_budgeted( circuit, opt, *engine, sat::check_limits{} );
          outcome.verified = r.resolved && r.equivalent;
        } );
      }
      else if ( mode != verify_mode::none )
      {
        verify_s = staged( spans, "verify", di, [&] {
          if ( spec_tables )
          {
            outcome.verified = verify_against_truth_tables( circuit, *spec_tables );
            counts.verify_assignments += std::uint64_t{ 1 } << opt.num_pis();
            return;
          }
          const auto report = mode == verify_mode::sampled
                                  ? verify_against_aig_sampled_budgeted( circuit, opt, deadline{} )
                                  : verify_against_aig_exhaustive_budgeted( circuit, opt, deadline{} );
          outcome.verified = report.complete && !report.counterexample;
          counts.verify_assignments += report.assignments_completed;
        } );
      }
      if ( !deferred )
      {
        tail += verify_s;
      }
      branch.second = std::max( branch.second, tail );
      outcomes.push_back( outcome );
    }
    if ( engine )
    {
      const auto s = engine->stats();
      counts.sat_checks += s.checks;
      counts.sat_conflicts += s.solver_conflicts;
      counts.sat_fraig_merges += s.fraig_merges;
    }
    double slowest = 0.0;
    for ( const auto& [key, branch] : branches )
    {
      slowest = std::max( slowest, optimize_s.at( branch_rounds.at( key ) ) + branch.first +
                                       branch.second );
    }
    counts.crit_ideal_seconds = std::max( counts.crit_ideal_seconds, verilog_s + slowest );
  }
  out.seconds = mono_now() - start - excluded;
  return out;
}

std::string compare_outcome( const replay_outcome& replayed, const flow_result& program )
{
  const auto& a = replayed.costs;
  const auto& b = program.costs;
  if ( a.qubits != b.qubits || a.t_count != b.t_count || a.gates != b.gates ||
       a.toffoli_gates != b.toffoli_gates || a.depth != b.depth )
  {
    return "cost report differs (replay qubits/T " + std::to_string( a.qubits ) + "/" +
           std::to_string( a.t_count ) + ", program " + std::to_string( b.qubits ) + "/" +
           std::to_string( b.t_count ) + ")";
  }
  if ( replayed.aig_nodes_optimized != program.aig_nodes_optimized )
  {
    return "optimized AND count differs";
  }
  if ( replayed.esop_terms != program.esop_terms )
  {
    return "ESOP term count differs";
  }
  if ( replayed.xmg_maj != program.xmg_maj || replayed.xmg_xor != program.xmg_xor )
  {
    return "XMG maj/xor count differs";
  }
  if ( replayed.verified != program.verified )
  {
    return "verification verdict differs";
  }
  return {};
}

void add_replay_metrics( std::map<std::string, double>& m, const replay_result& traced,
                         const span_recorder& spans, double plain_seconds )
{
  const auto total = spans.total_seconds();
  const auto self = spans.self_seconds();
  const auto get = []( const std::map<std::string, double>& from, const std::string& name ) {
    const auto it = from.find( name );
    return it == from.end() ? 0.0 : it->second;
  };
  const auto& c = traced.counts;
  // A stage's time is its span; only optimize has children (its rounds),
  // which belong to it in the ranking.
  double stage_sum = 0.0;
  for ( const auto& stage : stage_names() )
  {
    stage_sum += get( total, stage );
  }
  for ( const auto& stage : stage_names() )
  {
    m[stage + ".share"] = stage_sum > 0.0 ? get( total, stage ) / stage_sum : 0.0;
  }
  m["stages.ms"] = stage_sum * 1e3;
  m["verilog.ms"] = get( self, "verilog" ) * 1e3;
  m["verilog.ands"] = static_cast<double>( c.verilog_ands );
  m["optimize.ms"] = get( total, "optimize" ) * 1e3;
  m["optimize.balance_ms"] = get( total, "balance" ) * 1e3;
  m["optimize.refactor_ms"] = get( total, "refactor" ) * 1e3;
  m["optimize.ands_out"] = static_cast<double>( c.optimize_ands_out );
  m["optimize.us_per_and"] =
      c.optimize_ands_in ? get( total, "optimize" ) * 1e6 / static_cast<double>( c.optimize_ands_in ) : 0.0;
  m["lut_map.ms"] = get( self, "lut_map" ) * 1e3;
  m["lut_map.us_per_and"] =
      c.lut_map_ands_in ? get( self, "lut_map" ) * 1e6 / static_cast<double>( c.lut_map_ands_in ) : 0.0;
  m["lut_map.luts"] = static_cast<double>( c.luts );
  m["xmg.ms"] = get( self, "xmg" ) * 1e3;
  m["xmg.maj"] = static_cast<double>( c.xmg_maj );
  m["xmg.xor"] = static_cast<double>( c.xmg_xor );
  m["collapse.ms"] = get( self, "collapse" ) * 1e3;
  m["embed.ms"] = get( self, "embed" ) * 1e3;
  m["embed.lines"] = static_cast<double>( c.embed_lines );
  m["esop.ms"] = get( self, "esop" ) * 1e3;
  m["exorcism.ms"] = get( self, "exorcism" ) * 1e3;
  m["exorcism.terms"] = static_cast<double>( c.exorcism_terms );
  m["tbs.ms"] = get( self, "tbs" ) * 1e3;
  m["esop_synth.ms"] = get( self, "esop_synth" ) * 1e3;
  m["hier.ms"] = get( self, "hier" ) * 1e3;
  m["rsynth.gates"] = static_cast<double>( c.rsynth_gates );
  m["cost.ms"] = get( self, "cost" ) * 1e3;
  m["verify.sim_ms"] = get( self, "verify" ) * 1e3;
  m["verify.assignments"] = static_cast<double>( c.verify_assignments );
  m["sat.ms"] = get( self, "sat" ) * 1e3;
  m["sat.checks"] = static_cast<double>( c.sat_checks );
  m["sat.conflicts"] = static_cast<double>( c.sat_conflicts );
  m["sat.fraig_merges"] = static_cast<double>( c.sat_fraig_merges );
  m["trace.overhead_frac"] = plain_seconds > 0.0 ? ( traced.seconds - plain_seconds ) / plain_seconds : 0.0;
}

int run_replay_command( const std::map<std::string, std::string>& args )
{
  const auto seed = std::stoull( arg_or( args, "seed", "1" ) );
  const auto workload = sweep_workload_named( arg_or( args, "workload", "" ), seed );
  const auto trace_out = arg_or( args, "trace-out", "" );
  const auto threads = sweep_threads();

  qsyn::explore_options options;
  options.num_threads = threads;
  options.functional_max_bitwidth = workload.functional_max_bitwidth;
  options.verification = workload.verification;
  qsyn::task_graph_stats graph;
  const double start = mono_now();
  const auto batch = qsyn::explore_designs( workload.designs, workload.min_bitwidth,
                                            workload.max_bitwidth, options, graph );
  const double sweep_wall = mono_now() - start;
  const auto totals = summarize_sweep( batch );

  std::vector<replay_design> designs;
  std::vector<std::string> names;
  for ( const auto& entry : batch )
  {
    replay_design rd{ entry.design, entry.bitwidth, entry.name, {} };
    for ( const auto& point : entry.points )
    {
      rd.configs.push_back( point.params );
    }
    designs.push_back( std::move( rd ) );
    names.push_back( entry.name );
  }

  // The same replay timed end to end only, then with spans: the difference
  // is the tracing overhead.
  span_recorder untraced( false );
  const auto plain = replay_designs( designs, workload.verification, true, false, untraced );
  span_recorder spans( true );
  const auto traced = replay_designs( designs, workload.verification, true, true, spans );
  if ( !trace_out.empty() )
  {
    spans.write_chrome_trace( trace_out, names );
  }

  outcome_tally tally;
  if ( traced.counts.hash_mismatches )
  {
    tally.add_error( "replayed optimize rounds differ from optimize()" );
  }
  for ( std::size_t d = 0; d < batch.size(); ++d )
  {
    for ( std::size_t i = 0; i < batch[d].points.size(); ++i )
    {
      tally.add( batch[d].points[i].result, batch[d].name + " " + batch[d].points[i].label,
                 compare_outcome( traced.outcomes[d][i], batch[d].points[i].result ) );
    }
  }

  std::map<std::string, double> m;
  add_replay_metrics( m, traced, spans, plain.seconds );
  const double lookups = static_cast<double>( totals.cache_hits + totals.cache_misses );
  m["cache.hits"] = static_cast<double>( totals.cache_hits );
  m["cache.misses"] = static_cast<double>( totals.cache_misses );
  m["cache.hit_ratio"] = lookups > 0.0 ? static_cast<double>( totals.cache_hits ) / lookups : 0.0;
  m["graph.tasks_run"] = static_cast<double>( graph.tasks_run );
  m["graph.coalesced"] = static_cast<double>( graph.coalesced );
  m["graph.steals"] = static_cast<double>( graph.steals );
  m["graph.max_concurrency"] = static_cast<double>( graph.max_concurrency );
  m["graph.crit_path_s"] = graph.critical_path_seconds;
  m["graph.crit_ideal_s"] = traced.counts.crit_ideal_seconds;
  m["graph.busy_frac"] = m["stages.ms"] * 1e-3 / ( sweep_wall * threads );

  json_object metrics;
  for ( const auto& [name, value] : m )
  {
    metrics.num( name, value );
  }
  json_object out;
  out.integer( "attempted", totals.flows )
      .integer( "failed", tally.failed )
      .integer( "wrong", tally.wrong )
      .str( "first_error", tally.first_error )
      .num( "sweep_wall_s", sweep_wall )
      .num( "replay_s", traced.seconds )
      .raw( "metrics", metrics.text() );
  std::printf( "%s\n", out.text().c_str() );
  return 0;
}

} // namespace qbench
