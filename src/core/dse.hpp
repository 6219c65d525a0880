/// \file dse.hpp
/// \brief Design space exploration across flows and parameters.
///
/// "The various algorithms used both in classical and reversible logic
/// synthesis enable nontrivial design space exploration" — this module runs
/// a configurable set of flow configurations on one design (or a batch of
/// designs) and reports the full result list plus the Pareto frontier in
/// the (qubits, T-count) plane, the two cost metrics the paper trades off.
///
/// The exploration engine is the task graph (`core/task_graph.hpp`):
/// shared stage artifacts (optimized AIG, minimized ESOP cube list,
/// resynthesized XMG) are computed once per design through a
/// `flow_artifact_cache`, and the per-configuration tails — synthesis, then
/// that circuit's verification, inline — run on the work-stealing pool.
/// Result ordering — and every cost number and verification report — is
/// identical to a sequential loop of `run_flow_on_aig`, one call per
/// configuration; only the wall clock changes.

#pragma once

#include <string>
#include <vector>

#include "flows.hpp"

namespace qsyn
{

/// One explored configuration and its outcome.
struct dse_point
{
  std::string label;
  flow_params params;
  flow_result result;
};

/// Tuning knobs of the exploration engine.
struct explore_options
{
  /// Worker threads of the task-graph pool.
  /// 0 = `thread_pool::default_num_threads()` (hardware concurrency,
  /// overridable via QSYN_THREADS), 1 = run inline (fully sequential).
  unsigned num_threads = 0;
  /// Largest bitwidth at which batch exploration includes the functional
  /// flow (explicit synthesis range; `explore_designs` only).
  unsigned functional_max_bitwidth = functional_flow_max_bitwidth;
  /// Verification tier applied to every swept configuration
  /// (`explore_designs` only; `explore` takes fully-specified configs).
  /// `verify_mode::none` disables verification for the whole sweep.
  verify_mode verification = verify_mode::sampled;
  /// Per-flow resource limits stamped onto every swept configuration
  /// (`explore_designs` only; `explore` takes fully-specified configs).
  budget limits;
  /// Global wall-clock budget of the whole sweep (0 = unlimited).  Every
  /// per-design/per-flow deadline is tightened against it, so an exhausted
  /// sweep budget stops the remaining designs promptly — each with a
  /// `timed_out` record, never a hang or an abort.
  double sweep_deadline_seconds = 0.0;
  /// Optional persistent artifact store (disk tier).  When set, every
  /// per-design cache the exploration creates is attached to it, so a
  /// repeated sweep — including one in a fresh process — warm-starts from
  /// earlier stage artifacts instead of recomputing them (cache_stats
  /// `store_hits` counts the served artifacts).  Results are bit-identical
  /// to a cold run.  Ignored when `explore` is given a caller-owned cache
  /// (attach the store to that cache yourself).
  std::shared_ptr<store::artifact_store> store;
};

/// The default configuration sweep: functional, ESOP p=0/1/2, hierarchical
/// with each cleanup strategy.  `include_functional` can be disabled for
/// bitwidths beyond the explicit-synthesis range.
std::vector<flow_params> default_dse_configurations( bool include_functional = true );

std::string dse_label( const flow_params& params );

/// Runs all configurations on a design AIG as one task graph: coalesced
/// stage-artifact tasks feed the per-configuration synthesis tails on the
/// work-stealing pool.  The returned points are ordered exactly like
/// `configs`, and with unlimited budgets every cost, circuit and
/// verification report is bit-identical to calling `run_flow_on_aig` once
/// per configuration.  Each tail verifies its circuit inline under the
/// configuration's own deadline, as `run_flow_on_aig` does.
///
/// The sweep deadline is `options.sweep_deadline_seconds`; each
/// configuration's own `limits.deadline_seconds` tightens it further.  A
/// configuration hitting its budget or throwing is isolated into its
/// point's `result.status`, so the exploration always returns a full,
/// ordered point list.  With `cache`, stage artifacts live in (and cache
/// statistics accumulate into) that caller-owned cache, which must be used
/// for one design only; otherwise a private cache is attached to
/// `options.store`.  With `sched_stats`, the scheduler statistics of the
/// run (tasks run/coalesced, steals, wall vs critical path) are reported.
std::vector<dse_point> explore( const aig_network& aig, const std::vector<flow_params>& configs,
                                const explore_options& options = {},
                                flow_artifact_cache* cache = nullptr,
                                task_graph_stats* sched_stats = nullptr );

/// One design of a batch exploration.
struct design_exploration
{
  reciprocal_design design = reciprocal_design::intdiv;
  unsigned bitwidth = 0;
  std::string name; ///< e.g. "INTDIV(6)"
  std::vector<dse_point> points;
  cache_stats cache;          ///< stage-artifact hit/miss counters
  double wall_seconds = 0.0;  ///< elaboration + full sweep wall clock
  /// Design-level outcome: `failed`/`timed_out` when elaboration threw or
  /// the sweep budget was gone before the design started (points is then
  /// empty), otherwise the worst point status.  The sweep always completes
  /// — one pathological design never takes the batch down.
  flow_status status = flow_status::ok;
  std::string status_detail;
};

/// Batch exploration: sweeps every design in `designs` for every bitwidth
/// in [min_bitwidth, max_bitwidth] with `default_dse_configurations`
/// (functional included up to `options.functional_max_bitwidth`).  Each
/// design gets its own artifact cache.  Failures and budget expiries are
/// isolated per design (and per configuration) into status records; the
/// returned batch is always complete and ordered.
std::vector<design_exploration> explore_designs( const std::vector<reciprocal_design>& designs,
                                                 unsigned min_bitwidth, unsigned max_bitwidth,
                                                 const explore_options& options = {} );
/// As above, additionally reporting the scheduler statistics of the whole
/// batch.  The batch is ONE graph — every design's elaboration, stage
/// artifacts, and synthesis tails — so designs overlap on the pool.
std::vector<design_exploration> explore_designs( const std::vector<reciprocal_design>& designs,
                                                 unsigned min_bitwidth, unsigned max_bitwidth,
                                                 const explore_options& options,
                                                 task_graph_stats& sched_stats );

/// Indices of the Pareto-optimal points (minimizing qubits and T-count).
std::vector<std::size_t> pareto_front( const std::vector<dse_point>& points );

/// Formats the exploration as a table (one row per point, '*' marking the
/// Pareto frontier).
std::string format_dse_table( const std::vector<dse_point>& points );

} // namespace qsyn
