/// \file flows.hpp
/// \brief The paper's design flows (Sec. IV, Fig. 1): Verilog in, reversible
/// circuit out, with selectable reversible synthesis back-end.
///
/// Every flow passes the four levels of Fig. 1:
///   design level      — Verilog text (INTDIV(n) / NEWTON(n) generators or
///                       user-supplied source),
///   logic synthesis   — elaboration to an AIG + dc2-style optimization,
///                       then conversion to the back-end's input format
///                       (truth table/BDD, ESOP, or XMG),
///   reversible synth  — functional (TBS over an optimum embedding),
///                       ESOP-based (REVS, parameter p), or hierarchical
///                       (XMG, cleanup strategy),
///   quantum level     — qubit / T-count accounting (cost model, cost.hpp).
///
/// The flow is decomposed into explicit stages whose intermediate artifacts
/// (the optimized AIG, the collapsed truth tables + embedding, the
/// minimized ESOP cube list, the resynthesized XMG) live in a
/// `flow_artifact_cache` keyed on the parameter subset each stage actually
/// depends on.  A design-space sweep therefore optimizes the AIG once,
/// runs ESOP extraction + exorcism once across all `esop_p` values, and
/// builds the XMG once per `(rounds, cut_size)` across all cleanup
/// strategies; only the per-configuration synthesis tails repeat.
/// `run_flow_on_aig` remains the one-shot convenience wrapper around a
/// private cache.
///
/// Every flow closes with a verification tier selected by
/// `flow_params::verification` (`verify_mode`): bit-parallel random
/// sampling, bit-parallel exhaustive enumeration (64–512 assignments per
/// gate pass, wide_sim.hpp), or a SAT-tier proof (one exhaustive pass up
/// to 12 inputs, the incremental equivalence engine `sat::incremental_cec`
/// above) — the ladder mirrors the paper's closing ABC `cec` call, one
/// check per synthesized circuit.  The
/// check always runs inline, at the end of the flow's own synthesis tail,
/// so a DSE sweep point and a `run_flow_on_aig` call verify the same way
/// under the same deadline.  The cache owns the sweep's persistent
/// engine (`sat_engine()`), so every engine check of a sweep shares one
/// encoding and its learned lemmas.
/// The flow result carries the reversible circuit, the cost report, the
/// synthesis runtime (verification is timed separately in
/// `verify_seconds`, with the tier recorded in `verified_with`), and
/// intermediate statistics — everything the paper's tables report, so the
/// bench binaries are thin wrappers around run_flow().

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../common/budget.hpp"
#include "../embed/embedding.hpp"
#include "task_graph.hpp"
#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"
#include "../reversible/circuit.hpp"
#include "../reversible/cost.hpp"
#include "../rsynth/esop_synth.hpp"
#include "../rsynth/hierarchical.hpp"
#include "../rsynth/tbs.hpp"
#include "../synth/exorcism.hpp"
#include "../synth/xmg_resynth.hpp"

namespace qsyn
{

namespace sat
{
class incremental_cec;
} // namespace sat

/// Which design to generate at the design level.
enum class reciprocal_design
{
  intdiv,
  newton
};

/// Which reversible synthesis back-end to use.
enum class flow_kind
{
  functional,   ///< Sec. IV-A: collapse + optimum embedding + TBS
  esop_based,   ///< Sec. IV-B: ESOP + exorcism + REVS-style synthesis
  hierarchical  ///< Sec. IV-C: LUT map + XMG + hierarchical synthesis
};

/// Largest bitwidth the DSE sweep and `qsynd` run the functional flow at:
/// it collapses the design to 2^n-entry truth tables (exponential cost).
constexpr unsigned functional_flow_max_bitwidth = 9;

/// Verification tier applied to the synthesized circuit (our `cec` ladder).
enum class verify_mode
{
  none,       ///< skip verification entirely
  sampled,    ///< bit-parallel random simulation (probabilistic; silently
              ///< exhaustive when 2^inputs fits the sample budget)
  exhaustive, ///< bit-parallel enumeration of all 2^inputs assignments
              ///< (a proof; inputs <= 24)
  sat         ///< SAT miter against the extracted circuit AIG (a proof at
              ///< any width; src/sat/)
};

/// Short name of a tier ("none", "sampled", "exhaustive", "sat").
std::string verify_mode_name( verify_mode mode );
/// Inverse of `verify_mode_name`; nullopt for unknown names.
std::optional<verify_mode> verify_mode_from_name( const std::string& name );

/// Outcome taxonomy of one budgeted flow (and of one design in a DSE
/// sweep).  Anything other than `failed` carries a usable circuit/result.
enum class flow_status
{
  ok,        ///< completed within budget at the requested quality
  degraded,  ///< completed, but a budget forced a weaker result (partial
             ///< minimization, verify-tier downgrade, partial coverage)
  timed_out, ///< the deadline expired before a usable verdict/result
  failed     ///< a stage threw; see `status_detail` for the error
};

/// Short name of a status ("ok", "degraded", "timed_out", "failed").
std::string flow_status_name( flow_status status );

struct flow_params
{
  flow_kind kind = flow_kind::hierarchical;
  unsigned optimization_rounds = 2; ///< dc2-style rounds on the AIG
  bool run_exorcism = true;         ///< ESOP flow: minimize cube list
  unsigned esop_p = 0;              ///< ESOP flow: REVS factoring parameter
  cleanup_strategy cleanup = cleanup_strategy::keep_garbage; ///< hierarchical
  unsigned cut_size = 4;            ///< hierarchical flow: LUT cut size k fed
                                    ///< to the mapper before XMG resynthesis
                                    ///< (the paper's `xmglut -k`; a DSE axis;
                                    ///< must be >= 2 — the mapper throws
                                    ///< std::invalid_argument otherwise)
  bool bidirectional_tbs = true;    ///< functional flow
  bool verify = true;               ///< master toggle (false == verify_mode::none)
  verify_mode verification = verify_mode::sampled; ///< tier used when verify is on
  /// Resource limits (deadline, SAT conflict/propagation caps, EXORCISM
  /// pair cap, degradation threshold).  The default is unlimited and
  /// bit-identical to the unbudgeted engine.
  budget limits;
};

struct flow_result
{
  reversible_circuit circuit;
  cost_report costs;
  double runtime_seconds = 0.0; ///< synthesis only; stage cache hits cost
                                ///< ~0 (a hit on a key still being
                                ///< computed waits, and that wait counts)
  double verify_seconds = 0.0;  ///< verification time of the tier that ran
                                ///< (0 if verification is off)
  bool verified = false;
  verify_mode verified_with = verify_mode::none; ///< tier that actually produced `verified`
  /// Failing input assignment when a tier rejects (AIG-miter tiers only;
  /// the functional flow's truth-table check has no counterexample).
  std::optional<std::vector<bool>> counterexample;

  /// Budget outcome of the flow (see `flow_status`); `status_detail` says
  /// which budget bit and where.
  flow_status status = flow_status::ok;
  std::string status_detail;
  /// True when the requested verify tier exhausted its budget and the flow
  /// fell back to a cheaper tier (`verified_with` records the tier that
  /// ran).
  bool verify_downgraded = false;
  /// Simulation-tier coverage accounting: false when the deadline expired
  /// mid-simulation (the verdict then covers only
  /// `verify_samples_completed` of `verify_samples_requested`
  /// assignments).  SAT proofs and untimed tiers report complete = true.
  bool verify_complete = true;
  std::uint64_t verify_samples_requested = 0;
  std::uint64_t verify_samples_completed = 0;

  /// Intermediate statistics.
  std::size_t aig_nodes_initial = 0;
  std::size_t aig_nodes_optimized = 0;
  std::size_t esop_terms = 0;        ///< ESOP flow
  std::size_t xmg_maj = 0;           ///< hierarchical flow
  std::size_t xmg_xor = 0;           ///< hierarchical flow
  unsigned embedding_lines = 0;      ///< functional flow (optimum r)
  std::uint64_t max_collisions = 0;  ///< functional flow (mu)
};

namespace store
{
class artifact_store;
} // namespace store

/// Cache hit/miss counters (one "access" per stage lookup).  With a disk
/// tier attached the three counters partition the accesses: `hits` are
/// served from memory, `store_hits` are deserialized from the attached
/// `store::artifact_store` (and promoted into memory), and `misses` are
/// actually computed (then written to both tiers).  Without a store,
/// `store_hits` stays 0 and the counters keep their historical meaning.
struct cache_stats
{
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t store_hits = 0;
};

/// Which tier answered one `flow_artifact_cache` lookup.  `waited`: the
/// value was published while the caller waited on the key's cell (a value
/// published before the caller arrived is a `memory` hit).
enum class cache_tier
{
  memory,
  store,
  waited,
  computed
};

/// A design AIG with its structural content hash
/// (`aig_network::content_hash()`), computed once when the value is built.
/// It is the design argument of every `flow_artifact_cache` lookup, so a
/// lookup costs no pass over the design.  It can only be built from the
/// AIG and never changes afterwards, so the hash cannot go stale.
class hashed_aig
{
public:
  /// The 0-input, 0-output design.
  hashed_aig() : hashed_aig( aig_network( 0 ) ) {}
  explicit hashed_aig( aig_network aig )
      : aig_( std::move( aig ) ), hash_( aig_.content_hash() )
  {
  }

  [[nodiscard]] const aig_network& aig() const noexcept { return aig_; }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

private:
  aig_network aig_;
  std::uint64_t hash_;
};

/// Memoizes the stage artifacts and the synthesize outcomes of the flows
/// for ONE design AIG.  The
/// cache binds to the first design it sees via its structural content
/// hash (`hashed_aig::hash()`) and rejects any other design with
/// std::invalid_argument — including equal-sized distinct designs, which
/// the old size-only fingerprint silently aliased.  Each artifact is
/// keyed on the parameter subset the stage depends on
/// (`optimize_artifact_key` / `flow_artifact_key`, also the store key), so
/// a sweep over `esop_p` or cleanup strategies shares everything upstream
/// of the synthesis tail.
///
/// With `attach_store`, the cache gains a persistent second tier:
/// lookups go memory → disk → compute, computed artifacts are written
/// back to disk, and a fresh process warm-starts from what earlier
/// processes computed (same design hash × same parameter key — the store
/// validates both).  All accessors are thread-safe: each key owns a
/// publish-once cell, and a computation holds only its own cell, so
/// concurrent first accesses of one key compute it once (the others wait
/// and count a hit) while other keys, `stats()`, `sat_engine()`,
/// `design_hash()` and `attach_store` never wait on it.  A computation
/// that throws publishes nothing; the next caller recomputes.  References
/// returned remain valid for the cache's lifetime: an ESOP artifact or an
/// outcome replaced by a budget upgrade is retired, not destroyed.  Each
/// retirement costs one re-minimization or one synthesis, so the retired
/// objects are bounded by the number of upgrades.
///
/// Lock order: outcome cell → stage cell → optimize cell → cache mutex.
/// An outcome's computation runs a task graph whose pool tasks take stage
/// cells; no pool task ever takes an outcome cell.
class flow_artifact_cache
{
public:
  flow_artifact_cache();
  ~flow_artifact_cache(); ///< out-of-line: `sat::incremental_cec` is incomplete here
  flow_artifact_cache( const flow_artifact_cache& ) = delete;
  flow_artifact_cache& operator=( const flow_artifact_cache& ) = delete;

  /// Functional back-end intermediate: collapsed output truth tables and
  /// the line-optimum embedding.
  struct functional_artifact
  {
    std::vector<truth_table> outputs;
    embedding embed;
  };

  /// ESOP back-end intermediate: the (optionally exorcism-minimized) cube
  /// list shared by every `esop_p` tail.
  struct esop_artifact
  {
    esop expression;
    std::size_t terms = 0;
    /// True when EXORCISM stopped at its pair budget / deadline rather
    /// than at a fixpoint (the expression is valid, just less minimized).
    bool budget_exhausted = false;
  };

  /// Hierarchical back-end intermediate: the XMG shared by every cleanup
  /// strategy tail.
  struct xmg_artifact
  {
    xmg_network graph;
    xmg_resynth_stats stats;
  };

  /// Optimized AIG, keyed on the number of dc2-style rounds.  `stop` is
  /// the requester's deadline: an optimization it stops throws
  /// `budget_exhausted` and publishes nothing.  Every intermediate below
  /// passes its own deadline on to the nested `optimized` lookup.
  const aig_network& optimized( const hashed_aig& design, unsigned rounds,
                                const deadline& stop = {} );
  /// Collapse + optimum embedding, keyed on rounds.
  const functional_artifact& functional_intermediate( const hashed_aig& design, unsigned rounds,
                                                      const deadline& stop = {} );
  /// Extraction + optional exorcism, keyed on (rounds, run_exorcism).
  /// `minimize_limits` (EXORCISM pair budget + deadline) applies on a
  /// miss; on a hit whose cached artifact stopped at its budget
  /// (`budget_exhausted`), a requester that still has budget left
  /// (unexpired deadline) re-minimizes the cached expression and upgrades
  /// the entry in place — in memory and, when a store is attached, on
  /// disk — so one early tight budget can no longer pin a sweep (or a
  /// warm-started process) to a half-minimized cube list forever.
  /// References returned earlier stay valid (the superseded artifact is
  /// retired, not destroyed).
  /// `minimize_limits.stop` is also the nested optimization's deadline.
  const esop_artifact& esop_intermediate( const hashed_aig& design, unsigned rounds,
                                          bool run_exorcism,
                                          const exorcism_params& minimize_limits = {} );
  /// LUT map + XMG resynthesis, keyed on (rounds, cut_size).
  const xmg_artifact& xmg_intermediate( const hashed_aig& design, unsigned rounds,
                                        unsigned cut_size, const deadline& stop = {} );

  /// A synthesize outcome plus the budget it was produced under.
  struct outcome_artifact
  {
    flow_result result;
    budget produced_with;
  };

  /// The value one lookup answered with, and how; `refreshed` means this
  /// caller replaced a published value (a budget upgrade).
  template <class Artifact>
  struct answer
  {
    std::shared_ptr<const Artifact> value;
    cache_tier tier = cache_tier::memory;
    bool refreshed = false;
  };

  /// The synthesize outcome of `params` (`qsynd`'s result cache) on
  /// `design`, keyed on `outcome_key(params)`.  `compute` runs on a miss,
  /// and to upgrade an imperfect (degraded or verify-downgraded) outcome
  /// for strictly more generous `params.limits`.  Only `ok`/`degraded` outcomes are
  /// published; a `timed_out`/`failed` one reaches only its computing
  /// caller.  Not counted in `stats()`; does not poll `cache.hit`.
  answer<outcome_artifact> outcome( const hashed_aig& design, const flow_params& params,
                                    const std::function<flow_result()>& compute );

  /// The cache's persistent incremental SAT equivalence engine
  /// (`sat::incremental_cec`), created on first use.  Every `sat`-tier
  /// verification of a `run_flow_staged` call on this cache whose design
  /// is wider than `sat_tier_simulation_max_pis` inputs goes through it,
  /// so a sweep's configurations share the spec encoding, fraig merges, and
  /// learned lemmas instead of re-encoding the miter from scratch per
  /// configuration.  Thread-safe (the engine serializes internally; creation
  /// is guarded by the cache mutex), and verdict-identical to a fresh
  /// engine per call — reuse only changes the wall clock.
  sat::incremental_cec& sat_engine();

  /// Attaches (or detaches, with nullptr) the persistent disk tier.  The
  /// store is consulted between memory lookup and computation and written
  /// back to on every computation (and ESOP upgrade); several caches —
  /// across threads and processes — may share one store.
  void attach_store( std::shared_ptr<store::artifact_store> disk );

  /// Structural content hash of the bound design (0 until the first
  /// lookup binds the cache) — the store tier's design key.
  [[nodiscard]] std::uint64_t design_hash() const;

  cache_stats stats() const;

private:
  /// One key's publish-once slot: `mutex` is held while the artifact is
  /// computed or upgraded and while `value` (null until then) is read.
  /// `published` mirrors `value` under the cache mutex (hit vs wait).
  template <class Artifact>
  struct cell
  {
    std::mutex mutex;
    std::shared_ptr<const Artifact> value;
    bool published = false;
  };

  /// The one lookup of every kind (memory → store → compute → publish →
  /// save); `refresh` may replace a published value (budget upgrade).
  template <class Artifact, class Compute, class Refresh>
  answer<Artifact> lookup( std::map<std::string, cell<Artifact>>& cells, std::uint64_t hash,
                           const std::string& key, Compute&& compute, Refresh&& refresh );
  void check_same_design( std::uint64_t hash );

  /// Guards only cell find-or-insert, `published`, the binding, stats_ and retired_.
  mutable std::mutex mutex_;
  std::map<std::string, cell<aig_network>> optimized_; ///< cells are never erased
  std::map<std::string, cell<functional_artifact>> functional_;
  std::map<std::string, cell<esop_artifact>> esops_;
  std::map<std::string, cell<xmg_artifact>> xmgs_;
  std::map<std::string, cell<outcome_artifact>> outcomes_;
  std::vector<std::shared_ptr<const void>> retired_; ///< superseded, kept alive
  std::unique_ptr<sat::incremental_cec> sat_engine_; ///< lazily created
  std::shared_ptr<store::artifact_store> store_; ///< optional disk tier
  cache_stats stats_;
  bool bound_ = false;           ///< cache is bound to the first design seen
  std::uint64_t bound_hash_ = 0; ///< content hash of the bound design
};

/// Task/cache key of the optimized-AIG artifact, e.g. "optimize[r=2]".
std::string optimize_artifact_key( unsigned rounds );

/// Task/cache key of the backend intermediate artifact — the exact
/// parameter subset `flow_artifact_cache` keys the stage on:
/// "collapse[r=2]", "esop[r=2,exo=1]", or "xmg[r=2,k=4]".
std::string flow_artifact_key( const flow_params& params );

/// Cache key of a whole synthesize outcome: the flow's full parameter
/// identity plus the verify tier (a cached verdict must match the tier
/// that was asked for), e.g. "flow[esop[r=2,exo=1],p=1,verify=sampled]".
std::string outcome_key( const flow_params& params );

/// Task ids of one staged flow added to a graph by `add_flow_tasks`.
struct flow_task_ids
{
  task_id optimize = 0; ///< optimized-AIG artifact (shared across kinds)
  task_id artifact = 0; ///< backend intermediate artifact (shared per key)
  task_id tail = 0;     ///< per-configuration synthesis tail + verify
};

/// Adds the staged flow of `params` to `graph` as a dependency chain
/// `optimize → backend intermediate → synthesis tail`, returning the
/// three task ids.  Artifact tasks are keyed `key_prefix +
/// optimize_artifact_key/flow_artifact_key` via `task_graph::add_shared`,
/// so configurations (or repeat calls) sharing an artifact coalesce onto
/// ONE task — the first caller's budget limits and deadline apply to the
/// shared stage (a later tail with remaining budget upgrades a
/// budget-exhausted ESOP artifact through
/// `flow_artifact_cache::esop_intermediate`'s re-minimization path; a
/// stage its deadline stopped publishes nothing and the next request
/// recomputes it).  The tail task runs
/// `run_flow_staged` (every stage lookup then hits) and assigns `out`;
/// `design`, `cache`, `stop`, and `out` must outlive the graph run.  `stop`
/// is read when each task runs, not copied at build time, so a batch
/// driver can arm the per-configuration deadline lazily from an upstream
/// task (e.g. the design's elaborate task) and late-scheduled designs do
/// not see their per-flow clock consumed by earlier ones.  `extra_deps`
/// are prepended to the optimize task's dependencies (e.g. a per-design
/// elaboration task).  A failing stage task poisons only the tails that
/// depend on it; the DSE layer maps the poisoned tasks' blame keys back
/// into `flow_status` records.
flow_task_ids add_flow_tasks( task_graph& graph, const hashed_aig& design,
                              const flow_params& params, flow_artifact_cache& cache,
                              const deadline& stop, flow_result& out,
                              const std::string& key_prefix = {},
                              const std::vector<task_id>& extra_deps = {} );

/// Maps the terminal state of a flow tail task back onto `out`'s status
/// record after the graph ran.  A `done` tail already wrote its own
/// result (no-op); a cancelled/failed/poisoned tail becomes `timed_out`
/// (when the underlying error is `budget_exhausted`) or `failed`, and a
/// poisoned tail's detail names the failing stage task — artifact key and
/// stage name — so a shared-stage failure stays attributable per
/// requester.  Shared by the DSE sweep engine (for its tails and for a
/// design's root elaboration task) and the synthesis daemon.
void fill_flow_status_from_graph( const task_graph& graph, task_id tail, flow_result& out );

/// Runs a flow on an already-elaborated AIG, reading shared stage
/// artifacts from (and adding missing ones to) the given cache.  Cost and
/// circuit results are bit-identical to the uncached path; only
/// `runtime_seconds` shrinks on cache hits.  Budgets come from
/// `params.limits` (the deadline is armed at call entry); expiry inside a
/// kernel without a partial result (TBS) throws `qsyn::budget_exhausted`,
/// anytime kernels and the verify ladder degrade instead and record it in
/// `status` / `verify_downgraded`.
flow_result run_flow_staged( const hashed_aig& design, const flow_params& params,
                             flow_artifact_cache& cache );

/// As above with an externally armed deadline (e.g. a DSE sweep deadline
/// already tightened by the per-design budget); `params.limits`'s
/// non-deadline caps still apply.
flow_result run_flow_staged( const hashed_aig& design, const flow_params& params,
                             flow_artifact_cache& cache, const deadline& stop );

/// Runs a flow on an already-elaborated AIG (one-shot private cache).
flow_result run_flow_on_aig( const aig_network& aig, const flow_params& params );

/// Runs a flow on Verilog source (parse, elaborate, optimize, synthesize).
flow_result run_flow_on_verilog( const std::string& verilog_source, const flow_params& params );

/// Runs a flow on one of the paper's reciprocal designs.
flow_result run_reciprocal_flow( reciprocal_design design, unsigned n, const flow_params& params );

/// Verilog source of a reciprocal design (generator passthrough).
std::string reciprocal_verilog( reciprocal_design design, unsigned n );

} // namespace qsyn
