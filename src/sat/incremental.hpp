/// \file incremental.hpp
/// \brief Incremental, structurally-hashed SAT equivalence engine.
///
/// `incremental_cec` replaces the one-monolithic-miter-per-call scheme of
/// `check_equivalence` (cnf.hpp) for the hot verification paths.  One engine
/// instance owns ONE persistent CDCL solver and an internal AND-node store;
/// every `check()` call encodes its two AIGs *into the union store* through
/// hash-consing:
///
///  * **Shared structural hashing.**  AND nodes are hash-consed across both
///    sides of a miter AND across successive calls, so identical
///    substructure — the spec cone shared by every configuration of a DSE
///    sweep, or logic shared between an implementation and its spec — is
///    encoded into CNF exactly once.  Outputs whose cones collapse to the
///    same internal literal are proven equivalent with zero solver work.
///  * **Per-output miters under assumptions.**  Instead of one global OR
///    over all output XORs, each output pair gets its own miter activated by
///    a fresh assumption literal on the persistent solver.  UNSAT retires
///    the assumption and asserts the output equality as a permanent lemma
///    (sound: the trigger occurs nowhere else, so UNSAT under the
///    assumption proves the equality from the encoding alone), which
///    accelerates every later call that reaches the same cone.
///  * **Simulation-guided fraiging.**  Every internal node carries a 64-way
///    bit-parallel signature (one 64-bit pattern word per signature
///    column, word-AND/word-NOT over fanins).  Signature-equal node pairs
///    become candidate equivalences that are proven or refuted — free
///    structural/window proofs first, then a budgeted SAT attempt on the
///    persistent solver — *before* the output miters run; proven pairs are
///    merged (class representative + permanent equality clauses), so the
///    final miters see an already-swept union graph.  Refuting models are
///    fed back as fresh simulation patterns (counterexample-guided
///    refinement), splitting the false candidate classes wholesale.
///  * **CDCL upgrades** live in solver.hpp: activity/LBD-scored learned
///    clause deletion and Luby restarts keep the persistent solver healthy
///    across a long sequence of checks.
///
/// ## Counterexample contract
///
/// `check()` reports the *lowest-indexed* differing output
/// (`failing_output`) together with one input assignment on which the two
/// AIGs differ at that output.  The assignment is engine-dependent but
/// always real: it is the model of the failing per-output miter, and
/// tests/test_sat.cpp round-trips it through both networks.  When the
/// networks are equivalent, `check()` is a proof (structural identity, a
/// window proof, or UNSAT of every per-output or batched miter).  The SAT
/// tier of the verifier (reversible/verify.hpp) decides narrow designs by
/// exhaustive simulation before they reach this engine, so the engine
/// itself has one path: structural scan, fraig, then miters.
///
/// ## Thread safety
///
/// `check()` is serialized through an internal mutex: concurrent calls from
/// a DSE thread pool are safe and observe each other's learned structure.
/// Statistics accessors take the same mutex.  The engine may outlive the
/// AIGs passed to `check()` (nothing is retained by reference).

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "../logic/aig.hpp"
#include "solver.hpp"

namespace qsyn::sat
{

/// Tuning knobs of the incremental equivalence engine.
struct cec_options
{
  /// Process signature-equal node pairs (fraig candidates) before the
  /// output miters: structural merge modulo classes, then the exhaustive
  /// 64-way window proof, then a budgeted SAT attempt on the persistent
  /// solver.  Refuting models become new simulation patterns that split
  /// the signature classes (counterexample-guided refinement), so one
  /// false candidate pays for eliminating many.
  bool fraiging = true;
  /// Conflict budget of the per-candidate SAT attempt (on the persistent
  /// solver).  0 (the default) disables the SAT attempt: candidates are
  /// then proven only by the free structural/window paths and dropped
  /// otherwise, which bounds fraiging overhead per check — measured on the
  /// NEWTON(8) miters, SAT-backed candidate proving costs far more than
  /// the final miters it saves.
  std::uint64_t fraig_conflict_budget = 0;
  /// Expansion depth of the 64-way window proof used as a *fraig hint*
  /// (see incremental.cpp, `window_proves_equal`).
  unsigned fraig_window_depth = 8;
  /// Node cap of one fraig-hint window expansion.
  std::size_t fraig_window_nodes = 96;
  /// Upper bound on fraig candidates examined per `check()` (bounds the
  /// hint overhead; surplus candidates stay queued for later checks).
  std::size_t max_fraig_candidates = 2048;
  /// Restrict solver decisions to primary-input (and miter-auxiliary)
  /// variables.  Sound either way (Tseitin cones propagate completely
  /// from their inputs); off by default — on the wide hierarchical miters
  /// every full descent then re-propagates the whole union encoding,
  /// which measures ~2x slower than free VSIDS branching.
  bool decide_inputs_only = false;
  /// A check whose encoding added at least this many fresh AND nodes tries
  /// budgeted per-output miters before the batched fallback (large unions
  /// tend to be propagation-easy per output, and the batch would search
  /// one huge instance); smaller checks go straight to the batch.
  std::size_t per_output_node_threshold = 30000;
  /// 64-bit pattern words per node signature (n words = 64n simulation
  /// patterns backing the candidate detection).
  unsigned num_sig_words = 4;
  /// Seed of the signature pattern generator (fixed => deterministic
  /// candidate discovery).
  std::uint64_t sim_seed = 0x9e3779b97f4a7c15ull;
  /// Conflict / decision budgets of the per-output miter attempt that
  /// precedes the batched fallback miter (0 = unlimited).
  std::uint64_t output_conflict_budget = 100;
  std::uint64_t output_decision_budget = 100000;
  /// Learned-clause deletion on the persistent solver (performance only;
  /// verdicts are unaffected — tests/test_sat.cpp checks on/off agreement).
  bool clause_deletion = true;
  /// First-reduction threshold forwarded to solver::set_reduce_base.
  std::uint32_t reduce_base = 2000;
};

/// Per-check resource limits (all default to unlimited).  The wall-clock
/// deadline is installed on the persistent solver for the duration of the
/// check; the conflict/propagation budgets bound the *additional* work this
/// check may spend on the shared solver.
struct check_limits
{
  deadline stop;
  std::uint64_t conflict_budget = 0;    ///< extra conflicts allowed (0 = unlimited)
  std::uint64_t propagation_budget = 0; ///< extra propagations allowed (0 = unlimited)

  [[nodiscard]] bool unlimited() const
  {
    return stop.unlimited() && conflict_budget == 0 && propagation_budget == 0;
  }
};

/// Outcome of one equivalence check.
struct cec_outcome
{
  bool equivalent = false;
  /// False when the check ran out of budget/deadline before reaching a
  /// verdict; `equivalent`/`failing_output` are then meaningless.  Checks
  /// with unlimited limits always resolve.
  bool resolved = true;
  /// Lowest-indexed output on which the networks differ.
  std::optional<unsigned> failing_output;
  /// Input assignment distinguishing the networks at `failing_output`.
  /// May be absent on a budgeted check that proved a difference but could
  /// not reconstruct a model before the budget ran out.
  std::optional<std::vector<bool>> counterexample;
};

/// Cumulative engine statistics (across all checks of the instance).
struct cec_stats
{
  std::size_t checks = 0;
  std::size_t nodes = 0;            ///< union AND nodes created
  std::size_t strash_hits = 0;      ///< AND lookups served by hash-consing
  std::size_t structural_outputs = 0; ///< output pairs equal by structure alone
  std::size_t sat_proven_outputs = 0; ///< output pairs proven by a miter solve
  std::size_t fraig_candidates = 0; ///< signature-equal pairs attempted
  std::size_t fraig_merges = 0;     ///< candidate pairs proven and merged
  std::size_t fraig_window_proofs = 0; ///< merges proven by the 64-way window alone
  std::size_t fraig_refinements = 0; ///< counterexample-guided class splits
  std::uint64_t solver_conflicts = 0;
};

/// Incremental equivalence engine over one persistent solver (see file
/// comment).  Construct once per design / sweep, call `check()` per
/// configuration.
class incremental_cec
{
public:
  explicit incremental_cec( cec_options options = {} );

  /// Checks whether `a` and `b` (same PI/PO interface; throws
  /// std::invalid_argument otherwise) implement the same multi-output
  /// function.  Successive calls may use different networks — and different
  /// interface sizes — and reuse everything already encoded.  Thread-safe.
  cec_outcome check( const aig_network& a, const aig_network& b );

  /// Budgeted variant: stops cooperatively at the limits and reports
  /// `resolved = false` instead of hanging.  Structure learned before the
  /// budget ran out (lemmas, merges, signatures) is kept, so a later retry
  /// resumes instead of restarting.
  cec_outcome check( const aig_network& a, const aig_network& b, const check_limits& limits );

  cec_stats stats() const;
  const cec_options& options() const { return options_; }

private:
  /// Internal literal: 2 * node + complement; node 0 is constant false.
  using ilit = std::uint32_t;

  struct inode
  {
    ilit fanin0 = 0;
    ilit fanin1 = 0;
  };

  ilit find( ilit l ) const;
  literal to_sat( ilit l ) const;
  void ensure_pis( unsigned count );
  ilit create_and( ilit a, ilit b );
  std::vector<ilit> encode( const aig_network& aig );
  void register_signature( std::uint32_t node );
  void run_fraig();
  /// Captures the PI values of the solver's current model as one more
  /// simulation pattern for counterexample-guided class refinement.
  void collect_cex_pattern();
  /// Folds the collected counterexample patterns into one signature word,
  /// re-simulates every node on it, and rebuilds the signature classes
  /// (and the candidate queue) from the refined signatures.
  void refine_signatures();
  void merge( ilit keep, ilit drop );
  void assert_equal( ilit a, ilit b );
  /// Two-directional implication check under assumptions: (a & !b) then
  /// (!a & b).  UNSAT twice proves a == b; a satisfiable direction leaves
  /// its model (a counterexample to the equality) in the solver.
  result prove_equal( ilit a, ilit b, std::uint64_t conflict_budget,
                      std::uint64_t decision_budget );
  /// Merges two nodes whose fanins already resolve to the same equivalence
  /// classes — zero solver work.  Returns true if a merge happened.
  bool try_structural_merge( ilit a, ilit b );
  /// Exhaustive 64-way window proof: evaluates both cones over the free
  /// values of at most twelve frontier equivalence classes (projection
  /// patterns, word-parallel).  true => a == b (sound; never refutes).
  /// `depth_cap` / `node_cap` bound the expansion.
  bool window_proves_equal( ilit a, ilit b, unsigned depth_cap, std::size_t node_cap );

  cec_options options_;
  solver solver_;
  std::vector<inode> nodes_;       ///< [0] = constant false; PIs and ANDs follow
  std::vector<literal> node_sat_;  ///< positive solver literal per node
  std::vector<ilit> rep_;          ///< equivalence-class representative per node
  std::vector<std::uint32_t> pi_nodes_; ///< PI index -> node id
  std::vector<std::uint64_t> sigs_; ///< num_sig_words words per node
  std::unordered_map<std::uint64_t, std::uint32_t> strash_; ///< exact (fanin0, fanin1) key
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> sig_classes_;
  std::vector<std::pair<std::uint32_t, ilit>> fraig_pending_; ///< (node, candidate)
  std::size_t fraig_cursor_ = 0; ///< next fraig_pending_ entry to process
  std::unordered_set<std::uint64_t> fraig_refuted_; ///< canonical pair keys
  std::vector<std::uint64_t> cex_patterns_; ///< one word per PI, refinement buffer
  unsigned cex_count_ = 0;                  ///< collected patterns (bits used)
  unsigned refine_slot_ = 0;                ///< signature word replaced next
  std::uint64_t sig_rng_state_ = 0;
  cec_stats stats_;
  mutable std::mutex mutex_;
};

} // namespace qsyn::sat
