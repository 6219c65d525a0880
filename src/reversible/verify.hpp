/// \file verify.hpp
/// \brief Verification of synthesized reversible circuits against their
/// irreversible specification (our analogue of the paper's use of ABC `cec`).
///
/// Three tiers are provided, trading confidence against cost:
///   * **sampled** — random input assignments, 64 per simulated word
///     (probabilistic; silently exhaustive when 2^inputs fits the budget),
///   * **exhaustive** — all 2^inputs assignments in counter order (a proof
///     for bounded input counts),
///   * **SAT** — a proof at any width.  A design with at most
///     `sat_tier_simulation_max_pis` inputs is proved by one counter-order
///     pass of the wide engine; a wider one has its function extracted into
///     an AIG and checked against the specification by the incremental
///     equivalence engine (`qsyn::sat::incremental_cec`: shared structural
///     hashing, per-output miters under assumptions, simulation-guided
///     fraiging), reusable across a sweep's configurations.
/// The simulation tiers and the SAT tier's narrow pass run on one engine
/// (wide_sim.hpp): a lane group of 1, 4, or 8 `std::uint64_t` words per
/// circuit line packs 64–512 input assignments, and every gate sweeps whole
/// groups — the Toffoli control conjunction is a group AND, the target
/// update a group XOR — so one pass over the gate list settles up to 512
/// assignments at once (portable unrolled lanes by default, AVX2/AVX-512
/// words when compiled in and the CPU agrees).  Every width is
/// bit-identical by contract; the independent oracle it is pinned against
/// is the scalar `evaluate_circuit` below (tests/test_verify.cpp).  Each
/// verifier checks one circuit per call; a DSE sweep makes one call per
/// point, inside that point's task.
///
/// Conventions: input variable i lives on the i-th line flagged
/// `is_primary_input` (in line order); constant ancillae carry
/// `is_constant_input` / `constant_value`; output j is read from the line
/// with `output_index == j`.  Bit j of a packed word is assignment j of the
/// batch.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "../common/budget.hpp"
#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"
#include "circuit.hpp"
#include "wide_sim.hpp"

namespace qsyn
{

namespace sat
{
class incremental_cec;
struct check_limits;
} // namespace sat

/// Lines flagged as primary inputs, in order.
std::vector<std::uint32_t> input_lines_of( const reversible_circuit& circuit );
/// Line holding each output (indexed by output).
std::vector<std::uint32_t> output_lines_of( const reversible_circuit& circuit );

/// Simulates the circuit on one input assignment (constants filled in) and
/// returns the output values.  This is the scalar reference evaluator —
/// gate by gate through `reversible_circuit::apply`, sharing no simulation
/// code with the wide engine the verifiers below run on — and every width
/// of that engine is cross-checked against it in tests/test_verify.cpp.
std::vector<bool> evaluate_circuit( const reversible_circuit& circuit,
                                    const std::vector<bool>& inputs );

/// Exhaustively checks the circuit against output truth tables in counter
/// order, one lane group per pass (inputs <= 24).
bool verify_against_truth_tables( const reversible_circuit& circuit,
                                  const std::vector<truth_table>& outputs );

/// Exhaustively checks the circuit against an AIG over all 2^inputs
/// assignments (inputs <= 24), one lane group per pass, in counter order.
/// Returns the first failing input assignment if any — a proof of
/// equivalence when it returns nullopt.
std::optional<std::vector<bool>> verify_against_aig_exhaustive( const reversible_circuit& circuit,
                                                                const aig_network& aig );

/// Checks the circuit against an AIG on `num_samples` random input
/// assignments (plus the all-zero and all-one patterns), 64 per simulated
/// word.  When 2^num_pis <= num_samples the check delegates to
/// `verify_against_aig_exhaustive` — same budget, full coverage, and a
/// real proof for small designs.  Returns the first failing input if any.
std::optional<std::vector<bool>> verify_against_aig_sampled( const reversible_circuit& circuit,
                                                             const aig_network& aig,
                                                             unsigned num_samples = 256,
                                                             std::uint64_t seed = 1 );

/// Coverage-accounted result of a budgeted simulation tier.  When the
/// deadline expires mid-run the verdict is *partial*: `complete` is false
/// and `assignments_completed < assignments_requested` says exactly how
/// much of the input space was covered before the cutoff — never silently
/// reported as full coverage.  A present `counterexample` is always real,
/// partial coverage or not.
struct partial_verify_report
{
  std::optional<std::vector<bool>> counterexample;
  std::uint64_t assignments_requested = 0;
  std::uint64_t assignments_completed = 0;
  bool complete = true;
};

/// `verify_against_aig_exhaustive` with a cooperative deadline, polled once
/// per lane-group pass.  With an unlimited deadline the result is identical
/// to the unbudgeted tier.  The default overload picks the smallest
/// `sim_width` covering 2^inputs; the explicit-width overload exists for
/// the differential harness — verdict, counterexample, and
/// `assignments_completed` are bit-identical at every width.
partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop );
partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop,
                                                              sim_width width );

/// `verify_against_aig_sampled` with a cooperative deadline, polled once
/// per lane-group pass (the small-design exhaustive delegation applies
/// unchanged).  With an unlimited deadline the result is identical to the
/// unbudgeted tier.  The rng stream is consumed in 64-lane block order
/// regardless of width, so every width draws identical patterns and the
/// report — verdict, counterexample, `assignments_completed`, with no
/// double-counting when `num_samples + 2` is not lane-aligned — is
/// bit-identical across widths.
partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples = 256,
                                                           std::uint64_t seed = 1 );
partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples,
                                                           std::uint64_t seed, sim_width width );

/// Extracts the function computed by the circuit as an AIG: one PI per
/// primary-input line (in input order), one PO per output index.  Constant
/// ancillae become AIG constants; each Toffoli gate contributes the AND of
/// its (polarity-adjusted) control literals XORed onto its target.
aig_network circuit_to_aig( const reversible_circuit& circuit );

/// Specs with at most this many inputs are proved by the SAT tier in one
/// exhaustive pass of the wide engine (2^12 assignments are 8 lane groups
/// of 512), with no AIG extraction and no contact with the engine; wider
/// specs go to `sat::incremental_cec`.
inline constexpr unsigned sat_tier_simulation_max_pis = 12;

/// Proves or refutes circuit-vs-AIG equivalence.  A spec with at most
/// `sat_tier_simulation_max_pis` inputs is decided by one counter-order
/// pass of the wide engine; a wider one through the incremental SAT
/// equivalence engine (`qsyn::sat::incremental_cec` on the extracted
/// circuit AIG: shared structural hashing, per-output miters under
/// assumptions, simulation-guided fraiging).  Width-independent, unlike
/// the exhaustive tier.
///
/// **First-counterexample contract:** on inequivalence the returned
/// assignment distinguishes circuit and spec at the *lowest-indexed*
/// differing output (reported through `failing_output` when non-null).  On
/// the simulation path it is the lowest counter-order assignment that
/// distinguishes that output; on the engine path it is solver-dependent but
/// always real.  `nullopt` is a proof of equivalence.  This one-shot
/// overload builds a private engine; prefer the engine overload inside
/// sweeps.
std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig );

/// As above, but on a caller-owned persistent engine, so successive checks
/// of one wide design's sweep share the spec encoding, fraig merges, and
/// learned lemmas (narrow checks leave the engine untouched).  Thread-safe:
/// the engine serializes concurrent calls internally.  `failing_output`, if
/// non-null, receives the index of the lowest differing output when a
/// counterexample is returned.
std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig,
                                                         sat::incremental_cec& engine,
                                                         unsigned* failing_output = nullptr );

/// Outcome of a budgeted SAT-tier check.  `resolved == false` means the
/// limits ran out before a verdict; `equivalent` is then meaningless and
/// the caller should degrade to a simulation tier.
struct sat_verify_outcome
{
  bool resolved = true;
  bool equivalent = false;
  std::optional<std::vector<bool>> counterexample;
  std::optional<unsigned> failing_output;
};

/// SAT tier under explicit limits.  The one place that decides how a
/// check runs: a spec with at most `sat_tier_simulation_max_pis` inputs
/// takes the exhaustive pass, which polls the deadline once per lane group
/// and ignores the conflict / propagation budgets (it has no solver); a
/// wider one is forwarded with all limits to `incremental_cec::check`.
/// With unlimited limits the verdict matches `verify_against_aig_sat`
/// exactly.  An interface mismatch throws `std::invalid_argument` on both
/// paths.
sat_verify_outcome verify_against_aig_sat_budgeted( const reversible_circuit& circuit,
                                                    const aig_network& aig,
                                                    sat::incremental_cec& engine,
                                                    const sat::check_limits& limits );

/// Checks that the circuit realizes exactly the given permutation over all
/// its lines (num_lines() <= 20).
bool verify_permutation( const reversible_circuit& circuit,
                         const std::vector<std::uint64_t>& expected );

/// Returns a copy of the circuit with one gate retargeted such that the
/// realized function provably differs from `spec` (confirmed by exhaustive
/// enumeration; gates are scanned from the back, a retarget onto a control
/// line is never attempted).  The negative-path fixture shared by the
/// verification tests and `bench_verify` — a "flip one gate target"
/// corruption can be semantically benign when both targets are garbage, so
/// every candidate is checked before it is returned.  Throws if no single
/// retarget changes the function.
reversible_circuit corrupt_circuit( const reversible_circuit& circuit, const aig_network& spec );

} // namespace qsyn
