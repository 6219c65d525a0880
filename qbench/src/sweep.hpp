/// \file sweep.hpp
/// \brief The DSE workloads' untraced sweep and the independent output
/// check shared with the traced replay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace qbench
{

/// Checks a synthesized reciprocal circuit against
/// `verilog::reciprocal_reference` over every input x in [1, 2^n), with a
/// word-parallel evaluator of the benchmark's own, cross-checked against
/// the library's scalar `evaluate_circuit` on eight inputs.  Returns an
/// empty string when it matches, otherwise the first mismatch.
std::string check_reciprocal_circuit( qsyn::reciprocal_design design, unsigned n,
                                      const qsyn::reversible_circuit& circuit );

/// Per-flow outcome accounting.  A flow fails when it did not finish `ok`
/// and verified, or when an output check rejects it; `wrong` counts the
/// output checks that failed (including a counterexample from the
/// program's own verify tier), each of which makes the run incorrect, and
/// `first_error` describes the first of them.
struct outcome_tally
{
  std::size_t failed = 0;
  std::size_t wrong = 0;
  std::string first_error;

  /// Records one flow: `where` names it, `check_error` is empty when the
  /// benchmark's own check passed.
  void add( const qsyn::flow_result& result, const std::string& where,
            const std::string& check_error );
  /// Records a failed check that belongs to no single flow.
  void add_error( const std::string& error );
};

/// Aggregates of one `explore_designs` batch.
struct sweep_totals
{
  std::size_t flows = 0;
  std::size_t flows_ok_verified = 0;
  std::uint64_t t_count_sum = 0;
  std::uint64_t qubits_sum = 0;
  std::vector<double> design_wall_ms;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

sweep_totals summarize_sweep( const std::vector<qsyn::design_exploration>& batch );

/// `qbench sweep --workload NAME --seed N`.
int run_sweep_command( const std::map<std::string, std::string>& args );

} // namespace qbench
