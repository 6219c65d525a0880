/// \file wide_sim.hpp
/// \brief Width-generic bit-parallel simulation: 64/256/512 assignments per
/// gate pass, with runtime-dispatched portable / AVX2 / AVX-512 kernels.
///
/// The engine packs a *lane group* of `W` consecutive 64-bit words per
/// circuit line (`sim_width`: W = 1, 4, or 8 — 64, 256, or 512 assignments
/// per gate pass).  Word k, bit j of a group is assignment `k * 64 + j` of
/// the batch, so every width produces bit-identical verdicts and the same
/// first counterexample; only the wall clock changes.  This is the only
/// simulation engine of the verification tiers (verify.hpp); its
/// independent oracle is the scalar `evaluate_circuit`.
///
/// Width and backend are independent axes:
///   * **width** (`sim_width`) is a runtime parameter — tests exercise all
///     widths on any machine;
///   * **backend** (`simd_backend`) is how a width's group operations are
///     executed: portable unrolled `uint64` lanes (always available), AVX2
///     256-bit words, or AVX-512 512-bit words.  Backends are compiled in
///     only when CMake's `QSYN_SIMD` option asks for them, and selected at
///     runtime via cpuid, so one binary runs correctly anywhere.  The
///     `QSYN_SIMD` *environment variable* (`off`/`portable`, `avx2`,
///     `avx512`/`native`) caps the runtime choice — the bit-identity gates
///     in scripts/run_bench.sh use it to pin backends on one machine.
///
/// Besides the per-circuit `wide_simulator` and the `wide_aig_simulator`
/// (spec side), the header exposes `simd_and2_masked`, the dispatched
/// two-fanin AND kernel the incremental CEC engine's window proofs run on
/// (sat/incremental.cpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "../logic/aig.hpp"
#include "circuit.hpp"

namespace qsyn
{

/// Number of 64-bit words settled per gate pass: 64, 256, or 512
/// assignment lanes.
enum class sim_width : unsigned
{
  w64 = 1,
  w256 = 4,
  w512 = 8,
};

/// Words per lane group of a width.
constexpr unsigned words_of( sim_width w )
{
  return static_cast<unsigned>( w );
}

/// Assignment lanes per group of a width.
constexpr unsigned lanes_of( sim_width w )
{
  return words_of( w ) * 64u;
}

/// Smallest width whose lane group covers `assignments` in one pass, capped
/// at w512.  Verdicts are width-independent; this only picks the fastest
/// pass shape for a known batch size.
sim_width auto_sim_width( std::uint64_t assignments );

/// How a lane group's word operations execute.
enum class simd_backend
{
  portable, ///< unrolled `uint64` lanes, no ISA requirements
  avx2,     ///< 256-bit `__m256i` words (one per w256 group, two per w512)
  avx512,   ///< 512-bit `__m512i` words (one per w512 group)
};

const char* simd_backend_name( simd_backend backend );

/// True when the backend's kernels were compiled into this binary
/// (CMake `QSYN_SIMD` option; portable is always present).
bool simd_backend_compiled( simd_backend backend );

/// The backend the dispatcher selects for `width` on this machine: the
/// widest compiled backend the CPU supports whose word size divides the
/// group, capped by the `QSYN_SIMD` environment variable.  w64 always runs
/// portable — a single 64-bit word has nothing to vectorize.
simd_backend active_simd_backend( sim_width width );

/// dst[j] = (a[j] ^ invert_a) & (b[j] ^ invert_b) for j < num_words,
/// dispatched to the widest available backend.  The inner operation of the
/// AIG node walk; exported for the incremental CEC engine's window
/// proofs, whose per-node pattern arrays use the same layout.
void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words );

/// Reusable width-generic circuit simulator.  The gate list is flattened
/// once at construction (targets, control lines, polarity masks in flat
/// arrays); every `evaluate` call then runs allocation-free and
/// branch-free over the dispatched kernel.  The referenced circuit must
/// outlive the simulator.
class wide_simulator
{
public:
  wide_simulator( const reversible_circuit& circuit, sim_width width );

  /// Simulates one lane group per input.  `input_words` holds `words_of
  /// (width())` consecutive words per input variable, input-major:
  /// `input_words[i * W + k]` is word k of input i (bit j = assignment
  /// `k * 64 + j`).  Returns one group per output in the same layout; the
  /// reference stays valid until the next call.
  const std::vector<std::uint64_t>& evaluate( const std::vector<std::uint64_t>& input_words );

  sim_width width() const { return width_; }
  simd_backend backend() const { return backend_; }
  const std::vector<std::uint32_t>& input_lines() const { return in_lines_; }
  const std::vector<std::uint32_t>& output_lines() const { return out_lines_; }

private:
  sim_width width_;
  simd_backend backend_;
  std::vector<std::uint32_t> in_lines_;
  std::vector<std::uint32_t> out_lines_;
  std::vector<std::uint32_t> targets_;         ///< target line per gate
  std::vector<std::uint32_t> control_offsets_; ///< gate g's controls at [g], [g+1])
  std::vector<std::uint32_t> control_lines_;
  std::vector<std::uint64_t> control_inverts_; ///< all-ones for negative controls
  std::vector<std::uint32_t> one_lines_;       ///< lines with constant-1 inputs
  std::vector<std::uint64_t> state_;
  std::vector<std::uint64_t> outputs_;
};

/// Width-generic AIG pattern simulator, the spec-side counterpart of
/// `wide_simulator`: one topological node walk settles a whole lane group,
/// and the flattened fanin arrays plus the values buffer persist across
/// calls, so a verification pass allocates once, not once per group.  The
/// referenced AIG must outlive the simulator.
class wide_aig_simulator
{
public:
  wide_aig_simulator( const aig_network& aig, sim_width width );

  /// Simulates one lane group per PI (`pi_words[i * W + k]`, layout as in
  /// `wide_simulator::evaluate`).  Returns one group per PO; the reference
  /// stays valid until the next call.
  const std::vector<std::uint64_t>& evaluate( const std::vector<std::uint64_t>& pi_words );

  sim_width width() const { return width_; }
  simd_backend backend() const { return backend_; }
  unsigned num_pis() const { return num_pis_; }
  unsigned num_pos() const { return static_cast<unsigned>( po_nodes_.size() ); }

private:
  sim_width width_;
  simd_backend backend_;
  unsigned num_pis_;
  std::vector<std::uint32_t> fanin_nodes_;   ///< 2 per AND node
  std::vector<std::uint64_t> fanin_inverts_; ///< 2 per AND node
  std::vector<std::uint32_t> po_nodes_;
  std::vector<std::uint64_t> po_inverts_;
  std::vector<std::uint64_t> values_; ///< one group per node
  std::vector<std::uint64_t> outputs_;
};

} // namespace qsyn
