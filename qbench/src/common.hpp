/// \file common.hpp
/// \brief Shared helpers of the benchmark binary: clocks, peak RSS, the
/// seeded generator, percentiles, a minimal JSON writer and the workload
/// definitions of the two DSE sweeps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dse.hpp"

namespace qbench
{

/// CLOCK_MONOTONIC in seconds — the same clock Python's `time.monotonic()`
/// reads, so a parent process can time a child's start-up against it.
double mono_now();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Deterministic generator (splitmix64): identical streams on every
/// platform and standard library, unlike the `<random>` distributions.
class rng
{
public:
  explicit rng( std::uint64_t seed ) : state_( seed ) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, bound).
  std::uint64_t below( std::uint64_t bound );

private:
  std::uint64_t state_;
};

/// Nearest-rank percentile of an unsorted sample (`q` in (0, 1]); 0 when
/// the sample is empty.
double percentile( std::vector<double> values, double q );

/// Flat, ordered JSON object writer (numbers, strings, nested raw JSON).
class json_object
{
public:
  json_object& num( const std::string& key, double value );
  json_object& integer( const std::string& key, std::uint64_t value );
  json_object& str( const std::string& key, const std::string& value );
  json_object& raw( const std::string& key, const std::string& json );
  [[nodiscard]] std::string text() const;

private:
  std::string body_;
};

std::string json_array( const std::vector<double>& values );

/// One DSE workload: a batch `explore_designs` call.
struct sweep_workload
{
  std::string name;
  std::vector<qsyn::reciprocal_design> designs;
  unsigned min_bitwidth = 0;
  unsigned max_bitwidth = 0;
  unsigned functional_max_bitwidth = 0;
  qsyn::verify_mode verification = qsyn::verify_mode::sampled;
};

/// `dse_sweep` or `dse_sat`.  The designs are fixed by the workload; the
/// seed only decides the order of the design list handed to the sweep
/// (which changes task submission order, never a result).  Throws
/// std::invalid_argument for an unknown name.
sweep_workload sweep_workload_named( const std::string& name, std::uint64_t seed );

/// Worker threads the sweeps use: the machine's hardware concurrency.
unsigned sweep_threads();

/// Command-line `--key value` pairs after the subcommand.
std::map<std::string, std::string> parse_args( int argc, char** argv, int first );
std::string arg_or( const std::map<std::string, std::string>& args, const std::string& key,
                    const std::string& fallback );

} // namespace qbench
