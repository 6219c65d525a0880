/// \file main.cpp
/// \brief The benchmark binary.  `qbench/run.py` is the entry point; it
/// builds this binary and runs its subcommands:
///
///   qbench sweep  --workload dse_sweep|dse_sat --seed N
///       one cold sweep in this fresh process, then the output check
///   qbench replay --workload dse_sweep|dse_sat --seed N --trace-out FILE
///       one sweep, then the single-threaded per-stage replay with spans
///   qbench mix    --socket PATH --seed N --seconds S [--trace-out FILE]
///       the open-loop daemon_mix generator against a running qsynd
///   qbench mix-schedule --seed N --seconds S
///       prints the generated daemon_mix request sequence (determinism test)
///
/// Each prints one JSON object on its last output line.

#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "mix.hpp"
#include "replay.hpp"
#include "sweep.hpp"

int main( int argc, char** argv )
{
  if ( argc < 2 )
  {
    std::fprintf( stderr, "usage: qbench sweep|replay|mix|mix-schedule --key value ...\n" );
    return 2;
  }
  try
  {
    const std::string command = argv[1];
    const auto args = qbench::parse_args( argc, argv, 2 );
    if ( command == "sweep" )
    {
      return qbench::run_sweep_command( args );
    }
    if ( command == "replay" )
    {
      return qbench::run_replay_command( args );
    }
    if ( command == "mix" )
    {
      return qbench::run_mix_command( args );
    }
    if ( command == "mix-schedule" )
    {
      return qbench::run_mix_schedule_command( args );
    }
    std::fprintf( stderr, "qbench: unknown command '%s'\n", command.c_str() );
    return 2;
  }
  catch ( const std::exception& e )
  {
    std::fprintf( stderr, "qbench: %s\n", e.what() );
    return 1;
  }
}
