/// \file qsynd.cpp
/// \brief Synthesis daemon CLI: serve synthesis queries over a unix socket.
///
/// Usage:
///   qsynd --socket /tmp/qsyn.sock [--store .qsyn-store] [--threads N]
///         [--max-inflight N] [--max-connections N] [--max-line-bytes N]
///
/// The daemon answers line-delimited JSON requests (see store/daemon.hpp
/// for the protocol) until it receives {"cmd":"shutdown"} or a SIGINT /
/// SIGTERM.  With --store, stage artifacts and full results persist
/// across daemon restarts (and are shared with bench/CLI runs pointing at
/// the same store root).  Synthesis runs on one shared work-stealing pool
/// (--threads, at most 1024 like QSYN_THREADS; 0 = hardware default,
/// honoring QSYN_THREADS); identical concurrent queries coalesce into one
/// synthesis; requests beyond --max-inflight and connections beyond
/// --max-connections are rejected with code "busy" instead of queuing
/// without bound.  A malformed count (a sign, a value that overflows, a
/// thread count above 1024) is a usage error, exit status 2.

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "store/daemon.hpp"

namespace
{

std::atomic<bool> interrupted{ false };

void on_signal( int )
{
  interrupted.store( true );
}

int usage( const char* argv0 )
{
  std::fprintf( stderr,
                "usage: %s --socket PATH [--store DIR] [--threads N] [--max-inflight N]\n"
                "          [--max-connections N] [--max-line-bytes N]\n",
                argv0 );
  return 2;
}

/// Parses a plain decimal count.  Signs, whitespace and values that do not
/// fit are rejected: `strtoull` alone would wrap "-1" to the largest
/// value, which silently lifts a limit instead of refusing it.
bool parse_size( const char* text, std::size_t& out )
{
  if ( !std::isdigit( static_cast<unsigned char>( text[0] ) ) )
  {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const auto value = std::strtoull( text, &end, 10 );
  if ( errno == ERANGE || *end != '\0' )
  {
    return false;
  }
  out = static_cast<std::size_t>( value );
  return true;
}

} // namespace

int main( int argc, char** argv )
{
  qsyn::store::daemon_options options;
  for ( int i = 1; i < argc; ++i )
  {
    const std::string arg = argv[i];
    std::size_t value = 0;
    if ( arg == "--socket" && i + 1 < argc )
    {
      options.socket_path = argv[++i];
    }
    else if ( arg == "--store" && i + 1 < argc )
    {
      options.store_root = argv[++i];
    }
    else if ( arg == "--threads" && i + 1 < argc && parse_size( argv[++i], value ) &&
              value <= qsyn::thread_pool::max_env_threads )
    {
      options.num_threads = static_cast<unsigned>( value );
    }
    else if ( arg == "--max-inflight" && i + 1 < argc && parse_size( argv[++i], value ) )
    {
      options.max_inflight = value;
    }
    else if ( arg == "--max-connections" && i + 1 < argc && parse_size( argv[++i], value ) &&
              value > 0u )
    {
      options.max_connections = value;
    }
    else if ( arg == "--max-line-bytes" && i + 1 < argc && parse_size( argv[++i], value ) &&
              value > 0u )
    {
      options.max_line_bytes = value;
    }
    else
    {
      return usage( argv[0] );
    }
  }
  if ( options.socket_path.empty() )
  {
    return usage( argv[0] );
  }

  try
  {
    qsyn::store::synthesis_daemon daemon( options );
    daemon.start();
    std::signal( SIGINT, on_signal );
    std::signal( SIGTERM, on_signal );
    std::printf( "qsynd: listening on %s%s%s (%u synthesis threads)\n",
                 options.socket_path.c_str(),
                 options.store_root.empty() ? "" : ", store ",
                 options.store_root.c_str(), daemon.num_threads() );
    std::fflush( stdout );
    while ( !daemon.shutdown_requested() && !interrupted.load() )
    {
      std::this_thread::sleep_for( std::chrono::milliseconds( 50 ) );
    }
    daemon.stop();
    const auto stats = daemon.stats();
    std::printf( "qsynd: served %zu requests (%zu synthesized, %zu from cache, %zu coalesced, "
                 "%zu upgraded, %zu rejected, %zu errors)\n",
                 stats.requests, stats.synthesized, stats.result_hits, stats.coalesced,
                 stats.upgraded, stats.rejected, stats.errors );
    return 0;
  }
  catch ( const std::exception& e )
  {
    std::fprintf( stderr, "qsynd: %s\n", e.what() );
    return 1;
  }
}
