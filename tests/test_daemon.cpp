/// Synthesis daemon: protocol parsing, request handling, result caching
/// (memory + store), and the socket transport.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault_injection.hpp"
#include "store/daemon.hpp"

using namespace qsyn;
using store::parse_flat_json;
using store::synthesis_daemon;

namespace
{

struct temp_dir
{
  std::string path;
  temp_dir()
  {
    char pattern[] = "/tmp/qsyn-daemon-test-XXXXXX";
    path = ::mkdtemp( pattern );
  }
  ~temp_dir()
  {
    std::error_code ec;
    std::filesystem::remove_all( path, ec );
  }
};

/// Disarms every fault-injection site when the test ends.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

/// Spins until the armed `site` has been polled `count` times; false when
/// the polling thread set `done` without getting there.
bool wait_for_polls( const std::string& site, std::uint64_t count, const std::atomic<bool>& done )
{
  while ( fault_injection::hits( site ) < count )
  {
    if ( done.load() )
    {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

bool contains( const std::string& haystack, const std::string& needle )
{
  return haystack.find( needle ) != std::string::npos;
}

/// One-shot client: connect, send `line`, read one response line.
std::string roundtrip( const std::string& socket_path, const std::string& line )
{
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  const int fd = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  EXPECT_GE( fd, 0 );
  EXPECT_EQ( ::connect( fd, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );
  const auto request = line + "\n";
  // MSG_NOSIGNAL and no assert on the result: the daemon may answer (e.g.
  // "busy") and close before this send runs — the pre-close response is
  // still readable below, and a plain send would raise SIGPIPE.
  ::send( fd, request.data(), request.size(), MSG_NOSIGNAL );
  std::string response;
  char chunk[4096];
  while ( response.find( '\n' ) == std::string::npos )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n <= 0 )
    {
      break;
    }
    response.append( chunk, static_cast<std::size_t>( n ) );
  }
  ::close( fd );
  const auto eol = response.find( '\n' );
  return eol == std::string::npos ? response : response.substr( 0, eol );
}

} // namespace

// --- flat JSON ---------------------------------------------------------------

TEST( daemon_json, parses_flat_objects )
{
  const auto fields = parse_flat_json(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":6,"deadline":1.5,"fast":true})" );
  EXPECT_EQ( fields.at( "cmd" ), "synthesize" );
  EXPECT_EQ( fields.at( "design" ), "intdiv" );
  EXPECT_EQ( fields.at( "bitwidth" ), "6" );
  EXPECT_EQ( fields.at( "deadline" ), "1.5" );
  EXPECT_EQ( fields.at( "fast" ), "true" );
  EXPECT_TRUE( parse_flat_json( "{}" ).empty() );
  EXPECT_TRUE( parse_flat_json( "  { }  " ).empty() );
}

TEST( daemon_json, decodes_string_escapes )
{
  const auto fields =
      parse_flat_json( R"({"a":"line\nbreak","b":"quote\"slash\\","c":"Aé"})" );
  EXPECT_EQ( fields.at( "a" ), "line\nbreak" );
  EXPECT_EQ( fields.at( "b" ), "quote\"slash\\" );
  EXPECT_EQ( fields.at( "c" ), "A\xc3\xa9" );
}

TEST( daemon_json, rejects_malformed_input )
{
  for ( const auto* bad : { "", "null", "[1,2]", "{", R"({"a")", R"({"a":})", R"({"a":1)",
                            R"({"a":{"nested":1}})", R"({"a":"unterminated)",
                            R"({"a":1 "b":2})" } )
  {
    EXPECT_THROW( parse_flat_json( bad ), std::runtime_error ) << bad;
  }
}

TEST( daemon_json, rejects_trailing_garbage_after_object )
{
  for ( const auto* bad : { R"({"a":1}garbage)", R"({"a":1} {"b":2})", R"({} x)",
                            R"({"cmd":"ping"},)", R"({}})" } )
  {
    EXPECT_THROW( parse_flat_json( bad ), std::runtime_error ) << bad;
  }
  // Trailing whitespace is still fine.
  EXPECT_EQ( parse_flat_json( "{\"a\":1} \t " ).at( "a" ), "1" );
}

// --- request handling (no socket) --------------------------------------------

TEST( daemon, ping_stats_and_errors )
{
  synthesis_daemon daemon( {} );
  EXPECT_EQ( daemon.handle_request( R"({"cmd":"ping"})" ), R"({"ok":true,"pong":true})" );

  // Malformed requests answer with an error instead of killing anything.
  EXPECT_TRUE( contains( daemon.handle_request( "garbage" ), "\"ok\":false" ) );
  EXPECT_TRUE( contains( daemon.handle_request( R"({"cmd":"no-such"})" ), "\"ok\":false" ) );
  EXPECT_TRUE( contains( daemon.handle_request( R"({"design":"intdiv"})" ), "missing 'cmd'" ) );
  EXPECT_TRUE( contains(
      daemon.handle_request( R"({"cmd":"synthesize","design":"intdiv"})" ), "bitwidth" ) );
  EXPECT_TRUE( contains(
      daemon.handle_request(
          R"({"cmd":"synthesize","design":"pentium","bitwidth":4})" ),
      "unknown design" ) );

  const auto stats = daemon.handle_request( R"({"cmd":"stats"})" );
  EXPECT_TRUE( contains( stats, "\"ok\":true" ) );
  EXPECT_TRUE( contains( stats, "\"errors\":5" ) );
}

TEST( daemon, repeat_query_is_served_from_the_result_cache )
{
  synthesis_daemon daemon( {} );
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"verify":"sampled"})";
  const auto first = daemon.handle_request( request );
  ASSERT_TRUE( contains( first, "\"ok\":true" ) ) << first;
  EXPECT_TRUE( contains( first, "\"from_cache\":false" ) );
  EXPECT_TRUE( contains( first, "\"verified\":true" ) );

  const auto second = daemon.handle_request( request );
  ASSERT_TRUE( contains( second, "\"ok\":true" ) );
  EXPECT_TRUE( contains( second, "\"from_cache\":true" ) );

  // The cached response carries the same result payload.
  const auto strip_timing = []( const std::string& s ) {
    return s.substr( 0, s.find( ",\"runtime_seconds\"" ) );
  };
  EXPECT_EQ( strip_timing( first ).replace( strip_timing( first ).find( "\"from_cache\":false" ),
                                            std::strlen( "\"from_cache\":false" ),
                                            "\"from_cache\":true" ),
             strip_timing( second ) );

  // A different parameterization is its own cache entry.
  const auto other = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","cleanup":"bennett"})" );
  EXPECT_TRUE( contains( other, "\"from_cache\":false" ) );

  const auto stats = daemon.stats();
  EXPECT_EQ( stats.synthesized, 2u );
  EXPECT_EQ( stats.result_hits, 1u );
}

TEST( daemon, store_backed_daemon_answers_repeat_query_across_instances )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":2,"verify":"sat"})";

  std::string first;
  {
    synthesis_daemon daemon( { "", root } );
    first = daemon.handle_request( request );
    ASSERT_TRUE( contains( first, "\"from_cache\":false" ) ) << first;
    EXPECT_TRUE( contains( first, "\"verified\":true" ) );
    EXPECT_TRUE( contains( first, "\"verified_with\":\"sat\"" ) );
  }

  // A brand-new daemon on the same store — the "restarted" server —
  // serves the query from disk without synthesizing or re-verifying.
  synthesis_daemon reborn( { "", root } );
  const auto second = reborn.handle_request( request );
  ASSERT_TRUE( contains( second, "\"ok\":true" ) ) << second;
  EXPECT_TRUE( contains( second, "\"from_cache\":true" ) );
  EXPECT_TRUE( contains( second, "\"verified\":true" ) );
  EXPECT_TRUE( contains( second, "\"verified_with\":\"sat\"" ) );
  EXPECT_EQ( reborn.stats().synthesized, 0u );
  EXPECT_EQ( reborn.stats().result_hits, 1u );

  // Same costs, verbatim.
  const auto payload_of = []( const std::string& s ) {
    const auto from = s.find( "\"qubits\"" );
    const auto to = s.find( ",\"runtime_seconds\"" );
    return s.substr( from, to - from );
  };
  EXPECT_EQ( payload_of( first ), payload_of( second ) );
}

TEST( daemon, concurrent_queries_are_safe )
{
  synthesis_daemon daemon( {} );
  constexpr unsigned num_threads = 6;
  std::vector<std::string> responses( num_threads );
  std::vector<std::thread> threads;
  for ( unsigned t = 0; t < num_threads; ++t )
  {
    threads.emplace_back( [&daemon, &responses, t] {
      // Half hit the same key, half sweep distinct parameterizations.
      const auto p = std::to_string( t % 2u );
      responses[t] = daemon.handle_request(
          R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":)" + p +
          "}" );
    } );
  }
  for ( auto& t : threads )
  {
    t.join();
  }
  for ( const auto& r : responses )
  {
    EXPECT_TRUE( contains( r, "\"ok\":true" ) ) << r;
    EXPECT_TRUE( contains( r, "\"status\":\"ok\"" ) ) << r;
  }
}

TEST( daemon, concurrent_identical_queries_coalesce_into_one_synthesis )
{
  synthesis_daemon daemon( {} );
  constexpr unsigned num_clients = 8;
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":5,"flow":"esop","esop_p":1,"verify":"sampled"})";
  std::vector<std::string> responses( num_clients );
  std::vector<std::thread> clients;
  for ( unsigned t = 0; t < num_clients; ++t )
  {
    clients.emplace_back(
        [&daemon, &responses, t, request] { responses[t] = daemon.handle_request( request ); } );
  }
  for ( auto& t : clients )
  {
    t.join();
  }

  // Whatever the interleaving — true coalescing onto the one in-flight
  // owner, or stragglers served from the result cache it filled — the
  // flow ran exactly once, and everyone got the same payload.
  const auto payload_of = []( const std::string& s ) {
    const auto from = s.find( "\"qubits\"" );
    const auto to = s.find( ",\"runtime_seconds\"" );
    return s.substr( from, to - from );
  };
  for ( const auto& r : responses )
  {
    ASSERT_TRUE( contains( r, "\"ok\":true" ) ) << r;
    EXPECT_TRUE( contains( r, "\"status\":\"ok\"" ) ) << r;
    EXPECT_EQ( payload_of( r ), payload_of( responses[0] ) );
  }
  const auto stats = daemon.stats();
  EXPECT_EQ( stats.requests, num_clients );
  EXPECT_EQ( stats.synthesized, 1u );
  EXPECT_EQ( stats.result_hits + stats.coalesced, num_clients - 1u );
  EXPECT_EQ( daemon.inflight(), 0u );
}

TEST( daemon, degraded_outcome_upgrades_on_better_budgeted_repeat )
{
  synthesis_daemon daemon( {} );
  // A one-pair EXORCISM budget deterministically stops minimization
  // early: the outcome is cached `degraded`.
  const auto starved =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sampled","exorcism_pairs":1})";
  const auto first = daemon.handle_request( starved );
  ASSERT_TRUE( contains( first, "\"ok\":true" ) ) << first;
  EXPECT_TRUE( contains( first, "\"status\":\"degraded\"" ) ) << first;

  // An equally starved repeat is a plain cache hit — same degraded verdict.
  const auto repeat = daemon.handle_request( starved );
  EXPECT_TRUE( contains( repeat, "\"from_cache\":true" ) ) << repeat;
  EXPECT_TRUE( contains( repeat, "\"status\":\"degraded\"" ) );

  // An unlimited-budget requester of the same flow must NOT be served the
  // pinned degraded verdict: the daemon recomputes and upgrades the slot.
  const auto unlimited =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sampled"})";
  const auto upgraded = daemon.handle_request( unlimited );
  ASSERT_TRUE( contains( upgraded, "\"ok\":true" ) ) << upgraded;
  EXPECT_TRUE( contains( upgraded, "\"from_cache\":false" ) ) << upgraded;
  EXPECT_TRUE( contains( upgraded, "\"status\":\"ok\"" ) ) << upgraded;

  // The upgrade overwrote the cache: both budget classes now hit it.
  EXPECT_TRUE( contains( daemon.handle_request( unlimited ), "\"from_cache\":true" ) );
  const auto after = daemon.handle_request( starved );
  EXPECT_TRUE( contains( after, "\"from_cache\":true" ) );
  EXPECT_TRUE( contains( after, "\"status\":\"ok\"" ) );

  const auto stats = daemon.stats();
  EXPECT_EQ( stats.synthesized, 2u );
  EXPECT_EQ( stats.upgraded, 1u );
  EXPECT_EQ( stats.result_hits, 3u );
}

TEST( daemon, degraded_store_entry_upgrades_across_instances )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto starved =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sampled","exorcism_pairs":1})";
  const auto unlimited =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sampled"})";

  {
    synthesis_daemon daemon( { "", root } );
    const auto first = daemon.handle_request( starved );
    ASSERT_TRUE( contains( first, "\"status\":\"degraded\"" ) ) << first;
  }

  // A restarted daemon finds the degraded entry on disk, sees the bigger
  // budget, recomputes, and rewrites the entry upgraded.
  {
    synthesis_daemon reborn( { "", root } );
    const auto upgraded = reborn.handle_request( unlimited );
    ASSERT_TRUE( contains( upgraded, "\"ok\":true" ) ) << upgraded;
    EXPECT_TRUE( contains( upgraded, "\"from_cache\":false" ) );
    EXPECT_TRUE( contains( upgraded, "\"status\":\"ok\"" ) );
    EXPECT_EQ( reborn.stats().synthesized, 1u );
    EXPECT_EQ( reborn.stats().upgraded, 1u );
  }

  // After the upgrade, a third instance serves `ok` straight from disk.
  synthesis_daemon third( { "", root } );
  const auto served = third.handle_request( unlimited );
  EXPECT_TRUE( contains( served, "\"from_cache\":true" ) ) << served;
  EXPECT_TRUE( contains( served, "\"status\":\"ok\"" ) );
  EXPECT_EQ( third.stats().synthesized, 0u );
}

TEST( daemon, admission_cap_rejects_with_busy )
{
  store::daemon_options options;
  options.num_threads = 1;
  options.max_inflight = 1;
  synthesis_daemon daemon( options );

  // Occupy the single admission slot with a slow synthesis...
  std::thread owner( [&daemon] {
    const auto r = daemon.handle_request(
        R"({"cmd":"synthesize","design":"newton","bitwidth":7,"flow":"hierarchical","verify":"sat"})" );
    EXPECT_TRUE( contains( r, "\"ok\":true" ) ) << r;
  } );
  // ...wait until it is admitted (inflight is a gauge exposed for exactly
  // this kind of saturation probe)...
  for ( int i = 0; i < 5000 && daemon.inflight() == 0u; ++i )
  {
    std::this_thread::sleep_for( std::chrono::milliseconds( 1 ) );
  }
  ASSERT_EQ( daemon.inflight(), 1u );

  // ...and observe a different query bounce instead of queuing behind it.
  const auto busy = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1})" );
  EXPECT_TRUE( contains( busy, "\"ok\":false" ) ) << busy;
  EXPECT_TRUE( contains( busy, "\"code\":\"busy\"" ) ) << busy;
  owner.join();
  EXPECT_GE( daemon.stats().rejected, 1u );

  // With the slot free again the same query is admitted and served.
  const auto after = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1})" );
  EXPECT_TRUE( contains( after, "\"ok\":true" ) ) << after;
}

// --- socket transport --------------------------------------------------------

TEST( daemon, serves_line_delimited_json_over_unix_socket )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  synthesis_daemon daemon( options );
  daemon.start();

  EXPECT_EQ( roundtrip( options.socket_path, R"({"cmd":"ping"})" ),
             R"({"ok":true,"pong":true})" );

  const auto response = roundtrip(
      options.socket_path,
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical"})" );
  EXPECT_TRUE( contains( response, "\"ok\":true" ) ) << response;
  EXPECT_TRUE( contains( response, "\"qubits\"" ) );

  // Parallel clients.
  std::vector<std::thread> clients;
  std::vector<std::string> responses( 4 );
  for ( unsigned c = 0; c < 4; ++c )
  {
    clients.emplace_back( [&options, &responses, c] {
      responses[c] = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
    } );
  }
  for ( auto& c : clients )
  {
    c.join();
  }
  for ( const auto& r : responses )
  {
    EXPECT_EQ( r, R"({"ok":true,"pong":true})" );
  }

  EXPECT_TRUE(
      contains( roundtrip( options.socket_path, R"({"cmd":"shutdown"})" ), "stopping" ) );
  EXPECT_TRUE( daemon.shutdown_requested() );
  daemon.stop();
  EXPECT_FALSE( std::filesystem::exists( options.socket_path ) );
}

TEST( daemon, oversized_request_line_is_answered_and_dropped )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  options.max_line_bytes = 64u * 1024u;
  synthesis_daemon daemon( options );
  daemon.start();

  const int fd = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  ASSERT_GE( fd, 0 );
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, options.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  ASSERT_EQ( ::connect( fd, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );

  // Stream well past the cap without ever sending a newline.  The daemon
  // must answer with line_too_long and close instead of buffering forever;
  // once it does, our sends start failing (EPIPE) — that is expected.
  const std::string blob( 4096, 'x' );
  for ( int i = 0; i < 32; ++i )
  {
    if ( ::send( fd, blob.data(), blob.size(), MSG_NOSIGNAL ) <= 0 )
    {
      break;
    }
  }
  std::string response;
  char chunk[4096];
  while ( response.find( '\n' ) == std::string::npos )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n <= 0 )
    {
      break;
    }
    response.append( chunk, static_cast<std::size_t>( n ) );
  }
  ::close( fd );
  EXPECT_TRUE( contains( response, "\"code\":\"line_too_long\"" ) ) << response;

  // The daemon survived and still serves new connections.
  EXPECT_EQ( roundtrip( options.socket_path, R"({"cmd":"ping"})" ),
             R"({"ok":true,"pong":true})" );
  EXPECT_GE( daemon.stats().errors, 1u );
  daemon.stop();
}

TEST( daemon, connection_cap_rejects_with_busy )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  options.max_connections = 1;
  synthesis_daemon daemon( options );
  daemon.start();

  // Fill the single slot and prove the connection is established by
  // completing a round trip on it.
  const int held = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  ASSERT_GE( held, 0 );
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, options.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  ASSERT_EQ( ::connect( held, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );
  const std::string ping = "{\"cmd\":\"ping\"}\n";
  ASSERT_EQ( ::send( held, ping.data(), ping.size(), MSG_NOSIGNAL ),
             static_cast<ssize_t>( ping.size() ) );
  char chunk[4096];
  ASSERT_GT( ::recv( held, chunk, sizeof chunk, 0 ), 0 );

  // The next connection is told "busy" and closed, not silently queued.
  const auto rejected = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
  EXPECT_TRUE( contains( rejected, "\"code\":\"busy\"" ) ) << rejected;

  // Releasing the held connection frees the slot (after reaping).
  ::close( held );
  std::string ok;
  for ( int attempt = 0; attempt < 100 && !contains( ok, "pong" ); ++attempt )
  {
    std::this_thread::sleep_for( std::chrono::milliseconds( 5 ) );
    ok = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
  }
  EXPECT_TRUE( contains( ok, "pong" ) ) << ok;
  EXPECT_GE( daemon.stats().rejected, 1u );
  daemon.stop();
}

TEST( daemon, out_of_range_cut_size_is_rejected_before_synthesis )
{
  synthesis_daemon daemon( {} );
  for ( const std::string k : { "7", "40" } )
  {
    const auto response = daemon.handle_request(
        R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","cut_size":)" +
        k + "}" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "cut_size must be in [2, 6]" ) ) << response;
  }
  EXPECT_EQ( daemon.stats().synthesized, 0u );
  EXPECT_EQ( daemon.stats().errors, 2u );
}

TEST( daemon, non_finite_deadlines_and_signed_counts_are_rejected )
{
  // Regression: `deadline` took any number `stod` reads (a NaN passed the
  // `< 0` check, `inf` and 1e10 overflowed the deadline's clock and expired
  // it at once), and `sat_conflicts` took "-1" as a 2^64 - 1 budget.
  synthesis_daemon daemon( {} );
  const std::string request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop",)";
  // A finite deadline too long for the clock is no deadline: the flow runs.
  const auto huge = daemon.handle_request( request + R"("deadline":1e10})" );
  EXPECT_TRUE( contains( huge, "\"ok\":true" ) ) << huge;
  EXPECT_TRUE( contains( huge, "\"status\":\"ok\"" ) ) << huge;
  for ( const std::string field :
        { R"("deadline":inf)", R"("deadline":nan)", R"("sat_conflicts":-1)" } )
  {
    const auto response = daemon.handle_request( request + field + "}" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << field << ": " << response;
    const auto key = field.substr( 1, field.find( '"', 1 ) - 1 );
    EXPECT_TRUE( contains( response, "field '" + key + "' is not a" ) )
        << field << ": " << response;
  }
  EXPECT_EQ( daemon.stats().synthesized, 1u );
  EXPECT_EQ( daemon.stats().errors, 3u );
}

TEST( daemon, stop_returns_while_an_idle_client_stays_connected )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  synthesis_daemon daemon( options );
  daemon.start();

  // An idle client: connected and served once, then silent.  Its
  // connection thread sits in recv() when stop() runs.
  const int idle = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  ASSERT_GE( idle, 0 );
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, options.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  ASSERT_EQ( ::connect( idle, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );
  const std::string ping = "{\"cmd\":\"ping\"}\n";
  ASSERT_EQ( ::send( idle, ping.data(), ping.size(), MSG_NOSIGNAL ),
             static_cast<ssize_t>( ping.size() ) );
  char chunk[4096];
  ASSERT_GT( ::recv( idle, chunk, sizeof chunk, 0 ), 0 );

  // Watchdog: stop() runs on its own thread so a hang fails the test
  // instead of stalling the suite; closing the idle client afterwards
  // lets a stuck stop() finish.
  auto stopped = std::async( std::launch::async, [&daemon] { daemon.stop(); } );
  const auto status = stopped.wait_for( std::chrono::seconds( 2 ) );
  EXPECT_EQ( status, std::future_status::ready ) << "stop() hangs on an idle connection";
  ::close( idle );
  stopped.wait();
  EXPECT_FALSE( std::filesystem::exists( options.socket_path ) );
}

TEST( daemon, ping_and_stats_answer_while_a_synthesis_is_mid_xmg )
{
  fault_guard guard;
  synthesis_daemon daemon( {} );
  // Armed far beyond reach, the site only counts polls: one poll means the
  // request's XMG computation has started.
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 1000 );
  std::atomic<bool> done{ false };
  std::string response;
  std::thread client( [&] {
    response = daemon.handle_request(
        R"({"cmd":"synthesize","design":"newton","bitwidth":10,"flow":"hierarchical","cut_size":6,"verify":"none"})" );
    done.store( true );
  } );
  const bool started = wait_for_polls( "flow.xmg", 1, done );

  const auto stats = daemon.handle_request( R"({"cmd":"stats"})" );
  const auto pong = daemon.handle_request( R"({"cmd":"ping"})" );
  const bool answered_in_flight = !done.load();
  client.join();

  ASSERT_TRUE( started );
  EXPECT_TRUE( answered_in_flight );
  EXPECT_EQ( pong, R"({"ok":true,"pong":true})" );
  // The XMG artifact was not yet published when `stats` answered.
  EXPECT_EQ( parse_flat_json( stats ).at( "artifact_misses" ), "1" ) << stats;
  EXPECT_TRUE( contains( response, "\"ok\":true" ) ) << response;
}

TEST( daemon, ping_answers_while_a_cold_design_elaborates )
{
  fault_guard guard;
  synthesis_daemon daemon( {} );
  // Counts polls only: one poll means the request is inside the cold
  // design's elaboration.  The optimize failure then ends the request
  // without synthesizing the large design.
  fault_injection::arm( "daemon.elaborate", fault_injection::kind::fail, 1000 );
  fault_injection::arm( "flow.optimize", fault_injection::kind::fail );
  std::atomic<bool> done{ false };
  std::string response;
  std::thread client( [&] {
    response = daemon.handle_request(
        R"({"cmd":"synthesize","design":"newton","bitwidth":24,"flow":"hierarchical","verify":"none"})" );
    done.store( true );
  } );
  const bool started = wait_for_polls( "daemon.elaborate", 1, done );

  const auto pong = daemon.handle_request( R"({"cmd":"ping"})" );
  const auto during = parse_flat_json( daemon.handle_request( R"({"cmd":"stats"})" ) );
  client.join();

  ASSERT_TRUE( started );
  EXPECT_EQ( pong, R"({"ok":true,"pong":true})" );
  // `designs` counts elaborated contexts: 0 means the ping, and the stats
  // after it, answered while the elaboration was still running.
  EXPECT_EQ( during.at( "designs" ), "0" );
  EXPECT_TRUE( contains( response, "\"status\":\"failed\"" ) ) << response;
  const auto after = parse_flat_json( daemon.handle_request( R"({"cmd":"stats"})" ) );
  EXPECT_EQ( after.at( "designs" ), "1" );
}

TEST( daemon, failed_elaboration_publishes_nothing_and_the_next_request_retries )
{
  fault_guard guard;
  synthesis_daemon daemon( {} );
  fault_injection::arm( "daemon.elaborate", fault_injection::kind::fail, 0, 1 );
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","verify":"sampled"})";
  const auto designs = [&daemon] {
    return parse_flat_json( daemon.handle_request( R"({"cmd":"stats"})" ) ).at( "designs" );
  };
  const auto failed = daemon.handle_request( request );
  EXPECT_TRUE( contains( failed, "\"ok\":false" ) ) << failed;
  EXPECT_EQ( designs(), "0" );

  const auto retried = daemon.handle_request( request );
  EXPECT_TRUE( contains( retried, "\"ok\":true" ) ) << retried;
  EXPECT_TRUE( contains( retried, "\"verified\":true" ) ) << retried;
  EXPECT_EQ( designs(), "1" );
  EXPECT_EQ( daemon.stats().synthesized, 1u );
}

TEST( daemon, timed_out_outcome_is_not_cached_and_the_repeat_recomputes )
{
  fault_guard guard;
  synthesis_daemon daemon( {} );
  // The first XMG computation reports an expired budget; later ones run.
  fault_injection::arm( "flow.xmg", fault_injection::kind::timeout, 0, 1 );
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","verify":"sampled"})";
  const auto first = daemon.handle_request( request );
  EXPECT_TRUE( contains( first, "\"ok\":true" ) ) << first;
  EXPECT_TRUE( contains( first, "\"status\":\"timed_out\"" ) ) << first;

  // Nothing was published: the identical repeat computes its own outcome.
  const auto second = daemon.handle_request( request );
  EXPECT_TRUE( contains( second, "\"status\":\"ok\"" ) ) << second;
  EXPECT_TRUE( contains( second, "\"from_cache\":false" ) ) << second;
  EXPECT_EQ( daemon.stats().synthesized, 2u );
  EXPECT_EQ( daemon.stats().result_hits, 0u );
}

TEST( daemon, out_of_range_requests_are_refused_before_elaboration )
{
  fault_guard guard;
  synthesis_daemon daemon( {} );
  // Armed to fail, so the site counts polls: `context_for` polls it right
  // after allocating a design context, and no row may get that far.
  fault_injection::arm( "daemon.elaborate", fault_injection::kind::fail );
  struct row
  {
    std::string design;
    std::string bitwidth;
    std::string flow;
    bool too_large; ///< above the bound, not below it
  };
  const std::vector<row> rows = { { "intdiv", "193", "hierarchical", true },
                                  { "newton", "1", "hierarchical", false },
                                  { "intdiv", "4294967295", "esop", true },
                                  { "newton", "10", "functional", true } };
  for ( const auto& r : rows )
  {
    const auto response = daemon.handle_request(
        R"({"cmd":"synthesize","design":")" + r.design + R"(","bitwidth":)" + r.bitwidth +
        R"(,"flow":")" + r.flow + R"(","verify":"none","rounds":0})" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << r.bitwidth << ": " << response;
    EXPECT_EQ( contains( response, "\"code\":\"too_large\"" ), r.too_large )
        << r.bitwidth << ": " << response;
  }
  EXPECT_EQ( fault_injection::hits( "daemon.elaborate" ), 0u );
  EXPECT_EQ( daemon.stats().errors, rows.size() );
}
