/// \file mix.cpp
/// \brief `qbench mix`: the open-loop daemon_mix load generator.
///
/// One generator process keeps four connections to a running `qsynd`:
/// synthesize requests go round-robin over three, alternating ping/stats
/// probes over the fourth.  Each connection has a sender thread that writes
/// every request at its due time, whether or not earlier answers arrived
/// (open loop), and a receiver thread that matches answers to requests in
/// order.  Latency counts from the due time, so a stall also charges the
/// requests queued behind it.  After the last answer the generator reads
/// the daemon's `stats`, closes every connection, and only then sends
/// `shutdown` on a fresh one, so the daemon's stop path never waits on an
/// idle client.  Finally, outside the measured window, every key's answer
/// is compared with a direct `run_flow_on_aig` of the same parameters.

#include "mix.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common.hpp"
#include "core/dse.hpp"
#include "replay.hpp"
#include "verilog/elaborator.hpp"

namespace qbench
{

using qsyn::cleanup_strategy;
using qsyn::flow_kind;
using qsyn::reciprocal_design;

std::vector<mix_key> mix_key_space()
{
  std::vector<mix_key> keys;
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( unsigned n = 4; n <= 9; ++n )
    {
      for ( unsigned rounds = 1; rounds <= 3; ++rounds )
      {
        mix_key key;
        key.design = design;
        key.bitwidth = n;
        key.params.optimization_rounds = rounds;
        // One TBS run at n = 9 takes ~2 s; the mix keeps cold requests
        // under ~1 s.
        if ( n <= 8 )
        {
          key.params.kind = flow_kind::functional;
          keys.push_back( key );
        }
        for ( unsigned p = 0; p <= 2; ++p )
        {
          key.params.kind = flow_kind::esop_based;
          key.params.esop_p = p;
          keys.push_back( key );
        }
        key.params.esop_p = 0;
        for ( const auto cleanup :
              { cleanup_strategy::keep_garbage, cleanup_strategy::bennett, cleanup_strategy::eager } )
        {
          for ( unsigned k = 3; k <= 5; ++k )
          {
            key.params.kind = flow_kind::hierarchical;
            key.params.cleanup = cleanup;
            key.params.cut_size = k;
            keys.push_back( key );
          }
        }
      }
    }
  }
  return keys;
}

namespace
{

std::string cleanup_name( cleanup_strategy cleanup )
{
  switch ( cleanup )
  {
  case cleanup_strategy::keep_garbage:
    return "keep_garbage";
  case cleanup_strategy::bennett:
    return "bennett";
  case cleanup_strategy::eager:
    return "eager";
  }
  return "keep_garbage";
}

std::string flow_name( flow_kind kind )
{
  switch ( kind )
  {
  case flow_kind::functional:
    return "functional";
  case flow_kind::esop_based:
    return "esop";
  case flow_kind::hierarchical:
    return "hierarchical";
  }
  return "hierarchical";
}

} // namespace

std::string mix_request_line( const mix_key& key )
{
  const auto& p = key.params;
  return std::string( "{\"cmd\":\"synthesize\",\"design\":\"" ) +
         ( key.design == reciprocal_design::intdiv ? "intdiv" : "newton" ) +
         "\",\"bitwidth\":" + std::to_string( key.bitwidth ) + ",\"flow\":\"" +
         flow_name( p.kind ) + "\",\"rounds\":" + std::to_string( p.optimization_rounds ) +
         ",\"esop_p\":" + std::to_string( p.esop_p ) + ",\"cleanup\":\"" +
         cleanup_name( p.cleanup ) + "\",\"cut_size\":" + std::to_string( p.cut_size ) +
         ",\"verify\":\"sampled\"}";
}

namespace
{

/// Delay of a control probe after the cold request it follows.
constexpr double probe_delay = 0.05;

} // namespace

std::vector<mix_event> mix_schedule( const mix_config& config )
{
  const auto num_keys = mix_key_space().size();
  // The cold sample: a constant shuffle of the key space, independent of
  // the run's seed.
  std::vector<std::size_t> catalogue( num_keys );
  for ( std::size_t i = 0; i < num_keys; ++i )
  {
    catalogue[i] = i;
  }
  rng fixed( 0x6d69785f6b657973ull );
  for ( std::size_t i = num_keys; i > 1; --i )
  {
    std::swap( catalogue[i - 1], catalogue[fixed.below( i )] );
  }

  rng gen( config.seed );
  // Poisson arrivals conditioned on their count: a fixed number of due
  // times drawn uniformly over the window, so every seed offers the same
  // load.
  std::vector<double> arrivals( static_cast<std::size_t>( config.rate * config.seconds + 0.5 ) );
  for ( auto& t : arrivals )
  {
    t = gen.uniform() * config.seconds;
  }
  std::sort( arrivals.begin(), arrivals.end() );
  std::vector<mix_event> events;
  for ( const double due : arrivals )
  {
    mix_event e;
    e.due = due;
    e.connection = static_cast<unsigned>( events.size() % mix_synth_connections );
    events.push_back( e );
  }
  const auto num_synth = events.size();
  if ( num_synth == 0 )
  {
    throw std::invalid_argument( "rate x seconds leaves no synthesize request" );
  }
  const auto num_cold = std::clamp<std::size_t>(
      static_cast<std::size_t>( config.cold_share * static_cast<double>( num_synth ) + 0.5 ), 1u,
      std::min( num_keys, num_synth ) );

  // The cold keys enter in catalogue order at evenly spaced positions of
  // the request sequence; the very first request is cold, as there is
  // nothing to re-ask yet.  Neither the order nor the spacing is seeded:
  // which keys end up hot, which cold request pays for a shared stage and
  // how the heavy ones overlap would otherwise change the workload from
  // seed to seed.
  const std::vector<std::size_t> cold_keys( catalogue.begin(), catalogue.begin() + num_cold );
  for ( std::size_t j = 0; j < num_cold; ++j )
  {
    events[j * num_synth / num_cold].cold = true;
  }
  std::vector<std::size_t> seen;
  for ( auto& e : events )
  {
    if ( e.cold )
    {
      e.key = cold_keys[seen.size()];
      seen.push_back( e.key );
    }
    else
    {
      // Hot requests favour early keys: index = floor(m · u²).
      const double u = gen.uniform();
      e.key = seen[std::min( seen.size() - 1,
                             static_cast<std::size_t>( static_cast<double>( seen.size() ) * u * u ) )];
    }
  }

  // Control probes: one shortly after each cold request, alternating ping
  // and stats — the moment a monitoring client most needs an answer, and
  // a fixed place in the schedule, so a probe that stalls behind a
  // computing artifact stalls for the same time in every seed.
  for ( std::size_t i = 0, probes = 0; i < num_synth; ++i )
  {
    if ( events[i].cold )
    {
      mix_event e;
      e.due = events[i].due + probe_delay;
      e.connection = mix_synth_connections;
      e.op = probes++ % 2 == 0 ? mix_op::ping : mix_op::stats;
      events.push_back( e );
    }
  }
  std::stable_sort( events.begin(), events.end(),
                    []( const mix_event& a, const mix_event& b ) { return a.due < b.due; } );
  return events;
}

std::uint64_t mix_schedule_hash( const std::vector<mix_event>& events )
{
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h]( std::uint64_t v ) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for ( const auto& e : events )
  {
    mix( static_cast<std::uint64_t>( e.due * 1e9 ) );
    mix( e.connection );
    mix( static_cast<std::uint64_t>( e.op ) );
    mix( e.key );
    mix( e.cold ? 1u : 0u );
  }
  return h;
}

namespace
{

mix_config config_from_args( const std::map<std::string, std::string>& args )
{
  mix_config config;
  config.seed = std::stoull( arg_or( args, "seed", "1" ) );
  config.seconds = std::stod( arg_or( args, "seconds", "20" ) );
  if ( !( config.seconds > 0.0 ) )
  {
    throw std::invalid_argument( "seconds must be positive" );
  }
  return config;
}

/// Text of a top-level field of a flat JSON response ("" when absent).
std::string field( const std::string& json, const std::string& key )
{
  const auto tag = "\"" + key + "\":";
  const auto pos = json.find( tag );
  if ( pos == std::string::npos )
  {
    return {};
  }
  auto begin = pos + tag.size();
  if ( begin < json.size() && json[begin] == '"' )
  {
    const auto end = json.find( '"', begin + 1 );
    return end == std::string::npos ? std::string{} : json.substr( begin + 1, end - begin - 1 );
  }
  auto end = begin;
  while ( end < json.size() && json[end] != ',' && json[end] != '}' )
  {
    ++end;
  }
  return json.substr( begin, end - begin );
}

double number_field( const std::string& json, const std::string& key )
{
  const auto text = field( json, key );
  return text.empty() ? 0.0 : std::stod( text );
}

/// A blocking unix-socket connection that closes itself.
class connection
{
public:
  explicit connection( const std::string& path )
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if ( path.size() >= sizeof( addr.sun_path ) )
    {
      throw std::runtime_error( "socket path too long: " + path );
    }
    std::memcpy( addr.sun_path, path.c_str(), path.size() + 1 );
    fd_ = ::socket( AF_UNIX, SOCK_STREAM, 0 );
    if ( fd_ < 0 ||
         ::connect( fd_, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ) != 0 )
    {
      close();
      throw std::runtime_error( "cannot connect to " + path );
    }
  }
  ~connection() { close(); }
  connection( const connection& ) = delete;
  connection& operator=( const connection& ) = delete;

  void send_line( const std::string& line )
  {
    const auto data = line + "\n";
    std::size_t sent = 0;
    while ( sent < data.size() )
    {
      const auto n = ::send( fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL );
      if ( n < 0 && errno == EINTR )
      {
        continue;
      }
      if ( n <= 0 )
      {
        throw std::runtime_error( "send failed" );
      }
      sent += static_cast<std::size_t>( n );
    }
  }

  /// Next response line; empty when the peer closed the connection.
  std::string read_line()
  {
    while ( true )
    {
      const auto pos = buffer_.find( '\n' );
      if ( pos != std::string::npos )
      {
        auto line = buffer_.substr( 0, pos );
        buffer_.erase( 0, pos + 1 );
        return line;
      }
      char chunk[4096];
      const auto n = ::recv( fd_, chunk, sizeof chunk, 0 );
      if ( n < 0 && errno == EINTR )
      {
        continue;
      }
      if ( n <= 0 )
      {
        return {};
      }
      buffer_.append( chunk, static_cast<std::size_t>( n ) );
    }
  }

  /// Wakes a thread blocked in `read_line` (which then returns empty).
  void hang_up() { ::shutdown( fd_, SHUT_RDWR ); }

  void close()
  {
    if ( fd_ >= 0 )
    {
      ::close( fd_ );
      fd_ = -1;
    }
  }

private:
  int fd_ = -1;
  std::string buffer_;
};

struct answer
{
  double latency_ms = -1.0; ///< < 0: never answered
  std::string response;
};

/// How long a sender spins before a due time instead of sleeping.
constexpr double spin_seconds = 300e-6;

/// Runs the whole schedule; returns one answer per event (same order).
std::vector<answer> drive( const std::string& socket_path, const std::vector<mix_event>& events,
                           const std::vector<std::string>& lines, std::vector<double>& late_ms )
{
  constexpr unsigned num_connections = mix_synth_connections + 1;
  std::vector<std::unique_ptr<connection>> conns;
  for ( unsigned c = 0; c < num_connections; ++c )
  {
    conns.push_back( std::make_unique<connection>( socket_path ) );
  }
  std::vector<std::vector<std::size_t>> per_conn( num_connections );
  for ( std::size_t i = 0; i < events.size(); ++i )
  {
    per_conn[events[i].connection].push_back( i );
  }

  std::vector<answer> answers( events.size() );
  std::vector<std::vector<double>> lateness( num_connections );
  std::atomic<bool> failed{ false };
  std::mutex error_mutex;
  std::string error;
  const auto fail = [&]( const std::string& what ) {
    std::lock_guard<std::mutex> lock( error_mutex );
    if ( error.empty() )
    {
      error = what;
    }
    if ( !failed.exchange( true ) )
    {
      for ( auto& conn : conns )
      {
        conn->hang_up();
      }
    }
  };

  const double start_mono = mono_now() + 0.020;
  std::vector<std::thread> threads;
  for ( unsigned c = 0; c < num_connections; ++c )
  {
    threads.emplace_back( [&, c] {
      try
      {
        for ( const auto i : per_conn[c] )
        {
          if ( failed.load() )
          {
            return;
          }
          // Sleep to just before the due time, then spin: the wake-up
          // latency of a sleeping sender would otherwise count as the
          // daemon's.
          const double due = start_mono + events[i].due;
          std::this_thread::sleep_for( std::chrono::duration<double>( due - spin_seconds - mono_now() ) );
          while ( mono_now() < due )
          {
          }
          lateness[c].push_back( ( mono_now() - due ) * 1e3 );
          conns[c]->send_line( lines[i] );
        }
      }
      catch ( const std::exception& e )
      {
        fail( std::string( "sender: " ) + e.what() );
      }
    } );
    threads.emplace_back( [&, c] {
      for ( const auto i : per_conn[c] )
      {
        auto line = conns[c]->read_line();
        if ( line.empty() )
        {
          fail( "connection closed by the daemon" );
          return;
        }
        answers[i].latency_ms = ( mono_now() - start_mono - events[i].due ) * 1e3;
        answers[i].response = std::move( line );
      }
    } );
  }
  for ( auto& t : threads )
  {
    t.join();
  }
  if ( failed.load() )
  {
    throw std::runtime_error( error );
  }
  for ( const auto& l : lateness )
  {
    late_ms.insert( late_ms.end(), l.begin(), l.end() );
  }
  return answers;
}

/// Sends one request on a fresh connection and returns the answer.
std::string request_once( const std::string& socket_path, const std::string& line )
{
  connection conn( socket_path );
  conn.send_line( line );
  return conn.read_line();
}

struct key_result
{
  std::uint64_t qubits = 0;
  std::uint64_t t_count = 0;
  std::uint64_t gates = 0;
  bool operator==( const key_result& ) const = default;
};

/// The traced replay of the served keys, grouped per design as the
/// daemon's per-design contexts share artifacts.  Adds the per-layer stage
/// metrics to `metrics` and returns the number of keys whose replay
/// disagrees with the daemon's answer.
std::size_t replay_served( const std::vector<mix_key>& space,
                           const std::map<std::size_t, key_result>& served,
                           const std::string& trace_out, std::map<std::string, double>& metrics,
                           std::string& first_error )
{
  std::map<std::pair<int, unsigned>, std::size_t> index;
  std::vector<replay_design> designs;
  std::vector<std::vector<std::size_t>> design_keys;
  std::vector<std::string> names;
  for ( const auto& [k, r] : served )
  {
    const auto& key = space[k];
    const auto id = std::make_pair( static_cast<int>( key.design ), key.bitwidth );
    if ( !index.count( id ) )
    {
      index[id] = designs.size();
      const auto name = std::string( key.design == reciprocal_design::intdiv ? "INTDIV(" : "NEWTON(" ) +
                        std::to_string( key.bitwidth ) + ")";
      designs.push_back( { key.design, key.bitwidth, name, {} } );
      design_keys.emplace_back();
      names.push_back( name );
    }
    auto params = key.params;
    params.verification = qsyn::verify_mode::sampled;
    designs[index[id]].configs.push_back( params );
    design_keys[index[id]].push_back( k );
  }
  span_recorder untraced( false );
  const auto plain = replay_designs( designs, qsyn::verify_mode::sampled, false, false, untraced );
  span_recorder spans( true );
  const auto traced = replay_designs( designs, qsyn::verify_mode::sampled, false, true, spans );
  if ( !trace_out.empty() )
  {
    spans.write_chrome_trace( trace_out, names );
  }
  add_replay_metrics( metrics, traced, spans, plain.seconds );
  std::size_t wrong = traced.counts.hash_mismatches;
  for ( std::size_t d = 0; d < designs.size(); ++d )
  {
    for ( std::size_t i = 0; i < design_keys[d].size(); ++i )
    {
      const auto& o = traced.outcomes[d][i];
      const auto& r = served.at( design_keys[d][i] );
      if ( !o.verified || o.costs.qubits != r.qubits || o.costs.t_count != r.t_count ||
           o.costs.gates != r.gates )
      {
        ++wrong;
        if ( first_error.empty() )
        {
          first_error = "replay differs from the daemon's answer: " +
                        mix_request_line( space[design_keys[d][i]] );
        }
      }
    }
  }
  return wrong;
}

/// Direct `run_flow_on_aig` results for `keys`, computed on a few threads.
std::map<std::size_t, key_result> reference_results( const std::vector<mix_key>& space,
                                                     const std::vector<std::size_t>& keys )
{
  std::map<std::pair<int, unsigned>, qsyn::aig_network> designs;
  for ( const auto k : keys )
  {
    const auto id = std::make_pair( static_cast<int>( space[k].design ), space[k].bitwidth );
    if ( !designs.count( id ) )
    {
      designs.emplace( id, qsyn::verilog::elaborate_verilog(
                               qsyn::reciprocal_verilog( space[k].design, space[k].bitwidth ) )
                               .aig );
    }
  }
  std::vector<key_result> results( keys.size() );
  std::atomic<std::size_t> next{ 0 };
  std::vector<std::thread> workers;
  for ( unsigned w = 0; w < sweep_threads(); ++w )
  {
    workers.emplace_back( [&] {
      for ( std::size_t i = next++; i < keys.size(); i = next++ )
      {
        const auto& key = space[keys[i]];
        auto params = key.params;
        params.verify = false; // costs do not depend on the verify tier
        const auto r = qsyn::run_flow_on_aig(
            designs.at( { static_cast<int>( key.design ), key.bitwidth } ), params );
        results[i] = { r.costs.qubits, r.costs.t_count, r.costs.gates };
      }
    } );
  }
  for ( auto& w : workers )
  {
    w.join();
  }
  std::map<std::size_t, key_result> out;
  for ( std::size_t i = 0; i < keys.size(); ++i )
  {
    out[keys[i]] = results[i];
  }
  return out;
}

} // namespace

int run_mix_schedule_command( const std::map<std::string, std::string>& args )
{
  const auto events = mix_schedule( config_from_args( args ) );
  std::size_t synth = 0, cold = 0;
  for ( const auto& e : events )
  {
    synth += e.op == mix_op::synthesize ? 1u : 0u;
    cold += e.cold ? 1u : 0u;
  }
  json_object out;
  out.integer( "events", events.size() )
      .integer( "synthesize", synth )
      .integer( "cold", cold )
      .str( "schedule_hash", std::to_string( mix_schedule_hash( events ) ) );
  std::printf( "%s\n", out.text().c_str() );
  return 0;
}

int run_mix_command( const std::map<std::string, std::string>& args )
{
  const auto socket_path = arg_or( args, "socket", "" );
  const auto trace_out = arg_or( args, "trace-out", "" );
  const bool traced = args.count( "trace-out" ) != 0;
  const auto config = config_from_args( args );
  const auto space = mix_key_space();
  const auto events = mix_schedule( config );
  std::vector<std::string> lines;
  lines.reserve( events.size() );
  for ( const auto& e : events )
  {
    lines.push_back( e.op == mix_op::synthesize ? mix_request_line( space[e.key] )
                     : e.op == mix_op::ping     ? std::string( "{\"cmd\":\"ping\"}" )
                                                : std::string( "{\"cmd\":\"stats\"}" ) );
  }

  std::vector<double> late_ms;
  const double start = mono_now();
  const auto answers = drive( socket_path, events, lines, late_ms );
  const double window = mono_now() - start;
  const auto final_stats = request_once( socket_path, "{\"cmd\":\"stats\"}" );
  request_once( socket_path, "{\"cmd\":\"shutdown\"}" );

  std::vector<double> req_ms, ctl_ms, server_ms, hit_ms, miss_ms;
  std::size_t attempted = 0, failed = 0, refused = 0, wrong = 0, ok_verified = 0;
  std::map<std::size_t, key_result> served;
  std::string first_error;
  const auto note = [&first_error]( const std::string& what ) {
    if ( first_error.empty() )
    {
      first_error = what;
    }
  };
  for ( std::size_t i = 0; i < events.size(); ++i )
  {
    const auto& e = events[i];
    const auto& a = answers[i];
    if ( e.op != mix_op::synthesize )
    {
      ctl_ms.push_back( a.latency_ms );
      if ( field( a.response, "ok" ) != "true" )
      {
        note( "control probe failed: " + a.response );
        ++failed;
      }
      continue;
    }
    ++attempted;
    req_ms.push_back( a.latency_ms );
    if ( field( a.response, "ok" ) != "true" )
    {
      ++( field( a.response, "code" ) == "busy" ? refused : failed );
      note( "synthesize failed: " + a.response );
      continue;
    }
    if ( field( a.response, "status" ) != "ok" || field( a.response, "verified" ) != "true" )
    {
      ++wrong;
      note( "unverified answer: " + a.response );
      continue;
    }
    ++ok_verified;
    const double seconds_ms = number_field( a.response, "seconds" ) * 1e3;
    server_ms.push_back( seconds_ms );
    ( field( a.response, "from_cache" ) == "true" ? hit_ms : miss_ms ).push_back( seconds_ms );
    const key_result got{ static_cast<std::uint64_t>( number_field( a.response, "qubits" ) ),
                          static_cast<std::uint64_t>( number_field( a.response, "t_count" ) ),
                          static_cast<std::uint64_t>( number_field( a.response, "gates" ) ) };
    const auto [it, fresh] = served.emplace( e.key, got );
    if ( !fresh && !( it->second == got ) )
    {
      ++wrong;
      note( "key answered twice with different costs: " + lines[i] );
    }
  }

  // Independent check, outside the measured window.
  std::vector<std::size_t> keys;
  for ( const auto& [k, r] : served )
  {
    keys.push_back( k );
  }
  const auto reference = reference_results( space, keys );
  std::uint64_t t_count_sum = 0, qubits_sum = 0;
  for ( const auto& [k, r] : served )
  {
    t_count_sum += r.t_count;
    qubits_sum += r.qubits;
    if ( !( reference.at( k ) == r ) )
    {
      ++wrong;
      note( "answer differs from run_flow_on_aig: " + mix_request_line( space[k] ) );
    }
  }

  std::map<std::string, double> m;
  if ( traced )
  {
    wrong += replay_served( space, served, trace_out, m, first_error );
  }
  const auto stat = [&final_stats]( const char* name ) { return number_field( final_stats, name ); };
  const double answered = stat( "synthesized" ) + stat( "result_hits" ) + stat( "coalesced" );
  const double lookups = stat( "artifact_hits" ) + stat( "artifact_misses" );
  m["daemon.synthesized"] = stat( "synthesized" );
  m["daemon.result_hits"] = stat( "result_hits" );
  m["daemon.coalesced"] = stat( "coalesced" );
  m["daemon.rejected"] = stat( "rejected" );
  m["daemon.hit_ratio"] = answered > 0.0 ? stat( "result_hits" ) / answered : 0.0;
  m["daemon.server_p50_ms"] = percentile( server_ms, 0.50 );
  m["daemon.server_p99_ms"] = percentile( server_ms, 0.99 );
  m["daemon.hit_p99_ms"] = percentile( hit_ms, 0.99 );
  m["daemon.miss_p50_ms"] = percentile( miss_ms, 0.50 );
  m["daemon.req_p50_ms"] = percentile( req_ms, 0.50 );
  m["daemon.req_p99_ms"] = percentile( req_ms, 0.99 );
  m["daemon.ctl_p50_ms"] = percentile( ctl_ms, 0.50 );
  m["daemon.ctl_p99_ms"] = percentile( ctl_ms, 0.99 );
  m["store.writes"] = stat( "store_writes" );
  m["store.hits"] = stat( "store_hits" );
  m["store.misses"] = stat( "store_misses" );
  m["cache.hits"] = stat( "artifact_hits" );
  m["cache.misses"] = stat( "artifact_misses" );
  m["cache.hit_ratio"] = lookups > 0.0 ? stat( "artifact_hits" ) / lookups : 0.0;
  m["gen.late_p99_ms"] = percentile( late_ms, 0.99 );
  json_object metrics;
  for ( const auto& [name, value] : m )
  {
    metrics.num( name, value );
  }

  json_object out;
  out.num( "window_s", window )
      .integer( "attempted", attempted )
      .integer( "ok_verified", ok_verified )
      .integer( "failed", failed )
      .integer( "refused", refused )
      .integer( "wrong", wrong )
      .str( "first_error", first_error )
      .integer( "keys_served", served.size() )
      .integer( "t_count_sum", t_count_sum )
      .integer( "qubits_sum", qubits_sum )
      .integer( "requests", req_ms.size() )
      .num( "req_p50_ms", percentile( req_ms, 0.50 ) )
      .num( "req_p99_ms", percentile( req_ms, 0.99 ) )
      .integer( "probes", ctl_ms.size() )
      .num( "ctl_p50_ms", percentile( ctl_ms, 0.50 ) )
      .num( "ctl_p99_ms", percentile( ctl_ms, 0.99 ) )
      .str( "schedule_hash", std::to_string( mix_schedule_hash( events ) ) )
      .raw( "metrics", metrics.text() );
  std::printf( "%s\n", out.text().c_str() );
  return 0;
}

} // namespace qbench
