#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <time.h>

namespace qbench
{

double mono_now()
{
  timespec ts{};
  clock_gettime( CLOCK_MONOTONIC, &ts );
  return static_cast<double>( ts.tv_sec ) + static_cast<double>( ts.tv_nsec ) * 1e-9;
}

double peak_rss_mb()
{
  rusage usage{};
  getrusage( RUSAGE_SELF, &usage );
  return static_cast<double>( usage.ru_maxrss ) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::uint64_t rng::next()
{
  std::uint64_t z = ( state_ += 0x9e3779b97f4a7c15ull );
  z = ( z ^ ( z >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
  z = ( z ^ ( z >> 27 ) ) * 0x94d049bb133111ebull;
  return z ^ ( z >> 31 );
}

double rng::uniform()
{
  return static_cast<double>( next() >> 11 ) * ( 1.0 / 9007199254740992.0 );
}

std::uint64_t rng::below( std::uint64_t bound )
{
  return bound == 0u ? 0u : next() % bound;
}

double percentile( std::vector<double> values, double q )
{
  if ( values.empty() )
  {
    return 0.0;
  }
  std::sort( values.begin(), values.end() );
  const auto rank = static_cast<std::size_t>( std::ceil( q * static_cast<double>( values.size() ) ) );
  return values[std::clamp<std::size_t>( rank, 1u, values.size() ) - 1u];
}

namespace
{

std::string number_text( double value )
{
  if ( !std::isfinite( value ) )
  {
    return "null";
  }
  char buf[64];
  std::snprintf( buf, sizeof buf, "%.9g", value );
  return buf;
}

std::string quoted( const std::string& s )
{
  std::string out = "\"";
  for ( const char c : s )
  {
    if ( c == '"' || c == '\\' )
    {
      out += '\\';
      out += c;
    }
    else if ( static_cast<unsigned char>( c ) < 0x20u )
    {
      char buf[8];
      std::snprintf( buf, sizeof buf, "\\u%04x", c );
      out += buf;
    }
    else
    {
      out += c;
    }
  }
  return out + "\"";
}

} // namespace

json_object& json_object::raw( const std::string& key, const std::string& json )
{
  if ( !body_.empty() )
  {
    body_ += ",";
  }
  body_ += quoted( key ) + ":" + json;
  return *this;
}

json_object& json_object::num( const std::string& key, double value )
{
  return raw( key, number_text( value ) );
}

json_object& json_object::integer( const std::string& key, std::uint64_t value )
{
  return raw( key, std::to_string( value ) );
}

json_object& json_object::str( const std::string& key, const std::string& value )
{
  return raw( key, quoted( value ) );
}

std::string json_object::text() const
{
  return "{" + body_ + "}";
}

std::string json_array( const std::vector<double>& values )
{
  std::string out = "[";
  for ( std::size_t i = 0; i < values.size(); ++i )
  {
    out += ( i ? "," : "" ) + number_text( values[i] );
  }
  return out + "]";
}

sweep_workload sweep_workload_named( const std::string& name, std::uint64_t seed )
{
  using qsyn::reciprocal_design;
  sweep_workload w;
  w.name = name;
  w.designs = { reciprocal_design::intdiv, reciprocal_design::newton };
  if ( seed % 2u == 1u )
  {
    std::swap( w.designs[0], w.designs[1] );
  }
  if ( name == "dse_sweep" )
  {
    // The functional flow stops at n = 8: one TBS run at n = 9 takes ~2 s
    // and would set the sweep's critical path on its own.
    w.min_bitwidth = 6;
    w.max_bitwidth = 10;
    w.functional_max_bitwidth = 8;
    w.verification = qsyn::verify_mode::sampled;
  }
  else if ( name == "dse_sat" )
  {
    w.min_bitwidth = 5;
    w.max_bitwidth = 7;
    w.functional_max_bitwidth = 8;
    w.verification = qsyn::verify_mode::sat;
  }
  else
  {
    throw std::invalid_argument( "unknown sweep workload '" + name + "'" );
  }
  return w;
}

unsigned sweep_threads()
{
  return std::max( 1u, std::thread::hardware_concurrency() );
}

std::map<std::string, std::string> parse_args( int argc, char** argv, int first )
{
  std::map<std::string, std::string> args;
  for ( int i = first; i < argc; ++i )
  {
    const std::string key = argv[i];
    if ( key.rfind( "--", 0 ) != 0 || i + 1 >= argc )
    {
      throw std::invalid_argument( "expected --key value pairs, got '" + key + "'" );
    }
    args[key.substr( 2 )] = argv[++i];
  }
  return args;
}

std::string arg_or( const std::map<std::string, std::string>& args, const std::string& key,
                    const std::string& fallback )
{
  const auto it = args.find( key );
  return it == args.end() ? fallback : it->second;
}

} // namespace qbench
