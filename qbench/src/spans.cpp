#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace qbench
{

int span_recorder::open( const std::string& name, int design )
{
  if ( !enabled_ )
  {
    return -1;
  }
  span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.design = design;
  s.start = mono_now();
  spans_.push_back( std::move( s ) );
  stack_.push_back( static_cast<int>( spans_.size() ) - 1 );
  return stack_.back();
}

void span_recorder::close( int id )
{
  if ( !enabled_ )
  {
    return;
  }
  if ( stack_.empty() || stack_.back() != id )
  {
    throw std::logic_error( "span_recorder: spans must close in LIFO order" );
  }
  auto& s = spans_[static_cast<std::size_t>( id )];
  s.end = mono_now();
  stack_.pop_back();
  if ( s.parent >= 0 )
  {
    spans_[static_cast<std::size_t>( s.parent )].children += s.end - s.start;
  }
}

std::map<std::string, double> span_recorder::self_seconds() const
{
  std::map<std::string, double> out;
  for ( const auto& s : spans_ )
  {
    out[s.name] += ( s.end - s.start ) - s.children;
  }
  return out;
}

std::map<std::string, double> span_recorder::total_seconds() const
{
  std::map<std::string, double> out;
  for ( const auto& s : spans_ )
  {
    out[s.name] += s.end - s.start;
  }
  return out;
}

void span_recorder::write_chrome_trace( const std::string& path,
                                        const std::vector<std::string>& design_names ) const
{
  std::ofstream file( path );
  if ( !file )
  {
    throw std::runtime_error( "cannot write trace file " + path );
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  file << "{\"traceEvents\":[";
  for ( std::size_t i = 0; i < spans_.size(); ++i )
  {
    const auto& s = spans_[i];
    char times[96];
    std::snprintf( times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", ( s.start - origin ) * 1e6,
                   ( s.end - s.start ) * 1e6 );
    const auto design = s.design >= 0 && static_cast<std::size_t>( s.design ) < design_names.size()
                            ? design_names[static_cast<std::size_t>( s.design )]
                            : std::string{};
    file << ( i ? "," : "" ) << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
         << times << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"design\":\""
         << design << "\"}}";
  }
  file << "\n]}\n";
}

} // namespace qbench
