/// \file spans.hpp
/// \brief In-memory span recorder of the traced replay.
///
/// Spans (name, start, end, parent, design) are recorded around calls into
/// the library's public stage functions — the library itself carries no
/// instrumentation — kept in memory and written as Chrome trace-event JSON
/// when the replay ends.  Single-threaded by design: the replay runs the
/// stages one after another.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace qbench
{

class span_recorder
{
public:
  /// A disabled recorder keeps no spans and costs one branch per span.
  explicit span_recorder( bool enabled ) : enabled_( enabled ) {}

  int open( const std::string& name, int design );
  void close( int id );

  /// Per span name: summed duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Per span name: summed duration (children included).
  [[nodiscard]] std::map<std::string, double> total_seconds() const;

  /// Writes `{"traceEvents":[...]}` (complete events, microseconds).
  void write_chrome_trace( const std::string& path,
                           const std::vector<std::string>& design_names ) const;

private:
  struct span
  {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int design = -1;
    double children = 0.0; ///< summed duration of direct children
  };
  bool enabled_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class scoped_span
{
public:
  scoped_span( span_recorder& recorder, const std::string& name, int design )
      : recorder_( recorder ), id_( recorder.open( name, design ) )
  {
  }
  ~scoped_span() { recorder_.close( id_ ); }
  scoped_span( const scoped_span& ) = delete;
  scoped_span& operator=( const scoped_span& ) = delete;

private:
  span_recorder& recorder_;
  int id_;
};

} // namespace qbench
