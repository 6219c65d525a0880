/// \file budget.hpp
/// \brief Wall-clock deadlines, cancellation tokens, and resource budgets.
///
/// Long-running kernels (CDCL search, the incremental CEC portfolio, the
/// EXORCISM improvement loop, the TBS tail) poll a `deadline` cooperatively
/// at cheap checkpoints.  A `deadline` combines an absolute time limit with
/// an optional shared `cancellation_token`, so a DSE sweep can stop all
/// in-flight work promptly when the global budget is gone.
///
/// Kernels that can stop *gracefully* (EXORCISM, sampling) simply return a
/// partial result; kernels that cannot produce a meaningful partial answer
/// (TBS) throw `budget_exhausted`, which the flow/DSE layer converts into a
/// `timed_out` status record.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace qsyn
{

/// Thrown by kernels that cannot return a partial result when their
/// deadline expires or their budget runs out.
class budget_exhausted : public std::runtime_error
{
public:
  explicit budget_exhausted( const std::string& what_arg )
      : std::runtime_error( what_arg )
  {
  }
};

/// Shared cancellation flag.  Copies refer to the same flag; default
/// construction yields an armed, not-yet-cancelled token.
class cancellation_token
{
public:
  cancellation_token()
      : flag_( std::make_shared<std::atomic<bool>>( false ) )
  {
  }

  void request_cancel() noexcept
  {
    flag_->store( true, std::memory_order_relaxed );
  }

  [[nodiscard]] bool cancelled() const noexcept
  {
    return flag_->load( std::memory_order_relaxed );
  }

private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Cooperative wall-clock deadline with an optional cancellation token.
/// Default-constructed deadlines never expire; they cost one atomic load
/// per poll, so kernels can check unconditionally.
class deadline
{
public:
  using clock = std::chrono::steady_clock;

  deadline() = default;

  /// Deadline `seconds` from now.  `seconds <= 0`, NaN, and anything above
  /// `max_seconds` (including +inf) mean unlimited.
  static deadline in( double seconds )
  {
    deadline d;
    if ( limits_time( seconds ) )
    {
      d.has_time_limit_ = true;
      d.expires_at_ = from_now( seconds );
    }
    return d;
  }

  static deadline in( double seconds, cancellation_token token )
  {
    deadline d = in( seconds );
    d.token_ = std::move( token );
    d.has_token_ = true;
    return d;
  }

  static deadline with_token( cancellation_token token )
  {
    deadline d;
    d.token_ = std::move( token );
    d.has_token_ = true;
    return d;
  }

  [[nodiscard]] bool unlimited() const noexcept
  {
    return !has_time_limit_ && !has_token_;
  }

  [[nodiscard]] bool expired() const
  {
    if ( has_token_ && token_.cancelled() )
    {
      return true;
    }
    return has_time_limit_ && clock::now() >= expires_at_;
  }

  /// Seconds until expiry; a very large value when unlimited, 0 when
  /// already expired or cancelled.
  [[nodiscard]] double remaining_seconds() const
  {
    if ( has_token_ && token_.cancelled() )
    {
      return 0.0;
    }
    if ( !has_time_limit_ )
    {
      return 1e18;
    }
    const auto left = std::chrono::duration<double>( expires_at_ - clock::now() ).count();
    return left > 0.0 ? left : 0.0;
  }

  /// The tighter of this deadline and one `seconds` from now (seconds
  /// that `in` reads as unlimited keep this deadline unchanged).  Used to
  /// compose a sweep-level deadline with a per-design budget.
  [[nodiscard]] deadline tightened( double seconds ) const
  {
    if ( !limits_time( seconds ) )
    {
      return *this;
    }
    deadline d = *this;
    const auto candidate = from_now( seconds );
    if ( !d.has_time_limit_ || candidate < d.expires_at_ )
    {
      d.has_time_limit_ = true;
      d.expires_at_ = candidate;
    }
    return d;
  }

private:
  /// Longest time limit a deadline represents: a century, far below the
  /// ~292 years at which the clock's int64 nanosecond count overflows.
  /// Anything longer saturates to "unlimited".
  static constexpr double max_seconds = 100.0 * 365.25 * 24.0 * 3600.0;

  /// True when `seconds` is a representable time limit (false for NaN).
  static bool limits_time( double seconds ) noexcept
  {
    return seconds > 0.0 && seconds <= max_seconds;
  }

  static clock::time_point from_now( double seconds )
  {
    return clock::now() + std::chrono::duration_cast<clock::duration>(
                              std::chrono::duration<double>( seconds ) );
  }

  bool has_time_limit_ = false;
  bool has_token_ = false;
  clock::time_point expires_at_{};
  cancellation_token token_;
};

/// Resource budget carried by `flow_params` / `explore_options`.  A value
/// of 0 for any field means "unlimited"; a default-constructed budget
/// leaves behavior bit-identical to the unbudgeted engine.
struct budget
{
  /// Wall-clock limit per flow/design, in seconds (0 = unlimited).
  double deadline_seconds = 0.0;
  /// Total CDCL conflicts the SAT verify tier may spend per flow
  /// (0 = unlimited).
  std::uint64_t sat_conflict_budget = 0;
  /// Total unit propagations the SAT verify tier may spend per flow
  /// (0 = unlimited).
  std::uint64_t sat_propagation_budget = 0;
  /// Cube-pair merge attempts EXORCISM may spend (0 = unlimited).
  std::uint64_t exorcism_pair_budget = 0;
  /// When the SAT tier gives up, fall back to exhaustive simulation if the
  /// design has at most this many primary inputs; otherwise to sampling.
  unsigned exhaustive_fallback_max_pis = 16;

  [[nodiscard]] bool unlimited() const noexcept
  {
    return deadline_seconds <= 0.0 && sat_conflict_budget == 0 && sat_propagation_budget == 0 &&
           exorcism_pair_budget == 0;
  }

  /// True when this budget is at least as generous as `other` in every
  /// dimension and strictly more generous in at least one (0 = unlimited
  /// ranks above any finite value).  The daemon's result cache uses this
  /// to decide whether a requester's budget justifies recomputing a
  /// cached `degraded` outcome: only a strictly better-funded request can
  /// hope for a better verdict.
  [[nodiscard]] bool more_generous_than( const budget& other ) const noexcept
  {
    // Map 0/negative ("unlimited") onto +inf so one comparison rule works.
    const auto time = []( double s ) { return s <= 0.0 ? 1e18 : s; };
    const auto count = []( std::uint64_t c ) {
      return c == 0 ? std::numeric_limits<std::uint64_t>::max() : c;
    };
    const bool no_worse = time( deadline_seconds ) >= time( other.deadline_seconds ) &&
                          count( sat_conflict_budget ) >= count( other.sat_conflict_budget ) &&
                          count( sat_propagation_budget ) >= count( other.sat_propagation_budget ) &&
                          count( exorcism_pair_budget ) >= count( other.exorcism_pair_budget );
    const bool better = time( deadline_seconds ) > time( other.deadline_seconds ) ||
                        count( sat_conflict_budget ) > count( other.sat_conflict_budget ) ||
                        count( sat_propagation_budget ) > count( other.sat_propagation_budget ) ||
                        count( exorcism_pair_budget ) > count( other.exorcism_pair_budget );
    return no_worse && better;
  }
};

} // namespace qsyn
