#include "xmg_resynth.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>

#include "esop_extract.hpp"
#include "isop.hpp"
#include "lut_map.hpp"

namespace qsyn
{

namespace
{

/// Cost of a candidate form: (MAJ nodes, total nodes).
struct form_cost
{
  unsigned maj = 0;
  unsigned total = 0;

  bool operator<( const form_cost& other ) const
  {
    if ( maj != other.maj )
    {
      return maj < other.maj;
    }
    return total < other.total;
  }
};

form_cost pprm_cost( const std::vector<cube>& monomials )
{
  form_cost cost;
  for ( const auto& m : monomials )
  {
    const auto lits = static_cast<unsigned>( m.num_literals() );
    if ( lits >= 2u )
    {
      cost.maj += lits - 1u; // AND chain
    }
  }
  cost.total = cost.maj;
  if ( !monomials.empty() )
  {
    cost.total += static_cast<unsigned>( monomials.size() ) - 1u; // XOR tree
  }
  return cost;
}

form_cost isop_cost( const std::vector<cube>& cubes )
{
  form_cost cost;
  for ( const auto& c : cubes )
  {
    const auto lits = static_cast<unsigned>( c.num_literals() );
    if ( lits >= 2u )
    {
      cost.maj += lits - 1u;
    }
  }
  if ( !cubes.empty() )
  {
    cost.maj += static_cast<unsigned>( cubes.size() ) - 1u; // OR tree costs MAJ too
  }
  cost.total = cost.maj;
  return cost;
}

/// Builds an AND of literal lits (possibly empty -> const1).
xmg_lit build_monomial( xmg_network& xmg, const cube& c, const std::vector<xmg_lit>& fanins )
{
  std::vector<xmg_lit> factors;
  for ( unsigned v = 0; v < fanins.size(); ++v )
  {
    if ( c.has_var( v ) )
    {
      factors.push_back( fanins[v] ^ ( c.var_polarity( v ) ? 0u : 1u ) );
    }
  }
  return xmg.create_nary_and( std::move( factors ) );
}

/// Detects whether `tt` is an XOR (or XNOR) of a subset of its variables.
std::optional<std::pair<std::uint64_t, bool>> detect_parity( const truth_table& tt )
{
  const auto n = tt.num_vars();
  // Parity functions have all PPRM monomials of size one; equivalently,
  // tt == xor of projections (^ constant).  Determine candidate subset by
  // the function's support, then verify.
  std::uint64_t subset = 0;
  for ( unsigned v = 0; v < n; ++v )
  {
    if ( tt.depends_on( v ) )
    {
      subset |= std::uint64_t{ 1 } << v;
    }
  }
  if ( subset == 0u )
  {
    return std::nullopt;
  }
  truth_table parity( n );
  for ( unsigned v = 0; v < n; ++v )
  {
    if ( ( subset >> v ) & 1u )
    {
      parity ^= truth_table::projection( n, v );
    }
  }
  if ( parity == tt )
  {
    return std::make_pair( subset, false );
  }
  if ( ~parity == tt )
  {
    return std::make_pair( subset, true );
  }
  return std::nullopt;
}

/// Detects MAJ of three (possibly complemented) support variables.
std::optional<std::array<bool, 3>> detect_maj3( const truth_table& tt,
                                                const std::vector<unsigned>& support )
{
  if ( support.size() != 3u )
  {
    return std::nullopt;
  }
  const auto n = tt.num_vars();
  const auto a = truth_table::projection( n, support[0] );
  const auto b = truth_table::projection( n, support[1] );
  const auto c = truth_table::projection( n, support[2] );
  for ( unsigned pol = 0; pol < 8; ++pol )
  {
    const auto pa = ( pol & 1u ) ? ~a : a;
    const auto pb = ( pol & 2u ) ? ~b : b;
    const auto pc = ( pol & 4u ) ? ~c : c;
    const auto maj = ( pa & pb ) | ( pa & pc ) | ( pb & pc );
    if ( maj == tt )
    {
      return std::array<bool, 3>{ ( pol & 1u ) != 0u, ( pol & 2u ) != 0u, ( pol & 4u ) != 0u };
    }
  }
  return std::nullopt;
}

class lut_to_xmg
{
public:
  explicit lut_to_xmg( const lut_network& net, xmg_resynth_stats* stats )
      : net_( net ), stats_( stats ), xmg_( net.num_pis )
  {
  }

  xmg_network run()
  {
    std::vector<xmg_lit> signal_lits( net_.num_pis + net_.luts.size() );
    for ( unsigned i = 0; i < net_.num_pis; ++i )
    {
      signal_lits[i] = xmg_.pi( i );
    }
    for ( std::size_t l = 0; l < net_.luts.size(); ++l )
    {
      const auto& lut = net_.luts[l];
      std::vector<xmg_lit> fanins;
      fanins.reserve( lut.fanins.size() );
      for ( const auto f : lut.fanins )
      {
        fanins.push_back( signal_lits[f] );
      }
      signal_lits[net_.num_pis + l] = synthesize( lut.function, fanins );
      if ( stats_ )
      {
        ++stats_->luts;
      }
    }
    for ( const auto& out : net_.outputs )
    {
      xmg_.add_po( signal_lits[out.signal] ^ ( out.complemented ? 1u : 0u ) );
    }
    return std::move( xmg_ );
  }

private:
  /// Synthesizes one LUT function over already-built fanin literals.
  xmg_lit synthesize( const truth_table& tt_full, const std::vector<xmg_lit>& fanins_full )
  {
    // Work on the support only.
    std::vector<unsigned> support_map;
    const auto tt = tt_full.shrink_to_support( &support_map );
    std::vector<xmg_lit> fanins;
    fanins.reserve( support_map.size() );
    for ( const auto v : support_map )
    {
      fanins.push_back( fanins_full[v] );
    }

    if ( tt.is_const0() )
    {
      return xmg_network::const0;
    }
    if ( tt.is_const1() )
    {
      return xmg_network::const1;
    }
    if ( tt.num_vars() == 1u )
    {
      return tt.get_bit( 1 ) ? fanins[0] : ( fanins[0] ^ 1u );
    }

    // Direct parity form.
    if ( const auto parity = detect_parity( tt ) )
    {
      std::vector<xmg_lit> terms;
      for ( unsigned v = 0; v < fanins.size(); ++v )
      {
        if ( ( parity->first >> v ) & 1u )
        {
          terms.push_back( fanins[v] );
        }
      }
      if ( stats_ )
      {
        ++stats_->direct_forms;
      }
      return xmg_.create_nary_xor( std::move( terms ) ) ^ ( parity->second ? 1u : 0u );
    }

    // Direct MAJ form.
    {
      std::vector<unsigned> support( fanins.size() );
      for ( unsigned v = 0; v < fanins.size(); ++v )
      {
        support[v] = v;
      }
      if ( const auto maj = detect_maj3( tt, support ) )
      {
        if ( stats_ )
        {
          ++stats_->direct_forms;
        }
        return xmg_.create_maj( fanins[0] ^ ( ( *maj )[0] ? 1u : 0u ),
                                fanins[1] ^ ( ( *maj )[1] ? 1u : 0u ),
                                fanins[2] ^ ( ( *maj )[2] ? 1u : 0u ) );
      }
    }

    // Candidate expansions: PPRM (XOR-friendly) vs. ISOP (SOP), both also
    // for the complement (free output inverters).
    const auto pprm = pprm_from_truth_table( tt );
    const auto pprm_compl = pprm_from_truth_table( ~tt );
    sop_.clear();
    isop( tt, sop_ );
    sop_complement_.clear();
    isop( ~tt, sop_complement_ );

    struct candidate
    {
      enum class form
      {
        pprm,
        sop
      } kind;
      const std::vector<cube>* cubes;
      bool complemented;
      form_cost cost;
    };
    const std::array<candidate, 4> cands = { {
        { candidate::form::pprm, &pprm, false, pprm_cost( pprm ) },
        { candidate::form::pprm, &pprm_compl, true, pprm_cost( pprm_compl ) },
        { candidate::form::sop, &sop_, false, isop_cost( sop_ ) },
        { candidate::form::sop, &sop_complement_, true, isop_cost( sop_complement_ ) },
    } };
    const auto best = std::min_element( cands.begin(), cands.end(),
                                        []( const candidate& a, const candidate& b ) {
                                          return a.cost < b.cost;
                                        } );
    if ( stats_ )
    {
      if ( best->kind == candidate::form::pprm )
      {
        ++stats_->pprm_forms;
      }
      else
      {
        ++stats_->isop_forms;
      }
    }
    xmg_lit result;
    if ( best->kind == candidate::form::pprm )
    {
      std::vector<xmg_lit> terms;
      terms.reserve( best->cubes->size() );
      for ( const auto& m : *best->cubes )
      {
        terms.push_back( build_monomial( xmg_, m, fanins ) );
      }
      result = xmg_.create_nary_xor( std::move( terms ) );
    }
    else
    {
      std::vector<xmg_lit> terms;
      terms.reserve( best->cubes->size() );
      for ( const auto& c : *best->cubes )
      {
        terms.push_back( build_monomial( xmg_, c, fanins ) );
      }
      // OR tree via MAJ(a, b, 1).
      while ( terms.size() > 1u )
      {
        std::vector<xmg_lit> next;
        for ( std::size_t i = 0; i + 1u < terms.size(); i += 2u )
        {
          next.push_back( xmg_.create_or( terms[i], terms[i + 1u] ) );
        }
        if ( terms.size() & 1u )
        {
          next.push_back( terms.back() );
        }
        terms = std::move( next );
      }
      result = terms.empty() ? xmg_network::const0 : terms[0];
    }
    return result ^ ( best->complemented ? 1u : 0u );
  }

  const lut_network& net_;
  xmg_resynth_stats* stats_;
  xmg_network xmg_;
  /// ISOPs of the current LUT function and of its complement, reused
  /// across LUTs.
  std::vector<cube> sop_;
  std::vector<cube> sop_complement_;
};

} // namespace

xmg_network xmg_from_luts( const lut_network& luts, xmg_resynth_stats* stats )
{
  lut_to_xmg converter( luts, stats );
  return converter.run();
}

xmg_network xmg_from_aig( const aig_network& aig, unsigned cut_size, xmg_resynth_stats* stats )
{
  lut_map_params params;
  params.cut_size = cut_size;
  const auto luts = lut_map( aig, params );
  return xmg_from_luts( luts, stats );
}

} // namespace qsyn
