#include "aig_optimize.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "isop.hpp"

namespace qsyn
{

/// --- balance ---------------------------------------------------------------

namespace
{

/// Balance and refactor poll their deadline once per this many roots.
constexpr std::uint32_t poll_interval = 256u;

/// Throws `budget_exhausted` naming `pass` when `stop` has expired.
void poll_deadline( const deadline& stop, const char* pass )
{
  if ( stop.expired() )
  {
    throw budget_exhausted( std::string( pass ) + ": deadline expired" );
  }
}

class balancer
{
public:
  balancer( const aig_network& aig, const deadline& stop )
      : aig_( aig ), stop_( stop ), fanouts_( aig.fanout_counts() ), dest_( aig.num_pis() ),
        map_( aig.num_nodes(), 0xffffffffu )
  {
    map_[0] = aig_network::const0;
    for ( unsigned i = 0; i < aig_.num_pis(); ++i )
    {
      map_[i + 1u] = dest_.pi( i );
    }
  }

  aig_network run()
  {
    for ( const auto po : aig_.pos() )
    {
      dest_.add_po( map_lit( po ) );
    }
    return std::move( dest_ );
  }

private:
  aig_lit map_lit( aig_lit old )
  {
    const auto node = lit_node( old );
    if ( map_[node] == 0xffffffffu )
    {
      map_[node] = build_node( node );
    }
    return lit_not_cond( map_[node], lit_complemented( old ) );
  }

  /// Level of a destination node, computed lazily (recomputing all levels
  /// per rebuilt node would be quadratic on large netlists).
  std::uint32_t dest_level( std::uint32_t node )
  {
    if ( node >= dest_levels_.size() )
    {
      dest_levels_.resize( dest_.num_nodes(), 0xffffffffu );
    }
    if ( dest_levels_[node] != 0xffffffffu )
    {
      return dest_levels_[node];
    }
    std::uint32_t level = 0;
    if ( dest_.is_and( node ) )
    {
      level = 1u + std::max( dest_level( lit_node( dest_.fanin0( node ) ) ),
                             dest_level( lit_node( dest_.fanin1( node ) ) ) );
    }
    dest_levels_[node] = level;
    return level;
  }

  /// Collects the single-fanout AND tree rooted at `node` and rebuilds it
  /// as a balanced tree over the mapped leaves (sorted by level so the
  /// shallowest operands combine first).
  aig_lit build_node( std::uint32_t node )
  {
    if ( ++built_ % poll_interval == 0u )
    {
      poll_deadline( stop_, "aig_balance" );
    }
    std::vector<aig_lit> leaves;
    collect_conjuncts( make_lit( node ), leaves, true );
    std::vector<aig_lit> mapped;
    mapped.reserve( leaves.size() );
    for ( const auto leaf : leaves )
    {
      mapped.push_back( map_lit( leaf ) );
    }
    // Sort by the level in the destination network for balanced depth.
    std::sort( mapped.begin(), mapped.end(), [&]( aig_lit a, aig_lit b ) {
      return dest_level( lit_node( a ) ) < dest_level( lit_node( b ) );
    } );
    return dest_.create_nary_and( std::move( mapped ) );
  }

  /// Gathers the conjunct leaves of an AND tree.  Only descends through
  /// non-complemented AND fanins with a single fanout (classic balancing
  /// scope: shared nodes stay shared).
  void collect_conjuncts( aig_lit lit, std::vector<aig_lit>& leaves, bool root )
  {
    const auto node = lit_node( lit );
    const bool expandable = !lit_complemented( lit ) && aig_.is_and( node ) &&
                            ( root || fanouts_[node] == 1u );
    if ( !expandable )
    {
      leaves.push_back( lit );
      return;
    }
    collect_conjuncts( aig_.fanin0( node ), leaves, false );
    collect_conjuncts( aig_.fanin1( node ), leaves, false );
  }

  const aig_network& aig_;
  const deadline& stop_;
  std::vector<std::uint32_t> fanouts_;
  aig_network dest_;
  std::vector<aig_lit> map_;
  std::vector<std::uint32_t> dest_levels_;
  std::uint32_t built_ = 0; ///< rebuilt trees, for the deadline poll
};

} // namespace

aig_network aig_balance( const aig_network& aig, const deadline& stop )
{
  balancer b( aig, stop );
  return b.run();
}

/// --- refactor ----------------------------------------------------------------

namespace
{

/// The largest cut the refactorer collapses: the ISOP kernel's limit.
constexpr unsigned max_cut_leaves = isop_max_vars;

/// A function of the cut leaves (leaf i is variable i): one word,
/// replicated below 6 leaves, or two or four words.
using cut_table = std::array<std::uint64_t, 4>;

/// Per-node scratch state, valid for the root whose epoch it carries.
/// Epochs start at 1, so zero-initialised state belongs to no root.
struct node_marks
{
  std::uint32_t leaf = 0;    ///< node is a leaf of the current cut
  std::uint32_t visited = 0; ///< node was counted in the current MFFC
  std::uint32_t table = 0;   ///< `slot` holds the node's cone table
  std::uint32_t slot = 0;    ///< index into `refactorer::tables_`
};

class refactorer
{
public:
  refactorer( const aig_network& aig, unsigned max_leaves, const deadline& stop )
      : aig_( aig ), max_leaves_( max_leaves ), stop_( stop ), fanouts_( aig.fanout_counts() ),
        dest_( aig.num_pis() ), map_( aig.num_nodes(), 0xffffffffu ),
        plan_of_( aig.num_nodes(), no_plan ), marks_( aig.num_nodes() )
  {
    map_[0] = aig_network::const0;
    for ( unsigned i = 0; i < aig_.num_pis(); ++i )
    {
      map_[i + 1u] = dest_.pi( i );
    }
    compute_plans();
  }

  aig_network run()
  {
    for ( const auto po : aig_.pos() )
    {
      dest_.add_po( map_lit( po ) );
    }
    return std::move( dest_ );
  }

private:
  static constexpr std::uint32_t no_plan = 0xffffffffu;
  static constexpr std::uint32_t no_table = 0xffffffffu;

  /// A cone to replace: its cut leaves (ascending node ids) and the SOP
  /// that rebuilds it, `sops_[sop_begin, sop_end)`.
  struct plan
  {
    std::array<std::uint32_t, max_cut_leaves> leaves{};
    std::uint32_t num_leaves = 0;
    std::uint32_t sop_begin = 0;
    std::uint32_t sop_end = 0;
    bool complemented = false; ///< the SOP covers the complement
  };

  /// Grows a reconvergence-driven cut around every AND node and decides
  /// whether an ISOP resynthesis is expected to be smaller than the cone's
  /// exclusive logic (MFFC).
  void compute_plans()
  {
    for ( std::uint32_t n = aig_.num_pis() + 1u; n < aig_.num_nodes(); ++n )
    {
      if ( n % poll_interval == 0u )
      {
        poll_deadline( stop_, "aig_refactor" );
      }
      try_plan( n );
    }
  }

  bool is_leaf( std::uint32_t node ) const { return marks_[node].leaf == epoch_; }

  void try_plan( std::uint32_t root )
  {
    ++epoch_;
    // The cut, ascending.  It starts as the fanins (the constant node
    // included) and holds at most max(2, max_leaves) nodes.
    std::array<std::uint32_t, max_cut_leaves> leaves{};
    unsigned size = 0;
    const auto a = lit_node( aig_.fanin0( root ) );
    const auto b = lit_node( aig_.fanin1( root ) );
    leaves[size++] = std::min( a, b );
    if ( a != b )
    {
      leaves[size++] = std::max( a, b );
    }
    for ( unsigned i = 0; i < size; ++i )
    {
      marks_[leaves[i]].leaf = epoch_;
    }

    // Replace the lowest internal leaf whose fanins keep the cut within
    // the bound, and either do not grow it or replace a single-fanout
    // leaf; repeat until no leaf qualifies.  The constant node is a leaf
    // only of an unexpanded cut: every expansion drops it, and so does the
    // final cut.
    bool grew = true;
    while ( grew )
    {
      grew = false;
      const unsigned has_const = size > 0u && leaves[0] == 0u ? 1u : 0u;
      for ( unsigned i = 0; i < size; ++i )
      {
        const auto leaf = leaves[i];
        if ( !aig_.is_and( leaf ) )
        {
          continue;
        }
        const auto f0 = lit_node( aig_.fanin0( leaf ) );
        const auto f1 = lit_node( aig_.fanin1( leaf ) );
        const bool add0 = f0 != 0u && !is_leaf( f0 );
        const bool add1 = f1 != 0u && f1 != f0 && !is_leaf( f1 );
        const unsigned expanded = size - 1u - has_const + ( add0 ? 1u : 0u ) + ( add1 ? 1u : 0u );
        if ( expanded <= std::min( max_leaves_, size ) ||
             ( expanded <= max_leaves_ && fanouts_[leaf] == 1u ) )
        {
          marks_[leaf].leaf = 0u;
          unsigned kept = 0;
          for ( unsigned j = 0; j < size; ++j )
          {
            if ( j != i && leaves[j] != 0u )
            {
              leaves[kept++] = leaves[j];
            }
          }
          size = kept;
          if ( add0 )
          {
            insert_leaf( leaves, size, f0 );
          }
          if ( add1 )
          {
            insert_leaf( leaves, size, f1 );
          }
          grew = true;
          break;
        }
      }
    }
    if ( size > 0u && leaves[0] == 0u )
    {
      std::copy( leaves.begin() + 1, leaves.begin() + size, leaves.begin() );
      --size;
    }
    if ( size == 0u || size > max_leaves_ )
    {
      return;
    }

    // The cone's function over the leaves.
    const auto words = static_cast<unsigned>( num_blocks_for( size ) );
    tables_.assign( 1u, cut_table{} ); // slot 0: the constant node
    for ( unsigned i = 0; i < size; ++i )
    {
      marks_[leaves[i]].table = epoch_;
      marks_[leaves[i]].slot = static_cast<std::uint32_t>( tables_.size() );
      tables_.push_back( projection( i ) );
    }
    const auto root_slot = cone_table( root, words );
    if ( root_slot == no_table )
    {
      return;
    }
    const auto table = tables_[root_slot];

    // Cost of the existing cone: the nodes used only inside it (MFFC).
    // An SOP of a non-constant function with support k has at least k
    // literals, so `estimate_cost` >= k - 1 for either polarity: when the
    // MFFC is no larger, neither ISOP can win and both are skipped.
    const auto old_cost = mffc_size( root );
    const auto support = support_size( table, size, words );
    if ( support > 0u && support - 1u >= old_cost )
    {
      return;
    }
    sop_.clear();
    isop( table.data(), nullptr, size, sop_ );
    cut_table complement{};
    for ( unsigned w = 0; w < words; ++w )
    {
      complement[w] = ~table[w];
    }
    sop_complement_.clear();
    isop( complement.data(), nullptr, size, sop_complement_ );
    const auto cost = estimate_cost( sop_ );
    const auto cost_complement = estimate_cost( sop_complement_ );
    const bool use_complement = cost_complement < cost;
    if ( ( use_complement ? cost_complement : cost ) >= old_cost )
    {
      return;
    }
    const auto& chosen = use_complement ? sop_complement_ : sop_;
    plan p;
    std::copy( leaves.begin(), leaves.begin() + size, p.leaves.begin() );
    p.num_leaves = size;
    p.sop_begin = static_cast<std::uint32_t>( sops_.size() );
    sops_.insert( sops_.end(), chosen.begin(), chosen.end() );
    p.sop_end = static_cast<std::uint32_t>( sops_.size() );
    p.complemented = use_complement;
    plan_of_[root] = static_cast<std::uint32_t>( plans_.size() );
    plans_.push_back( p );
  }

  /// Inserts `node` into the ascending `leaves[0, size)` and marks it.
  void insert_leaf( std::array<std::uint32_t, max_cut_leaves>& leaves, unsigned& size,
                    std::uint32_t node )
  {
    auto pos = size;
    for ( ; pos > 0u && leaves[pos - 1u] > node; --pos )
    {
      leaves[pos] = leaves[pos - 1u];
    }
    leaves[pos] = node;
    ++size;
    marks_[node].leaf = epoch_;
  }

  /// Projection of cut variable `var` in the cut-table layout.
  static cut_table projection( unsigned var )
  {
    constexpr auto ones = ~std::uint64_t{ 0 };
    if ( var < 6u )
    {
      return { projections[var], projections[var], projections[var], projections[var] };
    }
    return var == 6u ? cut_table{ 0u, ones, 0u, ones } : cut_table{ 0u, 0u, ones, ones };
  }

  /// Number of cut variables the table depends on.
  static unsigned support_size( const cut_table& table, unsigned num_vars, unsigned words )
  {
    unsigned support = 0;
    for ( unsigned v = 0; v < num_vars; ++v )
    {
      support += blocks_depend_on( table.data(), words, v ) ? 1u : 0u;
    }
    return support;
  }

  static std::size_t estimate_cost( const std::vector<cube>& sop )
  {
    std::size_t cost = sop.empty() ? 0u : sop.size() - 1u; // OR tree
    for ( const auto& c : sop )
    {
      const auto lits = static_cast<std::size_t>( c.num_literals() );
      cost += lits > 0u ? lits - 1u : 0u;
    }
    return cost;
  }

  /// Number of cone nodes used exclusively inside the cone (counting the
  /// root).  A lower bound on the nodes freed by replacing the cone.
  std::size_t mffc_size( std::uint32_t root )
  {
    std::size_t count = 0;
    stack_.assign( 1u, root );
    while ( !stack_.empty() )
    {
      const auto n = stack_.back();
      stack_.pop_back();
      if ( marks_[n].visited == epoch_ )
      {
        continue;
      }
      marks_[n].visited = epoch_;
      ++count;
      for ( const auto f : { aig_.fanin0( n ), aig_.fanin1( n ) } )
      {
        const auto m = lit_node( f );
        if ( aig_.is_and( m ) && fanouts_[m] == 1u && !is_leaf( m ) )
        {
          stack_.push_back( m );
        }
      }
    }
    return count;
  }

  /// Slot in `tables_` of `node`'s function over the cut leaves, or
  /// `no_table` if the cone reaches outside the cut.
  std::uint32_t cone_table( std::uint32_t node, unsigned words )
  {
    if ( marks_[node].table == epoch_ )
    {
      return marks_[node].slot;
    }
    if ( !aig_.is_and( node ) )
    {
      return no_table;
    }
    const auto f0 = aig_.fanin0( node );
    const auto f1 = aig_.fanin1( node );
    const auto s0 = lit_node( f0 ) == 0u ? 0u : cone_table( lit_node( f0 ), words );
    const auto s1 = lit_node( f1 ) == 0u ? 0u : cone_table( lit_node( f1 ), words );
    if ( s0 == no_table || s1 == no_table )
    {
      return no_table;
    }
    const auto m0 = lit_complemented( f0 ) ? ~std::uint64_t{ 0 } : 0u;
    const auto m1 = lit_complemented( f1 ) ? ~std::uint64_t{ 0 } : 0u;
    cut_table t{};
    for ( unsigned w = 0; w < words; ++w )
    {
      t[w] = ( tables_[s0][w] ^ m0 ) & ( tables_[s1][w] ^ m1 );
    }
    marks_[node].table = epoch_;
    marks_[node].slot = static_cast<std::uint32_t>( tables_.size() );
    tables_.push_back( t );
    return marks_[node].slot;
  }

  aig_lit map_lit( aig_lit old )
  {
    const auto node = lit_node( old );
    if ( map_[node] == 0xffffffffu )
    {
      map_[node] = build_node( node );
    }
    return lit_not_cond( map_[node], lit_complemented( old ) );
  }

  aig_lit build_node( std::uint32_t node )
  {
    if ( ++built_ % poll_interval == 0u )
    {
      poll_deadline( stop_, "aig_refactor" );
    }
    if ( plan_of_[node] != no_plan )
    {
      const auto& p = plans_[plan_of_[node]];
      std::array<aig_lit, max_cut_leaves> leaf_lits{};
      for ( unsigned i = 0; i < p.num_leaves; ++i )
      {
        leaf_lits[i] = map_lit( make_lit( p.leaves[i] ) );
      }
      std::vector<aig_lit> or_terms;
      or_terms.reserve( p.sop_end - p.sop_begin );
      for ( auto c = p.sop_begin; c < p.sop_end; ++c )
      {
        std::vector<aig_lit> factors;
        for ( unsigned v = 0; v < p.num_leaves; ++v )
        {
          if ( sops_[c].has_var( v ) )
          {
            factors.push_back( lit_not_cond( leaf_lits[v], !sops_[c].var_polarity( v ) ) );
          }
        }
        or_terms.push_back( dest_.create_nary_and( std::move( factors ) ) );
      }
      const auto result = dest_.create_nary_or( std::move( or_terms ) );
      return lit_not_cond( result, p.complemented );
    }
    const auto f0 = aig_.fanin0( node );
    const auto f1 = aig_.fanin1( node );
    return dest_.create_and( map_lit( f0 ), map_lit( f1 ) );
  }

  const aig_network& aig_;
  unsigned max_leaves_;
  const deadline& stop_;
  std::vector<std::uint32_t> fanouts_;
  aig_network dest_;
  std::vector<aig_lit> map_;
  std::vector<std::uint32_t> plan_of_; ///< per node: index into plans_, or no_plan
  std::vector<plan> plans_;
  std::vector<cube> sops_; ///< the cubes of every plan
  std::vector<node_marks> marks_;
  std::uint32_t epoch_ = 0;
  std::uint32_t built_ = 0; ///< rebuilt nodes, for the deadline poll
  /// Scratch reused across roots.
  std::vector<cut_table> tables_;
  std::vector<std::uint32_t> stack_;
  std::vector<cube> sop_;
  std::vector<cube> sop_complement_;
};

} // namespace

aig_network aig_refactor( const aig_network& aig, unsigned max_leaves, const deadline& stop )
{
  if ( max_leaves > max_cut_leaves )
  {
    throw std::invalid_argument( "aig_refactor: max_leaves must be at most " +
                                 std::to_string( max_cut_leaves ) + ", got " +
                                 std::to_string( max_leaves ) );
  }
  refactorer r( aig, max_leaves, stop );
  return r.run();
}

/// --- driver ---------------------------------------------------------------------

aig_network optimize( const aig_network& aig, unsigned rounds, const deadline& stop )
{
  auto current = aig.cleanup();
  for ( unsigned r = 0; r < rounds; ++r )
  {
    poll_deadline( stop, "optimize" );
    const auto before = current.num_ands();
    current = aig_balance( current, stop );
    current = aig_refactor( current, 8u, stop );
    current = current.cleanup();
    if ( current.num_ands() >= before )
    {
      break;
    }
  }
  return current;
}

} // namespace qsyn
