#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "common/content_hash.hpp"
#include "sat/cnf.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "synth/isop.hpp"
#include "synth/lut_map.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

static truth_table random_tt( unsigned n, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  return truth_table::from_function( n, [&]( std::uint64_t ) { return rng() & 1u; } );
}

/// --- ISOP ------------------------------------------------------------------

class isop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( isop_property, covers_exactly )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 12; ++seed )
  {
    const auto f = random_tt( n, seed * 131u );
    const auto cubes = isop( f );
    EXPECT_EQ( sop_cover( cubes, n ), f ) << "seed " << seed;
  }
}

TEST_P( isop_property, respects_dont_cares )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto on = random_tt( n, seed * 17u );
    const auto dc = random_tt( n, seed * 51u ) & ~on;
    const auto cubes = isop( on, dc );
    const auto cover = sop_cover( cubes, n );
    // on <= cover <= on | dc
    EXPECT_TRUE( ( on & ~cover ).is_const0() );
    EXPECT_TRUE( ( cover & ~( on | dc ) ).is_const0() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, isop_property, ::testing::Values( 2u, 3u, 4u, 5u, 6u, 8u ) );

TEST( isop, constants )
{
  EXPECT_TRUE( isop( truth_table( 3 ) ).empty() );
  const auto ones = isop( truth_table::constant( 3, true ) );
  ASSERT_EQ( ones.size(), 1u );
  EXPECT_EQ( ones[0].num_literals(), 0 );
}

TEST( isop, single_cube_functions_stay_single )
{
  cube c;
  c.add_literal( 0, true );
  c.add_literal( 2, false );
  const auto cubes = isop( c.to_truth_table( 4 ) );
  ASSERT_EQ( cubes.size(), 1u );
  EXPECT_EQ( cubes[0], c );
}

TEST( isop, rejects_more_than_eight_variables )
{
  EXPECT_THROW( isop( truth_table( 9 ) ), std::invalid_argument );
  EXPECT_THROW( isop( truth_table( 9 ), truth_table( 9 ) ), std::invalid_argument );
  EXPECT_THROW( isop( truth_table( 4 ), truth_table( 5 ) ), std::invalid_argument );
  EXPECT_NO_THROW( isop( truth_table::projection( 8, 7 ) ) );
}

TEST( isop, appends_to_the_callers_vector )
{
  std::vector<cube> cubes( 1u );
  isop( truth_table::projection( 3, 1 ), cubes );
  ASSERT_EQ( cubes.size(), 2u );
  EXPECT_EQ( cubes[0], cube{} );
  EXPECT_EQ( cubes[1], cube( 0b010u, 0b010u ) );
}

/// --- ESOP extraction -----------------------------------------------------

class esop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( esop_property, psdkro_is_exact )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 10; ++seed )
  {
    const auto f = random_tt( n, seed * 997u );
    const auto cubes = esop_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& c : cubes )
    {
      rebuilt ^= c.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

TEST_P( esop_property, pprm_is_exact_and_positive )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 3; seed <= 9; ++seed )
  {
    const auto f = random_tt( n, seed * 61u );
    const auto monomials = pprm_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& m : monomials )
    {
      EXPECT_EQ( m.polarity, m.mask ); // positive literals only
      rebuilt ^= m.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, esop_property, ::testing::Values( 2u, 3u, 4u, 5u, 6u ) );

TEST( esop_extract, parity_needs_linear_terms )
{
  // PSDKRO of an n-variable parity has exactly n cubes (Davio all the way).
  truth_table parity( 6 );
  for ( unsigned v = 0; v < 6; ++v )
  {
    parity ^= truth_table::projection( 6, v );
  }
  EXPECT_EQ( esop_from_truth_table( parity ).size(), 6u );
}

TEST( esop_extract, from_aig_multi_output )
{
  aig_network aig( 4 );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );
  aig.add_po( aig.create_and( aig.pi( 2 ), aig.pi( 3 ) ) );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) ); // shared with output 0
  const auto e = esop_from_aig( aig );
  EXPECT_EQ( e.num_inputs, 4u );
  EXPECT_EQ( e.num_outputs, 3u );
  const auto tts = aig.simulate_outputs();
  for ( unsigned o = 0; o < 3; ++o )
  {
    EXPECT_EQ( e.output_truth_table( o ), tts[o] );
  }
  // Shared cubes between outputs 0 and 2 must be merged terms.
  for ( const auto& t : e.terms )
  {
    if ( t.output_mask & 0b001u )
    {
      EXPECT_TRUE( t.output_mask & 0b100u );
    }
  }
}

/// --- exorcism ---------------------------------------------------------------

TEST( exorcism, cancels_identical_cubes )
{
  esop e;
  e.num_inputs = 3;
  e.num_outputs = 1;
  cube c;
  c.add_literal( 0, true );
  e.terms.push_back( { c, 1u } );
  e.terms.push_back( { c, 1u } );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 0u );
}

TEST( exorcism, merges_distance_one )
{
  // x0 x1 ^ x0 !x1 = x0
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  c1.add_literal( 1, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, false );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.terms[0].product.num_literals(), 1 );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

TEST( exorcism, merges_subsumed_distance_one )
{
  // x0 ^ x0 x1 = x0 !x1
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, true );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

class exorcism_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( exorcism_property, preserves_function_and_never_grows )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto f = random_tt( n, seed * 313u );
    esop e;
    e.num_inputs = n;
    e.num_outputs = 1;
    // Start from the (possibly redundant) minterm expansion.
    for ( std::uint64_t m = 0; m < f.num_bits(); ++m )
    {
      if ( f.get_bit( m ) )
      {
        cube c;
        for ( unsigned v = 0; v < n; ++v )
        {
          c.add_literal( v, ( m >> v ) & 1u );
        }
        e.terms.push_back( { c, 1u } );
      }
    }
    const auto initial = e.num_terms();
    const auto stats = exorcism( e );
    EXPECT_EQ( e.output_truth_table( 0 ), f ) << "seed " << seed;
    EXPECT_LE( e.num_terms(), initial );
    EXPECT_EQ( stats.initial_terms, initial );
    EXPECT_EQ( stats.final_terms, e.num_terms() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, exorcism_property, ::testing::Values( 3u, 4u, 5u ) );

TEST( exorcism, reduces_minterm_parity_to_linear_size )
{
  // Parity of 4 vars has 8 minterms; ESOP minimum is 4 single-literal cubes.
  truth_table parity( 4 );
  for ( unsigned v = 0; v < 4; ++v )
  {
    parity ^= truth_table::projection( 4, v );
  }
  esop e;
  e.num_inputs = 4;
  e.num_outputs = 1;
  for ( std::uint64_t m = 0; m < 16; ++m )
  {
    if ( parity.get_bit( m ) )
    {
      cube c;
      for ( unsigned v = 0; v < 4; ++v )
      {
        c.add_literal( v, ( m >> v ) & 1u );
      }
      e.terms.push_back( { c, 1u } );
    }
  }
  exorcism( e, 64 );
  EXPECT_EQ( e.output_truth_table( 0 ), parity );
  EXPECT_LE( e.num_terms(), 5u ); // near-optimal
}

/// --- AIG optimization -------------------------------------------------------

static aig_network medium_test_network()
{
  // The INTDIV(5) divider: non-trivial, redundant, multi-output.
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 5 ) );
  return mod.aig;
}

TEST( aig_optimize, balance_preserves_function )
{
  const auto aig = medium_test_network();
  const auto balanced = aig_balance( aig );
  EXPECT_TRUE( sat::check_equivalence( aig, balanced ).equivalent );
  EXPECT_LE( balanced.depth(), aig.depth() );
}

TEST( aig_optimize, refactor_preserves_function )
{
  const auto aig = medium_test_network();
  const auto refactored = aig_refactor( aig );
  EXPECT_TRUE( sat::check_equivalence( aig, refactored ).equivalent );
}

TEST( aig_optimize, refactor_rejects_cuts_above_eight_leaves )
{
  const auto aig = medium_test_network();
  EXPECT_THROW( aig_refactor( aig, 9 ), std::invalid_argument );
  EXPECT_NO_THROW( aig_refactor( aig, 8 ) );
}

TEST( aig_optimize, optimize_shrinks_divider )
{
  const auto aig = medium_test_network();
  const auto optimized = optimize( aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( aig, optimized ).equivalent );
  EXPECT_LE( optimized.num_ands(), aig.num_ands() );
}

TEST( aig_optimize, newton_design_roundtrip )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_newton( 4 ) );
  const auto optimized = optimize( mod.aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( mod.aig, optimized ).equivalent );
}

/// --- golden pins of the ISOP consumers ---------------------------------------
//
// The hashes below were computed with the truth_table-recursion ISOP and
// the vector/map-based refactorer that preceded the word-level kernel.
// The ISOP cube order, the refactorer's cut growth, its cone tables, its
// MFFC count and its SOP choice all feed these hashes, so the rewritten
// kernels are pinned to bit-identical output.

namespace
{

void hash_cubes( content_hasher& h, const std::vector<cube>& cubes )
{
  h.update( cubes.size() );
  for ( const auto& c : cubes )
  {
    h.update( c.mask );
    h.update( c.polarity );
  }
}

std::uint64_t xmg_hash( const xmg_network& xmg, const xmg_resynth_stats& stats )
{
  content_hasher h;
  h.update( xmg.num_pis() );
  h.update( xmg.num_nodes() );
  for ( std::uint32_t n = 0; n < xmg.num_nodes(); ++n )
  {
    h.update( static_cast<std::uint64_t>( xmg.kind( n ) ) );
    for ( const auto f : xmg.fanins( n ) )
    {
      h.update_u32( f );
    }
  }
  h.update( xmg.pos().size() );
  for ( const auto po : xmg.pos() )
  {
    h.update_u32( po );
  }
  h.update( stats.luts );
  h.update( stats.direct_forms );
  h.update( stats.pprm_forms );
  h.update( stats.isop_forms );
  return h.digest();
}

/// A random AIG appended node-for-node: constant fanins, repeated fanins
/// and complementary fanin pairs are kept (`create_and` would fold them),
/// so the refactorer also sees the constant node as a cut leaf.
aig_network random_raw_aig( unsigned num_pis, unsigned num_gates, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  aig_network aig( num_pis );
  std::vector<aig_lit> pool{ aig_network::const0 };
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    // Mostly recent nodes, so cones grow deep instead of staying flat.
    const auto pick = [&] {
      const auto window = std::min<std::size_t>( pool.size(), 24u );
      const auto index = rng() % 4u == 0u ? rng() % pool.size()
                                          : pool.size() - 1u - rng() % window;
      return pool[index] ^ static_cast<aig_lit>( rng() & 1u );
    };
    const auto a = pick();
    const auto b = rng() % 16u == 0u ? a ^ static_cast<aig_lit>( rng() & 1u ) : pick();
    pool.push_back( aig.append_raw_and( a, b ) );
  }
  for ( unsigned o = 0; o < 4u; ++o )
  {
    aig.add_po( pool[pool.size() - 1u - o * 3u] ^ static_cast<aig_lit>( o & 1u ) );
  }
  return aig;
}

aig_network elaborated_design( const std::string& design, unsigned n )
{
  const auto src = design == "intdiv" ? verilog::generate_intdiv( n ) : verilog::generate_newton( n );
  return verilog::elaborate_verilog( src ).aig;
}

struct optimize_golden
{
  const char* design;        ///< "intdiv" or "newton"
  unsigned n;                ///< bitwidth
  std::uint64_t refactor;    ///< aig_refactor of the elaborated AIG
  std::uint64_t rounds[4];   ///< optimize(aig, r) for r = 0..3
};

const optimize_golden optimize_goldens[] = {
  { "intdiv", 4, 0x26bbaccf3060e1adull, { 0x4a055347b827d63aull, 0xfa90756a2d79270cull, 0x3e391524effe674full, 0xe31db0a8aa17c8deull } },
  { "intdiv", 5, 0x77116c2cfa6d4b2dull, { 0xfc69fb26960d99a2ull, 0x423fd85639580726ull, 0x5e5d46d272dd34c4ull, 0x99decb6fb57c4bb4ull } },
  { "intdiv", 6, 0xfdcbd66b307b9af8ull, { 0xae27833f8be3afc3ull, 0xbb1255c9e2e8e617ull, 0x6c5e42e9fe93b561ull, 0x4bea64bf63ea441dull } },
  { "intdiv", 7, 0x245cc73e4a4f6faaull, { 0xf8e577b25abd441cull, 0x2682aca3c575a098ull, 0x8e16d76b4d58046dull, 0xb5578cf82d9274a6ull } },
  { "intdiv", 8, 0xa33c5d9e10332c7full, { 0xe0a40ef3c0604464ull, 0xa07475dd91aba46cull, 0x21bf04f2b89da805ull, 0xecaf28e757188633ull } },
  { "intdiv", 9, 0x3248c0dae75c7b9dull, { 0x7f06732bafb1caf1ull, 0xb741c6055f6145d2ull, 0x9080bd63bb9c9a54ull, 0x475db65817ab17eeull } },
  { "intdiv", 10, 0xcdb1fd4b9392d147ull, { 0x3f79681e04272045ull, 0xefd3f36eb0830379ull, 0x569b85e2f8da17faull, 0xb6c13053aaa75f6dull } },
  { "newton", 4, 0x506b3f7056e2548bull, { 0xdda05a514ac6dc23ull, 0x4ec0799eb3b0fe25ull, 0x61826c6114245534ull, 0x23252c7f2f5064beull } },
  { "newton", 5, 0xcfa78b4fe1f7b53ull, { 0x10f65eb6aa28633cull, 0xd13dfc4a18237654ull, 0xcb3e2de3c9bbf313ull, 0xea556d68c2a24eb7ull } },
  { "newton", 6, 0x47cdc33e6462a904ull, { 0xfd7ea5bdc9ae4e3eull, 0xf9dc101eae396a25ull, 0xde423deb306c1a3ull, 0x7e87a8d14ccaa4daull } },
  { "newton", 7, 0xea97282049d82ddeull, { 0x86576fc5bcbd6847ull, 0xe80a75df9462346cull, 0x235f27861825829bull, 0x448a3edb87cb2aebull } },
  { "newton", 8, 0xdbabc028aa2167d4ull, { 0xff51c2be6a2d5cc1ull, 0x8356e4e621957dc8ull, 0x1959e4da7b5c7f78ull, 0x60b140c266ef8ad3ull } },
  { "newton", 9, 0x64991066c09a5485ull, { 0x7a4dd8f2dfe615c7ull, 0x85e4e51cae1c81d9ull, 0xe677c44058d30672ull, 0xa51e345bde686325ull } },
  { "newton", 10, 0x7183c71a2ecb413dull, { 0x40634a45695f0df5ull, 0x6ff1df122980c0e4ull, 0xda93d389ba323456ull, 0xe9d242db3dfab132ull } },
};

struct random_golden
{
  unsigned num_pis;
  unsigned num_gates;
  std::uint64_t seed;
  std::uint64_t refactor[7]; ///< aig_refactor(aig, k) for k = 2..8
  std::uint64_t optimized;   ///< optimize(aig, 3)
};

const random_golden random_goldens[] = {
  { 4, 30, 9, { 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull, 0xd53781c23f1f3ea4ull }, 0xd53781c23f1f3ea4ull },
  { 5, 60, 7, { 0xdc0321b486260a75ull, 0xdc0321b486260a75ull, 0xdc0321b486260a75ull, 0xaca1bf4a990f3aa1ull, 0xaca1bf4a990f3aa1ull, 0xaca1bf4a990f3aa1ull, 0xaca1bf4a990f3aa1ull }, 0x85b4477d58105433ull },
  { 6, 80, 1, { 0x5395a4d35bfdd762ull, 0x545302d367262abbull, 0xb67ec3b9126106cfull, 0xf69bf0d625981398ull, 0xf69bf0d625981398ull, 0xf69bf0d625981398ull, 0xf69bf0d625981398ull }, 0x148387108064d259ull },
  { 7, 150, 2, { 0xcd4c49290b9d41a6ull, 0xcdbef72773ca3007ull, 0x23f7ed250d8886faull, 0x23f7ed250d8886faull, 0x23f7ed250d8886faull, 0x23f7ed250d8886faull, 0x23f7ed250d8886faull }, 0xfe38f375f5db414aull },
  { 8, 200, 3, { 0xde4694f0bd5a61full, 0x6c0f70fd8b0708a1ull, 0xb6dd621a2ee0b451ull, 0xd23cdca67268fe64ull, 0xd23cdca67268fe64ull, 0xd23cdca67268fe64ull, 0xd23cdca67268fe64ull }, 0xe0b7aad0c6554648ull },
  { 8, 400, 4, { 0x468ca981a1f43109ull, 0xdae0dffd8b52fb3cull, 0x7eb7aa805ddd2562ull, 0x7eb7aa805ddd2562ull, 0x7eb7aa805ddd2562ull, 0x7eb7aa805ddd2562ull, 0x7eb7aa805ddd2562ull }, 0x98ed65d4bdd5faa6ull },
  { 9, 300, 5, { 0x1049a4d4b1db1b58ull, 0x45d5b33f06a84dafull, 0x45d5b33f06a84dafull, 0xf650dbc539e9f55eull, 0x7e53da56304a6c6eull, 0x7e53da56304a6c6eull, 0x7e53da56304a6c6eull }, 0xb077c9882d4406c2ull },
  { 10, 500, 6, { 0x4ee25cf2fef9a49full, 0x18a1b0fbd368cfacull, 0x18a1b0fbd368cfacull, 0x18a1b0fbd368cfacull, 0xa0f018991f814147ull, 0xa0f018991f814147ull, 0xa0f018991f814147ull }, 0x84b5bb7b1ec0919cull },
  { 12, 600, 8, { 0x9baf932f3e5117c4ull, 0xa0b35e52b62b282full, 0xa0b35e52b62b282full, 0xd6700644b31fe228ull, 0xd6700644b31fe228ull, 0x4c1e88de3c3c9e72ull, 0x4c1e88de3c3c9e72ull }, 0x444b91553680850ull },
  { 8, 1000, 10, { 0xb1e4651511a07cbull, 0x525b71c2cafb89f5ull, 0xcc4186b310fee287ull, 0xe9f6a716a1391137ull, 0xe9f6a716a1391137ull, 0xf014f0844c4c0b83ull, 0xf014f0844c4c0b83ull }, 0x86aafd9cade6c514ull },
};

struct xmg_golden
{
  const char* design;
  unsigned n;
  std::uint64_t k[4]; ///< xmg_from_luts(lut_map(optimize(aig, 2), k)) for k = 3..6
};

const xmg_golden xmg_goldens[] = {
  { "intdiv", 4, { 0x718fac749109d7b2ull, 0x1c1fc7a5b939713full, 0x1c1fc7a5b939713full, 0x1c1fc7a5b939713full } },
  { "intdiv", 5, { 0xffc01e373c5af7baull, 0xcd03d4c260c5acadull, 0x8656f0e2dd303f06ull, 0x8656f0e2dd303f06ull } },
  { "intdiv", 6, { 0x4282812c838b531cull, 0x236d10c53047de11ull, 0x7394bded333d76bbull, 0x81b56c7fb83c1119ull } },
  { "intdiv", 7, { 0xbbbb1d3afacdfe9eull, 0x6d4cb37a3c9d100full, 0x5a70251b80668a34ull, 0xa3b94ff882c52f4cull } },
  { "intdiv", 8, { 0x695f0e3ba9ed119bull, 0x65eec4ec995bd452ull, 0x9db01ca1c89c00dbull, 0x8a922ba1fe538516ull } },
  { "intdiv", 9, { 0x8bd6e43eabdb310bull, 0x92c00e155eb3294ull, 0x7e6427ee2076abc1ull, 0xad7dae35bf9f01a1ull } },
  { "intdiv", 10, { 0x35a0d26b11ab2e98ull, 0x15cd2ec14816dfcbull, 0xf59a28f409a8749dull, 0x9f746ca54c76eb5full } },
  { "newton", 4, { 0xd4a774e127c0f40bull, 0x48c679ee95394c26ull, 0x48c679ee95394c26ull, 0x48c679ee95394c26ull } },
  { "newton", 5, { 0x1b19ef4320549cb8ull, 0x152d8a79c817c0d4ull, 0xabdb0d12f6139268ull, 0xabdb0d12f6139268ull } },
  { "newton", 6, { 0xa9a20ef64e4890ffull, 0x8d064afe3a4fa4a6ull, 0x5b4770c051a4fd54ull, 0x28f74a435db1cad6ull } },
  { "newton", 7, { 0x4bc3a2c5e6a4d476ull, 0xd884d216ca3d947full, 0xac30b34ec313c44dull, 0x1b35b408fb8dfe38ull } },
  { "newton", 8, { 0xa0417a9507004540ull, 0xf74cbf8d7a233b16ull, 0xe63f39c7cb56f49dull, 0x45791974749ee8dull } },
  { "newton", 9, { 0xa2878360bb894b2bull, 0xa2f757a088e94497ull, 0x5f52358fd16afd00ull, 0x6b31321632a3dcc5ull } },
  { "newton", 10, { 0x715927552e06eeceull, 0x4326823e79fb301dull, 0x47c85298eee6a392ull, 0x789d07083e212ac4ull } },
};

struct isop_golden
{
  unsigned num_vars;
  std::uint64_t complete;    ///< 64 seeded completely specified functions
  std::uint64_t dont_cares;  ///< 64 seeded (on, dc) pairs
};

const isop_golden isop_goldens[] = {
  { 5, 0x30b855ddbfdd88f7ull, 0x1ae1622123509f09ull },
  { 6, 0x1553aa8b4fa8753bull, 0x2ed021ebde5e027aull },
  { 7, 0x6fb4c9103edcf50bull, 0x138d12e80aa8c566ull },
  { 8, 0x96f20e03f02cfe06ull, 0x89e8f1498ff80e61ull },
};

constexpr std::uint64_t isop_all_4var_golden = 0xaca2eb2128b4c128ull;

} // namespace

TEST( isop, golden_all_four_variable_functions )
{
  content_hasher h;
  for ( std::uint64_t bits = 0; bits < ( 1u << 16 ); ++bits )
  {
    truth_table f( 4 );
    f.blocks()[0] = bits;
    hash_cubes( h, isop( f ) );
  }
  EXPECT_EQ( h.digest(), isop_all_4var_golden ) << "0x" << std::hex << h.digest() << "ull";
}

TEST( isop, golden_seeded_functions )
{
  for ( const auto& g : isop_goldens )
  {
    content_hasher complete;
    content_hasher dont_cares;
    for ( std::uint64_t seed = 1; seed <= 64; ++seed )
    {
      const auto f = random_tt( g.num_vars, seed * 7919u + g.num_vars );
      hash_cubes( complete, isop( f ) );
      // Sparse don't-cares: about one minterm in four.
      const auto dc = random_tt( g.num_vars, seed * 104729u ) &
                      random_tt( g.num_vars, seed * 1299709u ) & ~f;
      hash_cubes( dont_cares, isop( f, dc ) );
    }
    EXPECT_TRUE( complete.digest() == g.complete && dont_cares.digest() == g.dont_cares )
        << std::hex << "  { " << std::dec << g.num_vars << ", 0x" << std::hex
        << complete.digest() << "ull, 0x" << dont_cares.digest() << "ull },";
  }
}

TEST( aig_optimize, golden_designs_are_bit_identical )
{
  for ( const auto& g : optimize_goldens )
  {
    const auto aig = elaborated_design( g.design, g.n );
    const auto refactor = aig_refactor( aig ).content_hash();
    std::uint64_t rounds[4];
    bool same = refactor == g.refactor;
    for ( unsigned r = 0; r < 4u; ++r )
    {
      rounds[r] = optimize( aig, r ).content_hash();
      same = same && rounds[r] == g.rounds[r];
    }
    EXPECT_TRUE( same ) << std::hex << "  { \"" << g.design << "\", " << std::dec << g.n
                        << ", 0x" << std::hex << refactor << "ull, { 0x" << rounds[0]
                        << "ull, 0x" << rounds[1] << "ull, 0x" << rounds[2] << "ull, 0x"
                        << rounds[3] << "ull } },";
  }
}

TEST( aig_optimize, golden_random_aigs_are_bit_identical )
{
  for ( const auto& g : random_goldens )
  {
    const auto aig = random_raw_aig( g.num_pis, g.num_gates, g.seed );
    std::uint64_t refactor[7];
    bool same = true;
    for ( unsigned k = 2; k <= 8u; ++k )
    {
      refactor[k - 2u] = aig_refactor( aig, k ).content_hash();
      same = same && refactor[k - 2u] == g.refactor[k - 2u];
    }
    const auto optimized = optimize( aig, 3 ).content_hash();
    same = same && optimized == g.optimized;
    std::ostringstream line;
    line << std::hex << "  { " << std::dec << g.num_pis << ", " << g.num_gates << ", "
         << g.seed << ", {";
    for ( unsigned k = 0; k < 7u; ++k )
    {
      line << ( k ? ", " : " " ) << "0x" << std::hex << refactor[k] << "ull";
    }
    line << " }, 0x" << optimized << "ull },";
    EXPECT_TRUE( same ) << line.str();
  }
}

TEST( xmg_resynth, golden_networks_are_bit_identical )
{
  for ( const auto& g : xmg_goldens )
  {
    const auto opt = optimize( elaborated_design( g.design, g.n ), 2 );
    std::uint64_t hashes[4];
    bool same = true;
    for ( unsigned k = 3; k <= 6u; ++k )
    {
      lut_map_params params;
      params.cut_size = k;
      xmg_resynth_stats stats;
      const auto xmg = xmg_from_luts( lut_map( opt, params ), &stats );
      hashes[k - 3u] = xmg_hash( xmg, stats );
      same = same && hashes[k - 3u] == g.k[k - 3u];
    }
    EXPECT_TRUE( same ) << std::hex << "  { \"" << g.design << "\", " << std::dec << g.n
                        << ", { 0x" << std::hex << hashes[0] << "ull, 0x" << hashes[1]
                        << "ull, 0x" << hashes[2] << "ull, 0x" << hashes[3] << "ull } },";
  }
}
