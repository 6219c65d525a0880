#include <gtest/gtest.h>

#include <random>

#include "common/content_hash.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/lut_map.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

aig_network random_aig( unsigned num_pis, unsigned num_gates, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  aig_network aig( num_pis );
  std::vector<aig_lit> pool;
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    const auto a = pool[rng() % pool.size()] ^ static_cast<aig_lit>( rng() & 1u );
    const auto b = pool[rng() % pool.size()] ^ static_cast<aig_lit>( rng() & 1u );
    pool.push_back( aig.create_and( a, b ) );
  }
  for ( int o = 0; o < 3; ++o )
  {
    aig.add_po( pool[pool.size() - 1u - static_cast<std::size_t>( o ) % pool.size()] );
  }
  return aig;
}

bool networks_equal_by_simulation( const aig_network& aig, const lut_network& luts )
{
  if ( aig.num_pis() > 12u )
  {
    return false;
  }
  for ( std::uint64_t i = 0; i < ( std::uint64_t{ 1 } << aig.num_pis() ); ++i )
  {
    std::vector<bool> inputs( aig.num_pis() );
    for ( unsigned b = 0; b < aig.num_pis(); ++b )
    {
      inputs[b] = ( i >> b ) & 1u;
    }
    if ( aig.evaluate( inputs ) != luts.evaluate( inputs ) )
    {
      return false;
    }
  }
  return true;
}

bool xmg_equals_aig( const aig_network& aig, const xmg_network& xmg )
{
  for ( std::uint64_t i = 0; i < ( std::uint64_t{ 1 } << aig.num_pis() ); ++i )
  {
    std::vector<bool> inputs( aig.num_pis() );
    for ( unsigned b = 0; b < aig.num_pis(); ++b )
    {
      inputs[b] = ( i >> b ) & 1u;
    }
    if ( aig.evaluate( inputs ) != xmg.evaluate( inputs ) )
    {
      return false;
    }
  }
  return true;
}

} // namespace

TEST( lut_map, covers_simple_network )
{
  aig_network aig( 4 );
  aig.add_po( aig.create_xor( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ),
                              aig.create_or( aig.pi( 2 ), aig.pi( 3 ) ) ) );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
  // A 4-input function fits one 4-LUT.
  EXPECT_EQ( net.luts.size(), 1u );
  EXPECT_LE( net.luts[0].fanins.size(), 4u );
}

TEST( lut_map, cut_size_limits_fanins )
{
  const auto aig = random_aig( 8, 40, 5 );
  for ( const unsigned k : { 3u, 4u, 6u } )
  {
    lut_map_params params;
    params.cut_size = k;
    const auto net = lut_map( aig, params );
    for ( const auto& lut : net.luts )
    {
      EXPECT_LE( lut.fanins.size(), k );
    }
    EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
  }
}

TEST( lut_map, rejects_out_of_range_parameters )
{
  const auto aig = random_aig( 6, 20, 3 );
  for ( const unsigned k : { 0u, 1u, 7u, 40u } )
  {
    lut_map_params params;
    params.cut_size = k;
    EXPECT_THROW( lut_map( aig, params ), std::invalid_argument ) << "k=" << k;
  }
  lut_map_params params;
  params.cuts_per_node = 0;
  EXPECT_THROW( lut_map( aig, params ), std::invalid_argument );
  params.cuts_per_node = 1;
  EXPECT_TRUE( networks_equal_by_simulation( aig, lut_map( aig, params ) ) );
}

TEST( lut_map, constant_and_pi_outputs )
{
  aig_network aig( 2 );
  aig.add_po( aig_network::const1 );
  aig.add_po( aig.pi( 1 ) );
  aig.add_po( lit_not( aig.pi( 0 ) ) );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
}

class lut_map_random : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( lut_map_random, equivalence_on_random_networks )
{
  const auto seed = GetParam();
  const auto aig = random_aig( 7, 60, seed );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
}

INSTANTIATE_TEST_SUITE_P( seeds, lut_map_random, ::testing::Range( 1u, 9u ) );

TEST( xmg_resynth, detects_parity_luts )
{
  // A 3-input XOR chain should map to XOR nodes with zero MAJ cost.
  aig_network aig( 3 );
  aig.add_po( aig.create_xor( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ), aig.pi( 2 ) ) );
  xmg_resynth_stats stats;
  const auto xmg = xmg_from_aig( aig, 4, &stats );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_EQ( xmg.num_maj(), 0u );
  EXPECT_GE( stats.direct_forms, 1u );
}

TEST( xmg_resynth, detects_maj_lut )
{
  aig_network aig( 3 );
  aig.add_po( aig.create_maj( aig.pi( 0 ), lit_not( aig.pi( 1 ) ), aig.pi( 2 ) ) );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_EQ( xmg.num_maj(), 1u );
}

TEST( xmg_resynth, full_adder_is_one_maj )
{
  // sum + carry of a full adder: the classic showcase for XMGs.
  aig_network aig( 3 );
  const auto a = aig.pi( 0 );
  const auto b = aig.pi( 1 );
  const auto c = aig.pi( 2 );
  aig.add_po( aig.create_xor( aig.create_xor( a, b ), c ) );
  aig.add_po( aig.create_maj( a, b, c ) );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_LE( xmg.num_maj(), 1u );
}

class xmg_resynth_random : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( xmg_resynth_random, equivalence_on_random_networks )
{
  const auto seed = GetParam();
  const auto aig = random_aig( 6, 45, seed * 23u );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
}

INSTANTIATE_TEST_SUITE_P( seeds, xmg_resynth_random, ::testing::Range( 1u, 11u ) );

TEST( xmg_resynth, intdiv_design_equivalence )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 5 ) );
  const auto xmg = xmg_from_aig( mod.aig );
  EXPECT_TRUE( xmg_equals_aig( mod.aig, xmg ) );
}

TEST( xmg_resynth, ripple_adder_is_maj_xor_friendly )
{
  // w-bit ripple adder: w MAJ (carries) + XORs; the resynthesis should get
  // close to that bound from the AIG's 4-feasible cuts.
  const auto mod = verilog::elaborate_verilog( R"(
    module add(input [5:0] a, input [5:0] b, output [5:0] y);
      assign y = a + b;
    endmodule
  )" );
  const auto xmg = xmg_from_aig( mod.aig );
  EXPECT_TRUE( xmg_equals_aig( mod.aig, xmg ) );
  // 6-bit adder: carries need ~2-3 MAJ each with 4-input cuts, far below
  // the ~5 AND/OR nodes per bit a plain AIG mapping would pay.
  EXPECT_LE( xmg.num_maj(), 18u );
  EXPECT_GE( xmg.num_xor(), 3u );
}

// --- golden mapper pins -------------------------------------------------------
//
// The LUT networks below were hashed from the vector-of-cuts mapper that
// preceded the fixed-capacity cut records.  Any change to candidate order,
// duplicate handling, the sort comparator or the area-flow sum changes a
// hash, so the rewritten mapper is pinned to bit-identical output.

namespace
{

std::uint64_t lut_network_hash( const lut_network& net )
{
  content_hasher h;
  h.update( net.num_pis );
  h.update( net.luts.size() );
  for ( const auto& lut : net.luts )
  {
    h.update( lut.fanins.size() );
    for ( const auto f : lut.fanins )
    {
      h.update_u32( f );
    }
    h.update( lut.function.num_vars() );
    for ( const auto b : lut.function.blocks() )
    {
      h.update( b );
    }
  }
  h.update( net.outputs.size() );
  for ( const auto& out : net.outputs )
  {
    h.update_u32( out.signal );
    h.update( out.complemented ? 1u : 0u );
  }
  return h.digest();
}

struct golden_case
{
  const char* design; ///< "intdiv", "newton" or "random"
  unsigned n;         ///< bitwidth; seed for "random"
  unsigned rounds;    ///< optimize rounds; cuts_per_node for "random"
  unsigned k;
  std::uint64_t hash;
  std::size_t maj;
  std::size_t xors;
};

const golden_case golden_cases[] = {
  { "intdiv", 4, 0, 3, 0x24d2a67c5b84250ull, 42, 39 },
  { "intdiv", 4, 0, 4, 0x93b165c75da34c7aull, 19, 7 },
  { "intdiv", 4, 0, 5, 0x93b165c75da34c7aull, 19, 7 },
  { "intdiv", 4, 0, 6, 0x93b165c75da34c7aull, 19, 7 },
  { "intdiv", 4, 1, 3, 0xb6e32b935a84dbe4ull, 41, 34 },
  { "intdiv", 4, 1, 4, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 4, 1, 5, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 4, 1, 6, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 4, 2, 3, 0xfa29b0b92fb4e7dull, 45, 32 },
  { "intdiv", 4, 2, 4, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 4, 2, 5, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 4, 2, 6, 0xda1137d2072efa8cull, 19, 7 },
  { "intdiv", 5, 0, 3, 0x44f97f8f04d4af5bull, 76, 76 },
  { "intdiv", 5, 0, 4, 0x602a1e3c917430fbull, 118, 87 },
  { "intdiv", 5, 0, 5, 0x8d1dc48732395076ull, 48, 15 },
  { "intdiv", 5, 0, 6, 0x8d1dc48732395076ull, 48, 15 },
  { "intdiv", 5, 1, 3, 0xe8f6885e9af0dbc9ull, 71, 72 },
  { "intdiv", 5, 1, 4, 0x7f6d988daf000639ull, 121, 78 },
  { "intdiv", 5, 1, 5, 0xc74b2b66205964eull, 48, 15 },
  { "intdiv", 5, 1, 6, 0xc74b2b66205964eull, 48, 15 },
  { "intdiv", 5, 2, 3, 0x724a7d1ed5557367ull, 64, 58 },
  { "intdiv", 5, 2, 4, 0xdef52178841db570ull, 101, 62 },
  { "intdiv", 5, 2, 5, 0xc74b2b66205964eull, 48, 15 },
  { "intdiv", 5, 2, 6, 0xc74b2b66205964eull, 48, 15 },
  { "intdiv", 6, 0, 3, 0xa3a3e3206ca95fd7ull, 107, 122 },
  { "intdiv", 6, 0, 4, 0xbdec551194968536ull, 198, 150 },
  { "intdiv", 6, 0, 5, 0x8e6b40e960ee183full, 233, 143 },
  { "intdiv", 6, 0, 6, 0xd70bcdac8e6baa92ull, 87, 0 },
  { "intdiv", 6, 1, 3, 0x33d398edb5c4289bull, 106, 118 },
  { "intdiv", 6, 1, 4, 0x138103e0cbe48be7ull, 198, 141 },
  { "intdiv", 6, 1, 5, 0x1b393496e9a91962ull, 232, 128 },
  { "intdiv", 6, 1, 6, 0xc3c78fd7a5b48c43ull, 87, 0 },
  { "intdiv", 6, 2, 3, 0x48c287c89bae709dull, 99, 105 },
  { "intdiv", 6, 2, 4, 0xb75b0348903c7f10ull, 193, 121 },
  { "intdiv", 6, 2, 5, 0x5b988a6dc50cb8e0ull, 243, 124 },
  { "intdiv", 6, 2, 6, 0xc3c78fd7a5b48c43ull, 87, 0 },
  { "intdiv", 7, 0, 3, 0x3279e6a9a4df7255ull, 154, 177 },
  { "intdiv", 7, 0, 4, 0x7429b666dc3be08bull, 297, 229 },
  { "intdiv", 7, 0, 5, 0xc64615250a1412aull, 385, 265 },
  { "intdiv", 7, 0, 6, 0x6bf18070e3531090ull, 490, 278 },
  { "intdiv", 7, 1, 3, 0x688d6f0ea6fc5a6bull, 152, 173 },
  { "intdiv", 7, 1, 4, 0x676ecbe95378a73full, 282, 224 },
  { "intdiv", 7, 1, 5, 0xb4631b8cf5741cfull, 414, 272 },
  { "intdiv", 7, 1, 6, 0x6fe766b09d97788cull, 536, 290 },
  { "intdiv", 7, 2, 3, 0x23d14061f6d6376full, 136, 161 },
  { "intdiv", 7, 2, 4, 0xfd751744fd883568ull, 284, 197 },
  { "intdiv", 7, 2, 5, 0xa7af8c1dc529a824ull, 418, 245 },
  { "intdiv", 7, 2, 6, 0x4d5e634e19bab66cull, 578, 335 },
  { "intdiv", 8, 0, 3, 0x41a901092d4a6b8bull, 196, 244 },
  { "intdiv", 8, 0, 4, 0x3565c6afaaba5150ull, 399, 321 },
  { "intdiv", 8, 0, 5, 0x5526a6d76bbf4e8bull, 463, 306 },
  { "intdiv", 8, 0, 6, 0xbf82021db34a0901ull, 611, 479 },
  { "intdiv", 8, 1, 3, 0xac89703e698a856eull, 195, 240 },
  { "intdiv", 8, 1, 4, 0x3b48cb24b0b68ac5ull, 374, 320 },
  { "intdiv", 8, 1, 5, 0xa22f7a1fb341e8d4ull, 443, 312 },
  { "intdiv", 8, 1, 6, 0x8e0feec8fcd9383cull, 580, 385 },
  { "intdiv", 8, 2, 3, 0x42045265060b69ceull, 186, 226 },
  { "intdiv", 8, 2, 4, 0x3d3e589ff201540eull, 382, 287 },
  { "intdiv", 8, 2, 5, 0x5cb03033a9d1c690ull, 498, 310 },
  { "intdiv", 8, 2, 6, 0x162490d7c5c2ae6ull, 549, 368 },
  { "newton", 4, 0, 3, 0x7e2a8100bcc04cf0ull, 473, 556 },
  { "newton", 4, 0, 4, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 0, 5, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 0, 6, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 1, 3, 0x9ef8790e42a2faeaull, 480, 626 },
  { "newton", 4, 1, 4, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 1, 5, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 1, 6, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 2, 3, 0xf2ee147966cf55ffull, 485, 576 },
  { "newton", 4, 2, 4, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 2, 5, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 4, 2, 6, 0x7dcf22eb1ca12596ull, 12, 0 },
  { "newton", 5, 0, 3, 0x97e7d107b3798836ull, 660, 814 },
  { "newton", 5, 0, 4, 0x33728c537ac51102ull, 1441, 1719 },
  { "newton", 5, 0, 5, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 5, 0, 6, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 5, 1, 3, 0x2c17baa890342711ull, 673, 904 },
  { "newton", 5, 1, 4, 0x1ed23e0ca3eb39baull, 1383, 1818 },
  { "newton", 5, 1, 5, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 5, 1, 6, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 5, 2, 3, 0xec0e61945592ba6ull, 683, 877 },
  { "newton", 5, 2, 4, 0x8c00719fc019068ull, 1428, 1765 },
  { "newton", 5, 2, 5, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 5, 2, 6, 0x3cb3de7903ffe8dfull, 27, 0 },
  { "newton", 6, 0, 3, 0x9d99860a28b22253ull, 884, 1139 },
  { "newton", 6, 0, 4, 0x906e172bc891b23ull, 1784, 2238 },
  { "newton", 6, 0, 5, 0xbd70ade35b858f49ull, 2700, 2610 },
  { "newton", 6, 0, 6, 0x29cc492b95f2a34full, 39, 0 },
  { "newton", 6, 1, 3, 0xfceec52a5ff39aa0ull, 879, 1418 },
  { "newton", 6, 1, 4, 0xc359b2fe418290f9ull, 1766, 2260 },
  { "newton", 6, 1, 5, 0xbea2851027a50788ull, 2629, 2521 },
  { "newton", 6, 1, 6, 0x29cc492b95f2a34full, 39, 0 },
  { "newton", 6, 2, 3, 0x59db24b29d9048ccull, 888, 1343 },
  { "newton", 6, 2, 4, 0xadc73a9bb48b4741ull, 1779, 2326 },
  { "newton", 6, 2, 5, 0x27b0004f79fbc838ull, 2724, 2710 },
  { "newton", 6, 2, 6, 0x29cc492b95f2a34full, 39, 0 },
  { "newton", 7, 0, 3, 0x9379de58fedf445aull, 1007, 1363 },
  { "newton", 7, 0, 4, 0x3eaf4ae9a4e4d424ull, 2403, 2739 },
  { "newton", 7, 0, 5, 0x8037b1726476601eull, 3184, 3097 },
  { "newton", 7, 0, 6, 0xb65850af89a38a5aull, 5109, 3851 },
  { "newton", 7, 1, 3, 0xd0025efd8e8d45a9ull, 1080, 1660 },
  { "newton", 7, 1, 4, 0xe220a19121039078ull, 2470, 2737 },
  { "newton", 7, 1, 5, 0xa759108661c887cdull, 3219, 3265 },
  { "newton", 7, 1, 6, 0xd541b35271a3c78cull, 5472, 3600 },
  { "newton", 7, 2, 3, 0x67226a81209b2469ull, 1090, 1591 },
  { "newton", 7, 2, 4, 0xb056be3129029b5aull, 2425, 2790 },
  { "newton", 7, 2, 5, 0x5ba2dde488838b43ull, 3073, 3073 },
  { "newton", 7, 2, 6, 0x8dc89b2a5b064b5aull, 5118, 3884 },
  { "newton", 8, 0, 3, 0x76b4314a765b0dbeull, 3014, 3910 },
  { "newton", 8, 0, 4, 0x1bb41db43be330ffull, 6278, 8399 },
  { "newton", 8, 0, 5, 0xe3a15508c2b4df34ull, 8546, 9819 },
  { "newton", 8, 0, 6, 0x98b48db21ddf86e1ull, 15385, 12253 },
  { "newton", 8, 1, 3, 0x7e9c55289f389eb6ull, 2953, 4870 },
  { "newton", 8, 1, 4, 0x53513bd21152643ull, 6813, 9362 },
  { "newton", 8, 1, 5, 0x2cd7ac50d111a8e9ull, 8677, 9901 },
  { "newton", 8, 1, 6, 0x38c229fe03bd9dccull, 15695, 11672 },
  { "newton", 8, 2, 3, 0x5a499d2c2f2ee8e4ull, 2952, 4385 },
  { "newton", 8, 2, 4, 0xef1d4ba2764426beull, 6867, 9194 },
  { "newton", 8, 2, 5, 0x3be99eceeaf9beadull, 9140, 10446 },
  { "newton", 8, 2, 6, 0x6f3991943fc9bcbbull, 16115, 12844 },
  { "random", 101, 1, 4, 0xc3b26a0a101a11f4ull, 11, 0 },
  { "random", 102, 2, 5, 0xa9b68383210b792dull, 15, 0 },
  { "random", 103, 3, 6, 0x227259df34968cbdull, 12, 0 },
  { "random", 104, 4, 3, 0x6a6c9886a5f1ad0eull, 18, 0 },
  { "random", 105, 5, 4, 0x21d5e4d09e6e1b19ull, 16, 0 },
  { "random", 106, 6, 5, 0xff878eacb4f7502full, 25, 0 },
  { "random", 107, 7, 6, 0x51ea9da2ffae58fbull, 27, 3 },
  { "random", 108, 8, 3, 0xa6da0dd88dfb862ull, 17, 0 },
  { "random", 109, 9, 4, 0x4b0f0fd89cf71a02ull, 32, 2 },
  { "random", 110, 10, 5, 0x77cda4a1a96a8582ull, 11, 0 },
};

} // namespace

TEST( lut_map, golden_networks_are_bit_identical )
{
  std::string design;
  unsigned n = 0;
  unsigned rounds = ~0u;
  aig_network opt;
  for ( const auto& g : golden_cases )
  {
    lut_map_params params;
    params.cut_size = g.k;
    if ( std::string{ g.design } == "random" )
    {
      opt = random_aig( 8, 90, g.n );
      params.cuts_per_node = g.rounds;
      design.clear();
    }
    else if ( design != g.design || n != g.n || rounds != g.rounds )
    {
      design = g.design;
      n = g.n;
      rounds = g.rounds;
      const auto src =
          design == "intdiv" ? verilog::generate_intdiv( n ) : verilog::generate_newton( n );
      opt = optimize( verilog::elaborate_verilog( src ).aig, rounds );
    }
    const auto net = lut_map( opt, params );
    const auto xmg = xmg_from_luts( net );
    const auto hash = lut_network_hash( net );
    EXPECT_TRUE( hash == g.hash && xmg.num_maj() == g.maj && xmg.num_xor() == g.xors )
        << std::hex << "  { \"" << g.design << "\", " << std::dec << g.n << ", " << g.rounds
        << ", " << g.k << ", 0x" << std::hex << hash << "ull, " << std::dec << xmg.num_maj()
        << ", " << xmg.num_xor() << " },";
  }
}
