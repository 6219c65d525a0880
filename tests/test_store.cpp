/// Persistent artifact store: serialization round trips, corruption
/// tolerance, concurrency, cross-process reuse, and the cache's disk tier
/// (including the ESOP budget-upgrade path), and the cache's per-key
/// publish-once cells under concurrent callers without a task graph.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_injection.hpp"
#include "core/dse.hpp"
#include "core/flows.hpp"
#include "store/artifact_store.hpp"
#include "store/serialize.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/exorcism.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Self-deleting store root.
struct temp_dir
{
  std::string path;
  temp_dir()
  {
    char pattern[] = "/tmp/qsyn-store-test-XXXXXX";
    path = ::mkdtemp( pattern );
  }
  ~temp_dir()
  {
    std::error_code ec;
    std::filesystem::remove_all( path, ec );
  }
};

aig_network elaborated_intdiv( unsigned n )
{
  return verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, n ) ).aig;
}

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

esop sample_esop()
{
  esop e;
  e.num_inputs = 5;
  e.num_outputs = 3;
  for ( std::uint64_t i = 0; i < 6; ++i )
  {
    esop_term term;
    term.product.mask = ( i * 7u + 1u ) & 0x1fu;
    term.product.polarity = term.product.mask & ( i + 3u );
    term.output_mask = ( i % 7u ) & 0x7u;
    e.terms.push_back( term );
  }
  return e;
}

} // namespace

// --- serialization round trips -----------------------------------------------

TEST( store_serialize, aig_round_trip_is_node_identical )
{
  const auto aig = elaborated_intdiv( 5 );
  const auto restored = store::deserialize_aig( store::serialize_aig( aig ) );
  EXPECT_EQ( restored.num_pis(), aig.num_pis() );
  EXPECT_EQ( restored.num_pos(), aig.num_pos() );
  EXPECT_EQ( restored.num_nodes(), aig.num_nodes() );
  EXPECT_EQ( restored.content_hash(), aig.content_hash() );
  // Strash stays live after raw reconstruction: re-creating an existing
  // AND must hash-cons, not append.
  auto mutated = restored;
  const auto nodes_before = mutated.num_nodes();
  mutated.create_and( mutated.fanin0( static_cast<std::uint32_t>( nodes_before ) - 1u ),
                      mutated.fanin1( static_cast<std::uint32_t>( nodes_before ) - 1u ) );
  EXPECT_EQ( mutated.num_nodes(), nodes_before );
}

TEST( store_serialize, esop_round_trip )
{
  const auto e = sample_esop();
  const auto restored = store::deserialize_esop( store::serialize_esop( e ) );
  EXPECT_EQ( restored.num_inputs, e.num_inputs );
  EXPECT_EQ( restored.num_outputs, e.num_outputs );
  ASSERT_EQ( restored.terms.size(), e.terms.size() );
  for ( std::size_t i = 0; i < e.terms.size(); ++i )
  {
    EXPECT_TRUE( restored.terms[i] == e.terms[i] ) << "term " << i;
  }
}

TEST( store_serialize, xmg_round_trip_is_node_identical )
{
  xmg_network g( 3 );
  const auto m = g.create_maj( g.pi( 0 ), g.pi( 1 ), g.pi( 2 ) );
  const auto x = g.create_xor( m, g.pi( 0 ) );
  g.add_po( g.create_maj( m, x, xmg_network::const1 ) );
  g.add_po( x ^ 1u );

  const auto restored = store::deserialize_xmg( store::serialize_xmg( g ) );
  ASSERT_EQ( restored.num_nodes(), g.num_nodes() );
  EXPECT_EQ( restored.num_maj(), g.num_maj() );
  EXPECT_EQ( restored.num_xor(), g.num_xor() );
  ASSERT_EQ( restored.pos().size(), g.pos().size() );
  EXPECT_EQ( restored.pos(), g.pos() );
  for ( std::uint32_t n = g.num_pis() + 1u; n < g.num_nodes(); ++n )
  {
    EXPECT_EQ( restored.kind( n ), g.kind( n ) ) << "node " << n;
    EXPECT_EQ( restored.fanins( n ), g.fanins( n ) ) << "node " << n;
  }
}

TEST( store_serialize, circuit_round_trip_preserves_gates_and_costs )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.esop_p = 1;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  const auto& circuit = result.circuit;

  const auto restored = store::deserialize_circuit( store::serialize_circuit( circuit ) );
  ASSERT_EQ( restored.num_lines(), circuit.num_lines() );
  ASSERT_EQ( restored.num_gates(), circuit.num_gates() );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& a = restored.line( l );
    const auto& b = circuit.line( l );
    EXPECT_EQ( a.name, b.name );
    EXPECT_EQ( a.is_primary_input, b.is_primary_input );
    EXPECT_EQ( a.is_constant_input, b.is_constant_input );
    EXPECT_EQ( a.constant_value, b.constant_value );
    EXPECT_EQ( a.is_garbage, b.is_garbage );
    EXPECT_EQ( a.output_index, b.output_index );
  }
  for ( std::size_t g = 0; g < circuit.num_gates(); ++g )
  {
    const auto& a = restored.gates()[g];
    const auto& b = circuit.gates()[g];
    EXPECT_EQ( a.target, b.target );
    ASSERT_EQ( a.controls.size(), b.controls.size() );
    for ( std::size_t c = 0; c < b.controls.size(); ++c )
    {
      EXPECT_EQ( a.controls[c].line, b.controls[c].line );
      EXPECT_EQ( a.controls[c].positive, b.controls[c].positive );
    }
  }
  const auto costs = report_costs( restored );
  EXPECT_EQ( costs.qubits, result.costs.qubits );
  EXPECT_EQ( costs.t_count, result.costs.t_count );
  EXPECT_EQ( costs.depth, result.costs.depth );
}

TEST( store_serialize, circuit_round_trip_across_control_list_storage )
{
  // Gates with 0, 1, 2 (inline) and 3, 14 (heap) controls of both
  // polarities survive serialization unchanged.
  reversible_circuit circuit( 16 );
  for ( const unsigned count : { 0u, 1u, 2u, 3u, 14u } )
  {
    control_list controls;
    for ( unsigned i = 0; i < count; ++i )
    {
      controls.push_back( { i, ( i + count ) % 2u == 0u } );
    }
    circuit.add_mct( controls, 15u - ( count % 2u ) );
  }
  const auto restored = store::deserialize_circuit( store::serialize_circuit( circuit ) );
  ASSERT_EQ( restored.num_gates(), circuit.num_gates() );
  for ( std::size_t g = 0; g < circuit.num_gates(); ++g )
  {
    EXPECT_EQ( restored.gates()[g].target, circuit.gates()[g].target );
    EXPECT_EQ( restored.gates()[g].controls, circuit.gates()[g].controls ) << "gate " << g;
  }
  EXPECT_EQ( store::serialize_circuit( restored ), store::serialize_circuit( circuit ) );
}

TEST( store_serialize, readers_reject_malformed_payloads )
{
  // Truncation anywhere must throw, never read out of bounds.
  const auto aig_bytes = store::serialize_aig( elaborated_intdiv( 4 ) );
  for ( const std::size_t keep : { std::size_t{ 0 }, std::size_t{ 3 }, std::size_t{ 9 },
                                   aig_bytes.size() - 1u } )
  {
    const std::vector<std::uint8_t> cut( aig_bytes.begin(),
                                         aig_bytes.begin() + static_cast<long>( keep ) );
    EXPECT_THROW( store::deserialize_aig( cut ), store::deserialize_error ) << keep;
  }
  // Trailing garbage is corruption, not silently ignored.
  auto padded = aig_bytes;
  padded.push_back( 0x5a );
  EXPECT_THROW( store::deserialize_aig( padded ), store::deserialize_error );

  // AIG whose node references a future node.
  store::byte_writer w;
  w.u32( 1 );  // pis
  w.u32( 3 );  // nodes: const, pi, one and
  w.u32( 2 );  // fanin0 = pi 1
  w.u32( 90 ); // fanin1 = node 45: out of range
  w.u32( 0 );  // pos
  EXPECT_THROW( store::deserialize_aig( w.take() ), store::deserialize_error );

  // ESOP term with bits outside the declared variable range.
  store::byte_writer we;
  we.u32( 2 ); // inputs
  we.u32( 1 ); // outputs
  we.u32( 1 ); // terms
  we.u64( 0xff ); // mask beyond 2 variables
  we.u64( 0x1 );
  we.u64( 0x1 );
  EXPECT_THROW( store::deserialize_esop( we.take() ), store::deserialize_error );
}

// --- artifact store ----------------------------------------------------------

TEST( artifact_store, save_load_round_trip_and_stats )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 0x1234abcdu, store::payload_kind::esop, "esop[r=2,exo=1]" };
  const std::vector<std::uint8_t> payload = { 1, 2, 3, 4, 5, 200, 0, 7 };

  EXPECT_FALSE( s.load( key ).has_value() ); // absent: plain miss
  EXPECT_TRUE( s.save( key, payload ) );
  const auto loaded = s.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );

  // A different key (same design, other params) does not alias.
  store::store_key other = key;
  other.param_key = "esop[r=3,exo=1]";
  EXPECT_FALSE( s.load( other ).has_value() );

  const auto stats = s.stats();
  EXPECT_EQ( stats.writes, 1u );
  EXPECT_EQ( stats.hits, 1u );
  EXPECT_EQ( stats.misses, 2u );
  EXPECT_EQ( stats.corrupt_entries, 0u );
}

TEST( artifact_store, corrupted_entries_degrade_to_miss )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 42u, store::payload_kind::aig, "optimize[r=2]" };
  const std::vector<std::uint8_t> payload( 64, 0xab );
  ASSERT_TRUE( s.save( key, payload ) );
  const auto path = s.entry_path( key );

  const auto read_file = [&path] {
    std::ifstream in( path, std::ios::binary );
    return std::vector<char>( ( std::istreambuf_iterator<char>( in ) ),
                              std::istreambuf_iterator<char>() );
  };
  const auto write_file = [&path]( const std::vector<char>& bytes ) {
    std::ofstream out( path, std::ios::binary | std::ios::trunc );
    out.write( bytes.data(), static_cast<std::streamsize>( bytes.size() ) );
  };
  const auto original = read_file();

  // Truncated entry (header cut mid-field).
  write_file( std::vector<char>( original.begin(), original.begin() + 10 ) );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Flipped payload byte fails the checksum.
  auto flipped = original;
  flipped.back() = static_cast<char>( flipped.back() ^ 0x40 );
  write_file( flipped );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Mis-versioned entry (format_version is bytes 4..7).
  auto reversioned = original;
  reversioned[4] = static_cast<char>( reversioned[4] + 1 );
  write_file( reversioned );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Arbitrary garbage.
  write_file( std::vector<char>( 37, 'x' ) );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Empty file.
  write_file( {} );
  EXPECT_FALSE( s.load( key ).has_value() );

  const auto stats = s.stats();
  EXPECT_EQ( stats.corrupt_entries, 5u );

  // The intact entry still loads after restoring it.
  write_file( original );
  const auto loaded = s.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );
}

TEST( artifact_store, wrong_kind_or_design_hash_is_a_miss )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 7u, store::payload_kind::xmg, "xmg[r=2,k=4]" };
  ASSERT_TRUE( s.save( key, { 1, 2, 3 } ) );

  // Copy the entry onto the path of a key with a different kind: the
  // header check must reject it instead of handing xmg bytes to an aig
  // reader.
  store::store_key wrong_kind = key;
  wrong_kind.kind = store::payload_kind::aig;
  std::filesystem::copy_file( s.entry_path( key ), s.entry_path( wrong_kind ) );
  EXPECT_FALSE( s.load( wrong_kind ).has_value() );

  store::store_key wrong_design = key;
  wrong_design.design_hash = 8u;
  std::filesystem::create_directories(
      std::filesystem::path( s.entry_path( wrong_design ) ).parent_path() );
  std::filesystem::copy_file( s.entry_path( key ), s.entry_path( wrong_design ) );
  EXPECT_FALSE( s.load( wrong_design ).has_value() );
  EXPECT_EQ( s.stats().corrupt_entries, 2u );
}

TEST( artifact_store, concurrent_writers_of_one_key_stay_consistent )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key shared_key{ 99u, store::payload_kind::esop, "esop[r=1,exo=1]" };

  constexpr unsigned num_threads = 8;
  constexpr unsigned rounds = 40;
  std::vector<std::thread> threads;
  for ( unsigned t = 0; t < num_threads; ++t )
  {
    threads.emplace_back( [&s, &shared_key, t] {
      // Same-key writers race benignly; per-thread keys must never mix.
      const std::vector<std::uint8_t> shared_payload( 256, 0x77 );
      const store::store_key own_key{ 99u, store::payload_kind::esop,
                                      "esop[r=" + std::to_string( t + 2 ) + ",exo=1]" };
      const std::vector<std::uint8_t> own_payload( 64, static_cast<std::uint8_t>( t ) );
      for ( unsigned i = 0; i < rounds; ++i )
      {
        s.save( shared_key, shared_payload );
        s.save( own_key, own_payload );
        const auto got = s.load( own_key );
        if ( got )
        {
          ASSERT_EQ( *got, own_payload );
        }
        const auto sh = s.load( shared_key );
        if ( sh )
        {
          ASSERT_EQ( *sh, shared_payload );
        }
      }
    } );
  }
  for ( auto& t : threads )
  {
    t.join();
  }
  EXPECT_EQ( s.stats().corrupt_entries, 0u );
  EXPECT_EQ( s.stats().write_failures, 0u );
  // No temp files left behind.
  std::size_t leftovers = 0;
  for ( const auto& entry : std::filesystem::recursive_directory_iterator( dir.path ) )
  {
    if ( entry.is_regular_file() && entry.path().filename().string().rfind( ".tmp-", 0 ) == 0 )
    {
      ++leftovers;
    }
  }
  EXPECT_EQ( leftovers, 0u );
}

TEST( artifact_store, cross_process_round_trip )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const store::store_key key{ 0xfeedfaceu, store::payload_kind::circuit, "flow[tbs]" };
  const std::vector<std::uint8_t> payload = { 9, 8, 7, 6, 5, 4, 3, 2, 1, 0 };

  // The writing process: a fork'd child with its own store instance.
  const pid_t pid = fork();
  ASSERT_GE( pid, 0 );
  if ( pid == 0 )
  {
    store::artifact_store writer( root );
    const bool ok = writer.save( key, payload );
    _exit( ok ? 0 : 1 );
  }
  int status = 0;
  ASSERT_EQ( waitpid( pid, &status, 0 ), pid );
  ASSERT_TRUE( WIFEXITED( status ) );
  ASSERT_EQ( WEXITSTATUS( status ), 0 );

  // A fresh store in this process hits what the other process wrote.
  store::artifact_store reader( root );
  const auto loaded = reader.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );
  EXPECT_EQ( reader.stats().hits, 1u );
}

// --- the cache's disk tier ---------------------------------------------------

TEST( cache_store_tier, warm_cache_recomputes_nothing_and_is_bit_identical )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 5 );

  flow_params esop_params;
  esop_params.kind = flow_kind::esop_based;
  esop_params.esop_p = 1;
  flow_params hier_params;
  hier_params.kind = flow_kind::hierarchical;
  hier_params.cleanup = cleanup_strategy::bennett;

  // Cold: compute everything, write the store.
  flow_artifact_cache cold;
  cold.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto cold_esop = run_flow_staged( aig, esop_params, cold );
  const auto cold_hier = run_flow_staged( aig, hier_params, cold );
  const auto cold_stats = cold.stats();
  EXPECT_EQ( cold_stats.misses, 3u ); // optimize, esop, xmg
  EXPECT_EQ( cold_stats.store_hits, 0u );

  // Warm: a fresh cache and a fresh store instance on the same root — the
  // simulated "second process".  Every stage artifact must come from
  // disk; nothing recomputes.
  flow_artifact_cache warm;
  warm.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto warm_esop = run_flow_staged( aig, esop_params, warm );
  const auto warm_hier = run_flow_staged( aig, hier_params, warm );
  const auto warm_stats = warm.stats();
  EXPECT_EQ( warm_stats.misses, 0u );
  EXPECT_EQ( warm_stats.store_hits, cold_stats.misses );

  // Bit-identical synthesis results.
  EXPECT_EQ( warm_esop.costs.qubits, cold_esop.costs.qubits );
  EXPECT_EQ( warm_esop.costs.t_count, cold_esop.costs.t_count );
  EXPECT_EQ( warm_esop.costs.gates, cold_esop.costs.gates );
  EXPECT_EQ( warm_esop.costs.depth, cold_esop.costs.depth );
  EXPECT_EQ( warm_esop.esop_terms, cold_esop.esop_terms );
  EXPECT_EQ( warm_hier.costs.qubits, cold_hier.costs.qubits );
  EXPECT_EQ( warm_hier.costs.t_count, cold_hier.costs.t_count );
  EXPECT_EQ( warm_hier.costs.gates, cold_hier.costs.gates );
  EXPECT_EQ( warm_hier.xmg_maj, cold_hier.xmg_maj );
  EXPECT_EQ( warm_hier.xmg_xor, cold_hier.xmg_xor );
  EXPECT_TRUE( warm_esop.verified );
  EXPECT_TRUE( warm_hier.verified );
}

TEST( cache_store_tier, corrupt_store_entry_recomputes_silently )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 4 );

  auto disk = std::make_shared<store::artifact_store>( root );
  flow_artifact_cache cold;
  cold.attach_store( disk );
  cold.optimized( aig, 2 );

  // Vandalize the optimized-AIG entry.
  const store::store_key key{ aig.content_hash(), store::payload_kind::aig, "optimize[r=2]" };
  {
    std::ofstream out( disk->entry_path( key ), std::ios::binary | std::ios::trunc );
    out << "not an artifact";
  }

  flow_artifact_cache warm;
  warm.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto& recomputed = warm.optimized( aig, 2 );
  EXPECT_EQ( warm.stats().misses, 1u ); // corrupt entry degraded to recompute
  EXPECT_EQ( warm.stats().store_hits, 0u );

  // ... and the recomputation repaired the entry on disk.
  flow_artifact_cache repaired;
  repaired.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto& reloaded = repaired.optimized( aig, 2 );
  EXPECT_EQ( repaired.stats().store_hits, 1u );
  EXPECT_EQ( reloaded.content_hash(), recomputed.content_hash() );
}

TEST( cache_store_tier, budget_exhausted_esop_upgrades_on_later_budget )
{
  const auto aig = elaborated_intdiv( 5 );

  // In-memory upgrade: a tight first budget leaves a half-minimized cube
  // list; a later unlimited requester re-minimizes instead of reusing it.
  flow_artifact_cache cache;
  exorcism_params tight;
  tight.pair_budget = 1;
  const auto& first = cache.esop_intermediate( aig, 2, true, tight );
  ASSERT_TRUE( first.budget_exhausted );
  const auto first_terms = first.terms;

  const auto& upgraded = cache.esop_intermediate( aig, 2, true, exorcism_params{} );
  EXPECT_FALSE( upgraded.budget_exhausted );
  EXPECT_LE( upgraded.terms, first_terms );
  // The reference handed out before the upgrade is retired, not destroyed.
  EXPECT_EQ( first.terms, first_terms );
  EXPECT_TRUE( first.budget_exhausted );

  // An already-minimized artifact is not re-minimized again (same object).
  const auto& again = cache.esop_intermediate( aig, 2, true, exorcism_params{} );
  EXPECT_EQ( &again, &upgraded );
}

TEST( cache_store_tier, budget_exhausted_store_entry_upgrades_across_processes )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 5 );

  // "Process 1" stops at its pair budget and persists the exhausted entry.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    exorcism_params tight;
    tight.pair_budget = 1;
    const auto& art = cache.esop_intermediate( aig, 2, true, tight );
    ASSERT_TRUE( art.budget_exhausted );
  }

  // "Process 2" warm-starts from the store with budget to spare: the
  // entry is served from disk, upgraded, and written back.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    const auto& art = cache.esop_intermediate( aig, 2, true, exorcism_params{} );
    EXPECT_FALSE( art.budget_exhausted );
    EXPECT_EQ( cache.stats().store_hits, 1u );
    EXPECT_EQ( cache.stats().misses, 0u );
  }

  // "Process 3" reads the upgraded entry directly.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    const auto& art = cache.esop_intermediate( aig, 2, true, exorcism_params{} );
    EXPECT_FALSE( art.budget_exhausted );
    EXPECT_EQ( cache.stats().store_hits, 1u );
  }
}

TEST( cache_store_tier, explore_options_store_warm_starts_a_sweep )
{
  temp_dir dir;
  const auto root = dir.path + "/store";

  explore_options options;
  options.num_threads = 2;
  options.verification = verify_mode::sampled;
  options.functional_max_bitwidth = 0; // esop + hierarchical only (disk-backed stages)
  options.store = std::make_shared<store::artifact_store>( root );
  const auto cold = explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  ASSERT_EQ( cold.size(), 1u );
  EXPECT_GT( cold[0].cache.misses, 0u );
  EXPECT_EQ( cold[0].cache.store_hits, 0u );

  explore_options warm_options = options;
  warm_options.store = std::make_shared<store::artifact_store>( root );
  const auto warm = explore_designs( { reciprocal_design::intdiv }, 4, 4, warm_options );
  ASSERT_EQ( warm.size(), 1u );
  EXPECT_EQ( warm[0].cache.misses, 0u );
  EXPECT_EQ( warm[0].cache.store_hits, cold[0].cache.misses );
  ASSERT_EQ( warm[0].points.size(), cold[0].points.size() );
  for ( std::size_t i = 0; i < cold[0].points.size(); ++i )
  {
    EXPECT_EQ( warm[0].points[i].result.costs.qubits, cold[0].points[i].result.costs.qubits );
    EXPECT_EQ( warm[0].points[i].result.costs.t_count, cold[0].points[i].result.costs.t_count );
    EXPECT_EQ( warm[0].points[i].result.costs.gates, cold[0].points[i].result.costs.gates );
  }
}

// --- the cache's publish-once cells ------------------------------------------

TEST( cache_cells, stats_and_other_keys_answer_while_a_computation_is_in_flight )
{
  fault_guard guard;
  const auto aig =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 10 ) ).aig;
  flow_artifact_cache cache;
  // Armed far beyond reach, the site only counts polls: one poll means the
  // XMG computation has started (its optimize lookup already returned).
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 1000 );
  std::atomic<bool> done{ false };
  std::thread computing( [&] {
    cache.xmg_intermediate( aig, 2, 6 );
    done.store( true );
  } );
  const bool started = wait_for_polls( "flow.xmg", 1, done );

  const auto in_flight = cache.stats();
  const auto& optimized = cache.optimized( aig, 2 ); // a hit on another key
  const bool answered_in_flight = !done.load();
  computing.join();

  ASSERT_TRUE( started );
  EXPECT_TRUE( answered_in_flight );
  EXPECT_EQ( in_flight.misses, 1u ); // optimize published, xmg not yet
  EXPECT_EQ( in_flight.hits, 0u );
  EXPECT_EQ( optimized.num_ands(), optimize( aig, 2 ).num_ands() );
  EXPECT_EQ( cache.stats().misses, 2u );
}

TEST( cache_cells, concurrent_first_accesses_compute_once_without_a_graph )
{
  const auto aig = elaborated_intdiv( 5 );
  flow_artifact_cache cache;
  constexpr unsigned num_callers = 8;
  std::vector<const flow_artifact_cache::xmg_artifact*> seen( num_callers, nullptr );
  std::vector<std::thread> callers;
  for ( unsigned t = 0; t < num_callers; ++t )
  {
    callers.emplace_back( [&, t] { seen[t] = &cache.xmg_intermediate( aig, 2, 4 ); } );
  }
  for ( auto& t : callers )
  {
    t.join();
  }

  // One caller computed optimize + xmg; the other seven waited on the XMG
  // cell and hit.
  const auto stats = cache.stats();
  EXPECT_EQ( stats.misses, 2u );
  EXPECT_EQ( stats.hits, num_callers - 1u );
  EXPECT_EQ( stats.store_hits, 0u );
  for ( const auto* art : seen )
  {
    EXPECT_EQ( art, seen[0] );
  }
}

TEST( cache_cells, failed_computation_publishes_nothing_and_the_next_caller_recomputes )
{
  fault_guard guard;
  const auto aig = elaborated_intdiv( 5 );
  flow_artifact_cache cache;
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 0, 1 );
  EXPECT_THROW( cache.xmg_intermediate( aig, 2, 4 ), fault_injection::injected_fault );

  const auto& art = cache.xmg_intermediate( aig, 2, 4 );
  flow_artifact_cache fresh;
  const auto& expected = fresh.xmg_intermediate( aig, 2, 4 );
  EXPECT_EQ( art.graph.num_maj(), expected.graph.num_maj() );
  EXPECT_EQ( art.graph.num_xor(), expected.graph.num_xor() );

  // Only published computations count: optimize (kept from the failed
  // call) and the second call's XMG.
  const auto stats = cache.stats();
  EXPECT_EQ( stats.misses, 2u );
  EXPECT_EQ( stats.hits, 1u );
}
