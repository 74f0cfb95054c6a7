// Content-addressed identity for the service layer.
//
// The solution cache and the resource pools key on canonical FNV-1a
// fingerprints instead of user-supplied names: a job is identified by what
// it *computes on* (the netlist topology down to signal/gate names, the
// characterized library: tech parameters + variant/axis options) and what
// it *computes* (method, penalty, time budget, seeds, intra-search thread
// count). Two submissions with identical content share one cache entry --
// and one solve, via the cache's inflight dedup -- no matter how they were
// spelled on the command line.
//
// Names (netlist/signal/gate names) are deliberately part of the netlist
// fingerprint: the cached artifact is the solution *text*, which embeds
// them, and byte-identity of that text is the service's contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace svtox::svc {

/// Incremental 64-bit FNV-1a hasher with typed feed helpers. Doubles are
/// hashed by bit pattern (the inputs here are exact configuration values,
/// not computed floats), so the fingerprint is platform-stable for IEEE
/// doubles.
class Fnv {
 public:
  explicit Fnv(std::uint64_t seed = 14695981039346656037ULL) : hash_(seed) {}

  Fnv& bytes(const void* data, std::size_t size);
  Fnv& u64(std::uint64_t value);
  Fnv& i64(std::int64_t value) { return u64(static_cast<std::uint64_t>(value)); }
  Fnv& f64(double value);
  Fnv& boolean(bool value) { return u64(value ? 1 : 0); }
  /// Length-prefixed, so adjacent strings cannot alias ("ab","c" != "a","bc").
  Fnv& str(std::string_view s);

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_;
};

/// 16-hex-digit lowercase rendering of a 64-bit hash.
std::string hex64(std::uint64_t value);

/// Fingerprint of a characterized library: every TechParams field plus the
/// LibraryOptions (variant flags, NLDM axes, cell subset).
std::uint64_t fingerprint_library(const liberty::Library& library);

/// Fingerprint of a finalized netlist: signals, names, PIs/POs, flip-flops
/// and every gate's (name, cell, fanins, output).
std::uint64_t fingerprint_netlist(const netlist::Netlist& netlist);

/// Everything run-relevant about a job that is not library/netlist content.
struct RunKnobs {
  std::string method;        ///< Canonical method name ("heu1", ...).
  double penalty_fraction = 0.0;
  double time_limit_s = 0.0;
  int random_vectors = 0;
  std::uint64_t seed = 0;
  int search_threads = 1;    ///< Time-limited searches are thread-sensitive.
  std::uint64_t max_leaves = 0;  ///< Deterministic leaf budget (0 = none).
  /// Boundary-aware cone solve (hierarchical flow): the '0'/'1'/'x'
  /// pinned-input string and the "arrival:slew,..." boundary-timing seeds.
  /// Both change the solution, so cones solved under different stitched
  /// contexts must not alias one cache entry; empty keeps the historical
  /// (context-free) keys.
  std::string pinned_inputs;
  std::string boundary_timing;
};

/// The solution-cache key: "<library>.<netlist>.<knobs>" as three 16-digit
/// hex words. Filesystem-safe (used as the disk-persistence file stem).
std::string cache_key(std::uint64_t library_fp, std::uint64_t netlist_fp,
                      const RunKnobs& knobs);

}  // namespace svtox::svc
