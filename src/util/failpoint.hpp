// Named fail points for fault-injection testing.
//
// A fail point is a named hook compiled into failure-prone paths (cache
// disk I/O, socket reads/writes, job execution, checkpoint writes). In
// instrumented builds a test -- or the SVTOX_FAILPOINTS environment
// variable -- arms points by name and the hook injects the configured
// fault: throw a retryable util::Error, or stall the caller. Release
// builds compile every hook to nothing (the SVTOX_FAILPOINTS macro is
// only defined by CMake outside Release), so shipping binaries carry
// zero overhead.
//
// Activation grammar (env var or FailPoints::configure):
//
//   SVTOX_FAILPOINTS="cache_write=error,socket_read=hang:250"
//
//   spec   := point (',' point)*
//   point  := name '=' action ['*' count] [':' param]
//   action := 'error' | 'hang' | 'off'
//
// `count` caps how many times the point fires (default: unlimited).
// For 'error' the param is a firing probability in [0, 1] (default 1;
// drawn from a fixed-seed deterministic stream). For 'hang' the param is
// the stall in milliseconds (default 100) -- a bounded stall, not a true
// hang, so injected tests cannot deadlock the suite.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace svtox {

class FailPoints {
 public:
  /// True when fail-point hooks are compiled into this build.
  static constexpr bool compiled_in() {
#if defined(SVTOX_FAILPOINTS) && SVTOX_FAILPOINTS
    return true;
#else
    return false;
#endif
  }

  /// Process-wide registry. First use reads the SVTOX_FAILPOINTS
  /// environment variable (if set) as the initial configuration.
  static FailPoints& instance();

  /// Replaces the whole configuration with `spec` (grammar above).
  /// Throws ContractError on a malformed spec or unknown action.
  void configure(const std::string& spec);

  /// Disarms every point and resets trigger counters.
  void clear();

  /// How many times `name` actually fired (threw or stalled) since the
  /// last configure()/clear().
  std::uint64_t triggers(const std::string& name) const;

  /// Hook body behind SVTOX_FAIL_POINT: throws Error(ErrorCode::kIo) for
  /// an armed 'error' action, stalls for 'hang', no-op otherwise.
  void evaluate(const char* name);

  /// Hook body behind SVTOX_FAIL_POINT_FAILS: like evaluate(), but an
  /// armed 'error' action returns true instead of throwing, so call
  /// sites whose native failure channel is a boolean (socket writes) can
  /// simulate their local failure mode. 'hang' stalls and returns false.
  bool fails(const char* name);

 private:
  enum class Action { kError, kHang, kOff };

  struct Point {
    Action action = Action::kOff;
    double probability = 1.0;     ///< 'error' only.
    int stall_ms = 100;           ///< 'hang' only.
    std::uint64_t max_fires = 0;  ///< 0 = unlimited.
    std::uint64_t fired = 0;
    std::uint64_t rng_state = 0;  ///< splitmix64 stream for `probability`.
  };

  FailPoints();
  /// Returns true when the 'error' action fired; throws nothing itself.
  bool roll(const char* name);

  /// Fast path: hooks bail out with one relaxed load while nothing is
  /// armed, so instrumented-but-idle builds stay cheap.
  std::atomic<std::size_t> armed_{0};
  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
};

/// RAII test helper: arms `spec` on construction, clears on destruction.
class FailPointScope {
 public:
  explicit FailPointScope(const std::string& spec) {
    FailPoints::instance().configure(spec);
  }
  ~FailPointScope() { FailPoints::instance().clear(); }
  FailPointScope(const FailPointScope&) = delete;
  FailPointScope& operator=(const FailPointScope&) = delete;
};

}  // namespace svtox

#if defined(SVTOX_FAILPOINTS) && SVTOX_FAILPOINTS
/// Throwing hook: injects Error(kIo) / a stall at this site when armed.
#define SVTOX_FAIL_POINT(name) ::svtox::FailPoints::instance().evaluate(name)
/// Boolean hook: true when an injected failure should be simulated here.
#define SVTOX_FAIL_POINT_FAILS(name) ::svtox::FailPoints::instance().fails(name)
#else
#define SVTOX_FAIL_POINT(name) ((void)0)
#define SVTOX_FAIL_POINT_FAILS(name) (false)
#endif
