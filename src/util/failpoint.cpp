#include "util/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace svtox {

namespace {

/// splitmix64 step: one independent, deterministic stream per point so a
/// probabilistic spec fires the same way on every run.
double next_uniform(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

FailPoints& FailPoints::instance() {
  static FailPoints registry;
  return registry;
}

FailPoints::FailPoints() {
  const char* env = std::getenv("SVTOX_FAILPOINTS");
  if (env != nullptr && *env != '\0') configure(env);
}

void FailPoints::configure(const std::string& spec) {
  std::map<std::string, Point> points;
  for (std::string_view entry : split(spec, ',')) {
    entry = trim(entry);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ContractError("fail point spec needs name=action: '" +
                          std::string(entry) + "'");
    }
    const std::string name(trim(entry.substr(0, eq)));
    std::string_view rest = trim(entry.substr(eq + 1));

    Point point;
    // Optional ':' param (probability / stall ms) and '*' count, in either
    // order after the action word.
    std::string_view action = rest;
    std::string_view param;
    const std::size_t colon = rest.find(':');
    if (colon != std::string_view::npos) {
      param = rest.substr(colon + 1);
      action = rest.substr(0, colon);
    }
    const std::size_t star = action.find('*');
    if (star != std::string_view::npos) {
      point.max_fires = static_cast<std::uint64_t>(parse_double(action.substr(star + 1)));
      action = action.substr(0, star);
    } else if (const std::size_t pstar = param.find('*');
               pstar != std::string_view::npos) {
      point.max_fires = static_cast<std::uint64_t>(parse_double(param.substr(pstar + 1)));
      param = param.substr(0, pstar);
    }

    if (action == "error") {
      point.action = Action::kError;
      if (!param.empty()) point.probability = parse_double(param);
      if (point.probability < 0.0 || point.probability > 1.0) {
        throw ContractError("fail point probability must be in [0, 1]: '" +
                            std::string(entry) + "'");
      }
    } else if (action == "hang") {
      point.action = Action::kHang;
      if (!param.empty()) point.stall_ms = static_cast<int>(parse_double(param));
      if (point.stall_ms < 0 || point.stall_ms > 60000) {
        throw ContractError("fail point stall must be in [0, 60000] ms: '" +
                            std::string(entry) + "'");
      }
    } else if (action == "off") {
      point.action = Action::kOff;
    } else {
      throw ContractError(
          "unknown fail point action '" + std::string(action) +
          "' (want error|hang|off)");
    }
    point.rng_state = 0x5eedfa17'f01a75ULL;
    points[name] = point;
  }

  std::lock_guard<std::mutex> lock(mu_);
  points_ = std::move(points);
  armed_.store(points_.size(), std::memory_order_release);
}

void FailPoints::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(0, std::memory_order_release);
}

std::uint64_t FailPoints::triggers(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fired;
}

bool FailPoints::roll(const char* name) {
  int stall_ms = -1;
  bool error = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return false;
    Point& point = it->second;
    if (point.action == Action::kOff) return false;
    if (point.max_fires != 0 && point.fired >= point.max_fires) return false;
    if (point.action == Action::kError &&
        point.probability < 1.0 &&
        next_uniform(point.rng_state) >= point.probability) {
      return false;
    }
    ++point.fired;
    if (point.action == Action::kHang) {
      stall_ms = point.stall_ms;
    } else {
      error = true;
    }
  }
  // Stall outside the lock: a hanging point must not serialize every other
  // hook in the process.
  if (stall_ms >= 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  return error;
}

void FailPoints::evaluate(const char* name) {
  if (armed_.load(std::memory_order_acquire) == 0) return;
  if (roll(name)) {
    throw Error(ErrorCode::kIo,
                std::string("injected fault at fail point '") + name + "'");
  }
}

bool FailPoints::fails(const char* name) {
  if (armed_.load(std::memory_order_acquire) == 0) return false;
  return roll(name);
}

}  // namespace svtox
