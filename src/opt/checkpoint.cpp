#include "opt/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace svtox::opt {

namespace {

constexpr const char* kMagic = "svtox_checkpoint v1";

/// Hexfloat rendering: exact round trip for every finite double, so the
/// restored incumbent prunes bit-identically to the live one.
std::string dump_f64(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

double parse_f64(std::string_view token, int line_no) {
  const std::string s(token);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || s.empty()) {
    throw ParseError("<checkpoint>", line_no, "malformed number '" + s + "'");
  }
  return value;
}

std::string dump_bits(const std::vector<bool>& bits) {
  if (bits.empty()) return "-";
  std::string out;
  out.reserve(bits.size());
  for (const bool b : bits) out.push_back(b ? '1' : '0');
  return out;
}

std::vector<bool> parse_bits(std::string_view token, int line_no) {
  std::vector<bool> bits;
  if (token == "-") return bits;
  bits.reserve(token.size());
  for (const char c : token) {
    if (c != '0' && c != '1') {
      throw ParseError("<checkpoint>", line_no, "malformed bit string");
    }
    bits.push_back(c == '1');
  }
  return bits;
}

/// One gate's config as a token: `<variant>` when the pin mapping is
/// empty (identity), else `<variant>:<canonical_state>:<digits>` with one
/// digit per logical pin.
std::string dump_gate(const sim::GateConfig& gate) {
  std::string out = std::to_string(gate.variant);
  if (!gate.mapping.logical_to_physical.empty()) {
    out += ':';
    out += std::to_string(gate.mapping.canonical_state);
    out += ':';
    for (const int p : gate.mapping.logical_to_physical) {
      out += static_cast<char>('0' + p);
    }
  }
  return out;
}

sim::GateConfig parse_gate(std::string_view token, int line_no) {
  sim::GateConfig gate;
  const std::size_t c1 = token.find(':');
  if (c1 == std::string_view::npos) {
    gate.variant = static_cast<int>(parse_f64(token, line_no));
    return gate;
  }
  gate.variant = static_cast<int>(parse_f64(token.substr(0, c1), line_no));
  const std::size_t c2 = token.find(':', c1 + 1);
  if (c2 == std::string_view::npos) {
    throw ParseError("<checkpoint>", line_no, "malformed gate config token");
  }
  gate.mapping.canonical_state =
      static_cast<std::uint32_t>(parse_f64(token.substr(c1 + 1, c2 - c1 - 1), line_no));
  for (const char c : token.substr(c2 + 1)) {
    if (c < '0' || c > '9') {
      throw ParseError("<checkpoint>", line_no, "malformed pin permutation");
    }
    gate.mapping.logical_to_physical.push_back(c - '0');
  }
  return gate;
}

}  // namespace

std::uint64_t search_fingerprint(const AssignmentProblem& problem,
                                 const SearchOptions& options, BoundKind bound_kind,
                                 bool state_only) {
  // Everything result-relevant except the wall-clock limit: the problem's
  // content identity plus the search knobs that change which leaf wins.
  std::string blob;
  const netlist::Netlist& netlist = problem.netlist();
  blob += netlist.name();
  blob += '|' + std::to_string(netlist.num_gates());
  blob += '|' + std::to_string(netlist.num_control_points());
  blob += '|' + std::to_string(netlist.library().total_versions());
  blob += '|' + dump_f64(problem.penalty_fraction());
  blob += problem.use_pin_reorder() ? "|reorder" : "|raw";
  for (const int pi : problem.input_order()) blob += ',' + std::to_string(pi);
  blob += '|' + std::to_string(options.max_leaves);
  blob += '|' + std::to_string(static_cast<int>(options.gate_order));
  blob += options.exact_leaves ? "|exact" : "|greedy";
  blob += '|' + std::to_string(options.max_gate_nodes);
  blob += '|' + std::to_string(options.random_probes);
  blob += '|' + std::to_string(options.probe_seed);
  blob += '|' + std::to_string(static_cast<int>(options.bound_mode));
  blob += '|' + std::to_string(static_cast<int>(bound_kind));
  blob += state_only ? "|state_only" : "|full";
  // The boundary-aware knobs are appended only when set: pinned inputs and
  // seeded boundary timing both change which leaf wins, but unpinned
  // default-seeded searches keep their historical fingerprints.
  if (!options.pinned_inputs.empty()) {
    blob += "|pin:";
    for (const sim::Tri pin : options.pinned_inputs) {
      blob += pin == sim::Tri::kOne ? '1' : pin == sim::Tri::kZero ? '0' : 'x';
    }
  }
  if (!problem.boundary().empty()) {
    blob += "|bt:";
    for (const sta::BoundaryTiming::Point& point : problem.boundary().points) {
      blob += dump_f64(point.arrival_ps) + ',' + dump_f64(point.slew_ps) + ';';
    }
  }
  return fnv1a64(blob);
}

std::string write_checkpoint(const SearchCheckpoint& checkpoint) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "fingerprint " + hex64(checkpoint.fingerprint) + '\n';
  out += "tree_done " + std::string(checkpoint.tree_done ? "1" : "0") + '\n';
  out += "path " + dump_bits(checkpoint.path) + '\n';
  out += "probes_done " + std::to_string(checkpoint.probes_done) + '\n';
  out += "nodes " + std::to_string(checkpoint.nodes) + '\n';
  out += "leaves " + std::to_string(checkpoint.leaves) + '\n';
  out += "elapsed_s " + dump_f64(checkpoint.elapsed_s) + '\n';
  out += "leakage_na " + dump_f64(checkpoint.leakage_na) + '\n';
  out += "delay_ps " + dump_f64(checkpoint.delay_ps) + '\n';
  out += "sleep " + dump_bits(checkpoint.sleep_vector) + '\n';
  out += "config";
  for (const sim::GateConfig& gate : checkpoint.config) out += ' ' + dump_gate(gate);
  out += '\n';
  out += "checksum " + hex64(fnv1a64(out)) + '\n';
  return out;
}

SearchCheckpoint parse_checkpoint(const std::string& text) {
  // Verify the trailing checksum over everything before its line first:
  // a torn write must not be mistaken for a (wrong) valid frontier.
  const std::size_t marker = text.rfind("checksum ");
  if (marker == std::string::npos || (marker != 0 && text[marker - 1] != '\n')) {
    throw Error(ErrorCode::kCorrupt, "checkpoint has no checksum line");
  }
  const std::string_view payload(text.data(), marker);
  const std::string_view stored =
      trim(std::string_view(text).substr(marker + 9));
  if (stored != hex64(fnv1a64(payload))) {
    throw Error(ErrorCode::kCorrupt, "checkpoint checksum mismatch");
  }

  SearchCheckpoint checkpoint;
  std::istringstream in{std::string(payload)};
  std::string line;
  int line_no = 0;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view sv = trim(line);
    if (sv.empty()) continue;
    if (!saw_magic) {
      if (sv != kMagic) {
        throw ParseError("<checkpoint>", line_no, "bad magic line");
      }
      saw_magic = true;
      continue;
    }
    const std::size_t space = sv.find(' ');
    const std::string_view key = sv.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos ? std::string_view() : trim(sv.substr(space + 1));
    if (key == "fingerprint") {
      checkpoint.fingerprint = std::strtoull(std::string(value).c_str(), nullptr, 16);
    } else if (key == "tree_done") {
      checkpoint.tree_done = value == "1";
    } else if (key == "path") {
      checkpoint.path = parse_bits(value, line_no);
    } else if (key == "probes_done") {
      checkpoint.probes_done = static_cast<std::uint64_t>(parse_f64(value, line_no));
    } else if (key == "nodes") {
      checkpoint.nodes = static_cast<std::uint64_t>(parse_f64(value, line_no));
    } else if (key == "leaves") {
      checkpoint.leaves = static_cast<std::uint64_t>(parse_f64(value, line_no));
    } else if (key == "elapsed_s") {
      checkpoint.elapsed_s = parse_f64(value, line_no);
    } else if (key == "leakage_na") {
      checkpoint.leakage_na = parse_f64(value, line_no);
    } else if (key == "delay_ps") {
      checkpoint.delay_ps = parse_f64(value, line_no);
    } else if (key == "sleep") {
      checkpoint.sleep_vector = parse_bits(value, line_no);
    } else if (key == "config") {
      for (const std::string_view token : split_ws(value)) {
        checkpoint.config.push_back(parse_gate(token, line_no));
      }
    } else {
      throw ParseError("<checkpoint>", line_no,
                       "unknown field '" + std::string(key) + "'");
    }
  }
  if (!saw_magic) throw ParseError("<checkpoint>", 1, "empty checkpoint");
  return checkpoint;
}

void write_checkpoint_file(const SearchCheckpoint& checkpoint,
                           const std::string& path) {
  SVTOX_FAIL_POINT("checkpoint_write");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw Error(ErrorCode::kIo, "cannot write checkpoint " + tmp);
    out << write_checkpoint(checkpoint);
    out.flush();
    if (!out) throw Error(ErrorCode::kIo, "short write on checkpoint " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kIo, "cannot rename checkpoint into " + path);
  }
}

std::optional<SearchCheckpoint> load_checkpoint_file(const std::string& path,
                                                     std::uint64_t expected_fp) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // no checkpoint yet: a fresh run
  try {
    SVTOX_FAIL_POINT("checkpoint_read");
    std::ostringstream text;
    text << in.rdbuf();
    SearchCheckpoint checkpoint = parse_checkpoint(text.str());
    if (checkpoint.fingerprint != expected_fp) {
      log_warn("checkpoint " + path + " is for a different run (fingerprint " +
               hex64(checkpoint.fingerprint) + " != " + hex64(expected_fp) +
               "); starting fresh");
      return std::nullopt;
    }
    return checkpoint;
  } catch (const std::exception& e) {
    log_warn("ignoring unusable checkpoint " + path + ": " + e.what());
    return std::nullopt;
  }
}

}  // namespace svtox::opt
