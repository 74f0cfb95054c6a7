#include "svc/fingerprint.hpp"

#include <cstring>

namespace svtox::svc {

Fnv& Fnv::bytes(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Fnv& Fnv::u64(std::uint64_t value) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(value >> (8 * i));
  return bytes(buf, sizeof buf);
}

Fnv& Fnv::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return u64(bits);
}

Fnv& Fnv::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

std::string hex64(std::uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::uint64_t fingerprint_library(const liberty::Library& library) {
  const model::TechParams& t = library.tech();
  Fnv h;
  h.str("svtox_library_v1");
  h.f64(t.vdd_volts).f64(t.temp_kelvin);
  h.f64(t.isub_n_low).f64(t.isub_p_low).f64(t.vt_ratio_n).f64(t.vt_ratio_p);
  h.f64(t.isub_vds_zero_factor);
  for (const double f : t.stack_factor) h.f64(f);
  h.f64(t.igate_n_thin).f64(t.igate_p_ratio).f64(t.tox_ratio);
  h.f64(t.igate_reduced_factor).f64(t.edt_factor);
  h.f64(t.r_vt_factor).f64(t.r_tox_factor).f64(t.series_other_weight);
  h.f64(t.r_unit_kohm).f64(t.pmos_r_mult).f64(t.stack_upsize_slope);
  h.f64(t.cin_ff_per_unit_w).f64(t.cout_self_ff).f64(t.wire_ff_per_fanout);
  h.f64(t.slew_derate).f64(t.output_slew_factor);
  h.f64(t.default_pi_slew_ps).f64(t.default_po_load_ff);

  const liberty::LibraryOptions& o = library.options();
  h.boolean(o.variant_options.four_point);
  h.boolean(o.variant_options.uniform_stack);
  h.boolean(o.variant_options.vt_only);
  h.u64(o.slew_axis_ps.size());
  for (const double s : o.slew_axis_ps) h.f64(s);
  h.u64(o.load_axis_ff.size());
  for (const double l : o.load_axis_ff) h.f64(l);
  h.u64(o.cell_names.size());
  for (const std::string& name : o.cell_names) h.str(name);
  return h.value();
}

std::uint64_t fingerprint_netlist(const netlist::Netlist& netlist) {
  Fnv h;
  h.str("svtox_netlist_v1");
  h.str(netlist.name());
  h.u64(static_cast<std::uint64_t>(netlist.num_signals()));
  for (int s = 0; s < netlist.num_signals(); ++s) h.str(netlist.signal_name(s));
  h.u64(netlist.primary_inputs().size());
  for (const int pi : netlist.primary_inputs()) h.i64(pi);
  h.u64(netlist.primary_outputs().size());
  for (const int po : netlist.primary_outputs()) h.i64(po);
  h.u64(netlist.flip_flops().size());
  for (const netlist::FlipFlop& ff : netlist.flip_flops()) {
    h.str(ff.name).i64(ff.d).i64(ff.q);
  }
  h.u64(netlist.gates().size());
  for (const netlist::Gate& gate : netlist.gates()) {
    h.str(gate.name);
    // The archetype name, not the library index, so the fingerprint does
    // not depend on cell enumeration order.
    h.str(netlist.library().cell_at(gate.cell_index).name());
    h.u64(gate.fanins.size());
    for (const int fanin : gate.fanins) h.i64(fanin);
    h.i64(gate.output);
  }
  return h.value();
}

std::string cache_key(std::uint64_t library_fp, std::uint64_t netlist_fp,
                      const RunKnobs& knobs) {
  Fnv h;
  h.str("svtox_run_v2");  // v2: max_leaves joined the knob set
  h.str(knobs.method);
  h.f64(knobs.penalty_fraction);
  h.f64(knobs.time_limit_s);
  h.i64(knobs.random_vectors);
  h.u64(knobs.seed);
  h.i64(knobs.search_threads);
  h.u64(knobs.max_leaves);
  // Fed only when set, so every pre-existing context-free key (and the
  // disk cache built from them) is unchanged.
  if (!knobs.pinned_inputs.empty() || !knobs.boundary_timing.empty()) {
    h.str("hier");
    h.str(knobs.pinned_inputs);
    h.str(knobs.boundary_timing);
  }
  return hex64(library_fp) + "." + hex64(netlist_fp) + "." + hex64(h.value());
}

}  // namespace svtox::svc
