// Variant-generation tests. The headline check is the paper's Table 2:
// the number of cell versions required per archetype.
#include <gtest/gtest.h>

#include <set>

#include "cellkit/analyzer.hpp"
#include "cellkit/state.hpp"
#include "cellkit/topology.hpp"
#include "cellkit/variants.hpp"

namespace svtox::cellkit {
namespace {

const model::TechParams& tech() { return model::TechParams::nominal(); }

CellVersionSet gen(const CellTopology& topo, bool four_point, bool uniform = false) {
  VariantOptions opt;
  opt.four_point = four_point;
  opt.uniform_stack = uniform;
  return generate_versions(topo, tech(), opt);
}

struct Table2Case {
  const char* cell;
  int four_point_versions;
  int two_point_versions;
};

// Without a printer gtest dumps the struct's bytes, including the address
// of `cell`, into the discovered test name, which then changes per build.
void PrintTo(const Table2Case& c, std::ostream* os) {
  *os << "{" << c.cell << ", " << c.four_point_versions << ", " << c.two_point_versions
      << "}";
}

class Table2 : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2, VersionCountsMatchPaper) {
  const Table2Case& c = GetParam();
  const CellTopology topo = make_standard_cell(c.cell, tech());
  EXPECT_EQ(gen(topo, /*four_point=*/true).num_versions(), c.four_point_versions)
      << c.cell << " 4-option";
  EXPECT_EQ(gen(topo, /*four_point=*/false).num_versions(), c.two_point_versions)
      << c.cell << " 2-option";
}

// Paper Table 2 rows. One documented deviation: the paper reports 8
// four-option versions for NOR2; our generator produces 7 because the
// fast-fall version of state 11 (single output-side PMOS at high-Vt) is
// shared with state 01's, which the paper's count implies was not shared.
// No uniform stack-position rule reproduces both NOR2=8 and NOR3=9; ours
// matches NOR3 exactly and every 2-option count, and the extra sharing only
// shrinks the library without removing any trade-off point.
INSTANTIATE_TEST_SUITE_P(PaperTable2, Table2,
                         ::testing::Values(Table2Case{"INV", 5, 3},
                                           Table2Case{"NAND2", 5, 3},
                                           Table2Case{"NAND3", 5, 3},
                                           Table2Case{"NOR2", 7, 4},
                                           Table2Case{"NOR3", 9, 5}),
                         [](const auto& info) { return info.param.cell; });

TEST(Variants, FastestVersionAlwaysPresentAndShared) {
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = gen(topo, true);
    const int fast = set.fastest_version();
    EXPECT_TRUE(set.versions()[fast].is_fastest());
    for (const StateTradeoffs& st : set.all_tradeoffs()) {
      EXPECT_EQ(st.version_index[static_cast<int>(TradeoffPoint::kMinDelay)], fast)
          << name;
    }
  }
}

TEST(Variants, EveryStateReachesItsTradeoffsThroughCanonicalization) {
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = gen(topo, true);
    for (std::uint32_t state = 0; state < topo.num_states(); ++state) {
      const PinMapping m = canonicalize(topo, state);
      // Must not throw, and must include at least min-delay and min-leak.
      const StateTradeoffs& st = set.tradeoffs(m.canonical_state);
      EXPECT_GE(st.version_index[static_cast<int>(TradeoffPoint::kMinDelay)], 0);
      EXPECT_GE(st.version_index[static_cast<int>(TradeoffPoint::kMinLeakage)], 0);
    }
  }
}

TEST(Variants, MinLeakIsLowestLeakageOptionPerState) {
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = gen(topo, true);
    for (const StateTradeoffs& st : set.all_tradeoffs()) {
      const int min_leak = st.version_index[static_cast<int>(TradeoffPoint::kMinLeakage)];
      const double floor =
          cell_leakage(topo, tech(), st.canonical_state,
                       set.versions()[min_leak].assignment)
              .total_na();
      for (int v : st.distinct_versions()) {
        const double leak =
            cell_leakage(topo, tech(), st.canonical_state, set.versions()[v].assignment)
                .total_na();
        EXPECT_GE(leak, floor - 1e-9) << name;
      }
    }
  }
}

TEST(Variants, IntermediatePointsBracketedByExtremes) {
  // fast_rise / fast_fall leakage lies between min-delay and min-leak
  // (paper Sec. 4: "lower leakage than the fastest cell version but faster
  // than the lowest leakage version").
  const CellTopology nand2 = make_standard_cell("NAND2", tech());
  const CellVersionSet set = gen(nand2, true);
  const StateTradeoffs& st11 = set.tradeoffs(0b11);
  const double fast =
      cell_leakage(nand2, tech(), 0b11,
                   set.versions()[st11.version_index[0]].assignment)
          .total_na();
  const double min_leak =
      cell_leakage(nand2, tech(), 0b11,
                   set.versions()[st11.version_index[3]].assignment)
          .total_na();
  for (TradeoffPoint p : {TradeoffPoint::kFastRise, TradeoffPoint::kFastFall}) {
    const int v = st11.version_index[static_cast<int>(p)];
    ASSERT_GE(v, 0);
    const double leak =
        cell_leakage(nand2, tech(), 0b11, set.versions()[v].assignment).total_na();
    EXPECT_LT(leak, fast);
    EXPECT_GT(leak, min_leak);
  }
}

TEST(Variants, Nand2State00HasOnlyTwoTradeoffPoints) {
  // Paper Sec. 4: "for the input state 00, only two trade-off points are
  // needed" -- the intermediate versions degenerate.
  const CellTopology nand2 = make_standard_cell("NAND2", tech());
  const CellVersionSet set = gen(nand2, true);
  const StateTradeoffs& st = set.tradeoffs(0b00);
  EXPECT_EQ(st.distinct_versions().size(), 2u);
}

TEST(Variants, Nand2States00And10ShareMinLeakVersion) {
  // Paper Sec. 4: "both versions are shared with the 00 state."
  const CellTopology nand2 = make_standard_cell("NAND2", tech());
  const CellVersionSet set = gen(nand2, true);
  EXPECT_EQ(set.tradeoffs(0b00).version_index[3], set.tradeoffs(0b01).version_index[3]);
}

TEST(Variants, ToxAssignmentsAreStackUniform) {
  // Paper Sec. 4: "the assignment of Tox to transistors in a stack is
  // already uniform in the proposed approach" -- for the Table 2 cell set.
  for (const char* name : {"INV", "NAND2", "NAND3", "NOR2", "NOR3"}) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = gen(topo, true);
    const SpNode* nets[2] = {&topo.pull_down(), &topo.pull_up()};
    const int firsts[2] = {0, topo.num_pull_down_devices()};
    const int counts[2] = {topo.num_pull_down_devices(),
                           topo.num_devices() - topo.num_pull_down_devices()};
    for (const CellVersion& version : set.versions()) {
      for (int n = 0; n < 2; ++n) {
        if (longest_path(*nets[n]) <= 1) continue;  // no stack in network
        // In a stacked network, thick devices must be all-or-none among the
        // devices that tunnel; with our NAND/NOR set, all-or-none overall.
        std::set<model::ToxClass> tox;
        for (int d = firsts[n]; d < firsts[n] + counts[n]; ++d) {
          tox.insert(version.assignment[d].tox);
        }
        EXPECT_EQ(tox.size(), 1u) << name << " " << version.name;
      }
    }
  }
}

TEST(Variants, UniformStackNeverBeatsIndividualControl) {
  // Uniform stacks restrict the assignment space; per-state min-leak can
  // only get worse or stay equal (paper Table 5's ~10% penalty).
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet indiv = gen(topo, true, /*uniform=*/false);
    const CellVersionSet unif = gen(topo, true, /*uniform=*/true);
    for (const StateTradeoffs& st : indiv.all_tradeoffs()) {
      const double i =
          cell_leakage(topo, tech(), st.canonical_state,
                       indiv.versions()[st.version_index[3]].assignment)
              .total_na();
      const double u =
          cell_leakage(topo, tech(), st.canonical_state,
                       unif.versions()[unif.tradeoffs(st.canonical_state).version_index[3]]
                           .assignment)
              .total_na();
      EXPECT_LE(u, i + 1e-9) << name;  // more devices slowed -> leak <= individual
    }
  }
}

TEST(Variants, UniformStackAssignsWholeSeriesGroup) {
  // NAND2 state 10's single-device assignment grows to the whole stack.
  const CellTopology nand2 = make_standard_cell("NAND2", tech());
  const CellVersionSet unif = gen(nand2, true, /*uniform=*/true);
  const StateTradeoffs& st = unif.tradeoffs(0b01);
  const CellAssignment& a = unif.versions()[st.version_index[3]].assignment;
  EXPECT_EQ(a[0].vt, model::VtClass::kHigh);
  EXPECT_EQ(a[1].vt, model::VtClass::kHigh);
}

TEST(Variants, VtOnlyLibraryHasNoThickOxide) {
  VariantOptions opt;
  opt.four_point = true;
  opt.vt_only = true;
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = generate_versions(topo, tech(), opt);
    for (const CellVersion& version : set.versions()) {
      for (const DeviceAssign& a : version.assignment) {
        EXPECT_EQ(a.tox, model::ToxClass::kThin) << name << " " << version.name;
      }
    }
  }
}

TEST(Variants, TwoPointIsSubsetOfFourPoint) {
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet four = gen(topo, true);
    const CellVersionSet two = gen(topo, false);
    EXPECT_LE(two.num_versions(), four.num_versions()) << name;
    // Every 2-option assignment exists in the 4-option library.
    for (const CellVersion& v2 : two.versions()) {
      bool found = false;
      for (const CellVersion& v4 : four.versions()) {
        found = found || v4.assignment == v2.assignment;
      }
      EXPECT_TRUE(found) << name << " " << v2.name;
    }
  }
}

TEST(Variants, VersionNamesAreUnique) {
  for (const std::string& name : standard_cell_names()) {
    const CellTopology topo = make_standard_cell(name, tech());
    const CellVersionSet set = gen(topo, true);
    std::set<std::string> names;
    for (const CellVersion& v : set.versions()) names.insert(v.name);
    EXPECT_EQ(names.size(), static_cast<std::size_t>(set.num_versions()));
  }
}

}  // namespace
}  // namespace svtox::cellkit
