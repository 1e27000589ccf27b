// Tests for the golden netlist simulator: functional correctness of each
// netlib generator plus the simulator's own mechanics.
#include <gtest/gtest.h>

#include "netlib/generators.h"
#include "sim/netlist_sim.h"

namespace jpg {
namespace {

TEST(NetlistSim, TogglerToggles) {
  const Netlist nl = netlib::make_toggler();
  NetlistSim sim(nl);
  EXPECT_FALSE(sim.get_output("t"));
  sim.step();
  EXPECT_TRUE(sim.get_output("t"));
  sim.step();
  EXPECT_FALSE(sim.get_output("t"));
}

TEST(NetlistSim, CounterCounts) {
  const Netlist nl = netlib::make_counter(8);
  NetlistSim sim(nl);
  for (int cyc = 0; cyc <= 300; ++cyc) {
    EXPECT_EQ(sim.get_output_bus("q", 8), static_cast<std::uint64_t>(cyc & 0xFF))
        << "cycle " << cyc;
    sim.step();
  }
}

TEST(NetlistSim, GrayCodeTracksBinary) {
  const Netlist nl = netlib::make_gray_counter(6);
  NetlistSim sim(nl);
  for (int cyc = 0; cyc < 100; ++cyc) {
    const std::uint64_t q = sim.get_output_bus("q", 6);
    const std::uint64_t g = sim.get_output_bus("g", 6);
    EXPECT_EQ(g, q ^ (q >> 1)) << "cycle " << cyc;
    sim.step();
  }
}

TEST(NetlistSim, AdderAddsExhaustively) {
  const Netlist nl = netlib::make_adder(4);
  NetlistSim sim(nl);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      sim.set_input_bus("a", a, 4);
      sim.set_input_bus("b", b, 4);
      const std::uint64_t s = sim.get_output_bus("s", 4);
      const bool cout = sim.get_output("cout");
      EXPECT_EQ(s | (static_cast<std::uint64_t>(cout) << 4), a + b);
    }
  }
}

TEST(NetlistSim, ComparatorComparesExhaustively) {
  const Netlist nl = netlib::make_comparator(5);
  NetlistSim sim(nl);
  for (std::uint64_t a = 0; a < 32; a += 3) {
    for (std::uint64_t b = 0; b < 32; ++b) {
      sim.set_input_bus("a", a, 5);
      sim.set_input_bus("b", b, 5);
      EXPECT_EQ(sim.get_output("eq"), a == b);
    }
  }
}

TEST(NetlistSim, ParityMatchesPopcount) {
  const Netlist nl = netlib::make_parity(9);
  NetlistSim sim(nl);
  for (std::uint64_t x = 0; x < 512; x += 7) {
    sim.set_input_bus("x", x, 9);
    EXPECT_EQ(sim.get_output("p"), (__builtin_popcountll(x) & 1) != 0);
  }
}

TEST(NetlistSim, MuxTreeSelects) {
  const Netlist nl = netlib::make_mux_tree(3);
  NetlistSim sim(nl);
  const std::uint64_t data = 0b10110100;
  sim.set_input_bus("d", data, 8);
  for (std::uint64_t s = 0; s < 8; ++s) {
    sim.set_input_bus("s", s, 3);
    EXPECT_EQ(sim.get_output("y"), ((data >> s) & 1) != 0) << "sel " << s;
  }
}

TEST(NetlistSim, AluLiteOps) {
  const Netlist nl = netlib::make_alu_lite(6);
  NetlistSim sim(nl);
  const std::uint64_t mask = 0x3F;
  for (std::uint64_t a = 0; a < 64; a += 5) {
    for (std::uint64_t b = 0; b < 64; b += 7) {
      sim.set_input_bus("a", a, 6);
      sim.set_input_bus("b", b, 6);
      const std::uint64_t expect[4] = {(a + b) & mask, a & b, a | b, a ^ b};
      for (std::uint64_t op = 0; op < 4; ++op) {
        sim.set_input("op0", (op & 1) != 0);
        sim.set_input("op1", (op & 2) != 0);
        EXPECT_EQ(sim.get_output_bus("y", 6), expect[op])
            << "a=" << a << " b=" << b << " op=" << op;
      }
    }
  }
}

TEST(NetlistSim, ShiftRegisterDelaysInput) {
  const Netlist nl = netlib::make_shift_register(5);
  NetlistSim sim(nl);
  const std::vector<bool> stream = {1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1};
  std::vector<bool> seen_q4;
  for (const bool bit : stream) {
    sim.set_input("si", bit);
    sim.step();
    seen_q4.push_back(sim.get_output("q4"));
  }
  // After step i, q4 holds the bit shifted in at step i-4.
  for (std::size_t i = 4; i < stream.size(); ++i) {
    EXPECT_EQ(seen_q4[i], stream[i - 4]) << i;
  }
}

TEST(NetlistSim, NrzEncoderTogglesOnOnes) {
  const Netlist nl = netlib::make_nrz_encoder();
  NetlistSim sim(nl);
  bool expect = false;
  const std::vector<bool> data = {1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0};
  for (const bool d : data) {
    sim.set_input("d", d);
    sim.step();
    if (d) expect = !expect;
    EXPECT_EQ(sim.get_output("nrz"), expect);
  }
}

TEST(NetlistSim, MatcherFiresOnPattern) {
  const std::vector<bool> pattern = {1, 0, 1, 1};
  const Netlist nl = netlib::make_matcher(pattern);
  NetlistSim sim(nl);
  // q0 holds the newest bit, so the register window matches pattern[j]
  // against the bit shifted in j cycles ago. The match FF registers the hit
  // one cycle after the window lines up.
  const std::vector<bool> stream = {0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1};
  std::vector<bool> window;  // window[0] = newest
  bool expected_match = false;
  int fired = 0;
  for (const bool bit : stream) {
    sim.set_input("si", bit);
    sim.step();
    // The registered output now reflects the *previous* window state.
    EXPECT_EQ(sim.get_output("match"), expected_match);
    if (expected_match) ++fired;
    window.insert(window.begin(), bit);
    if (window.size() > pattern.size()) window.pop_back();
    expected_match = window == pattern;
  }
  EXPECT_GE(fired, 1);  // the stream above contains the pattern
}

TEST(NetlistSim, JohnsonCounterWalksItsRing) {
  const Netlist nl = netlib::make_johnson(4);
  NetlistSim sim(nl);
  // A 4-bit Johnson counter cycles through 8 states: 0000, 0001, 0011,
  // 0111, 1111, 1110, 1100, 1000 (LSB-first shift with inverted feedback).
  const std::uint64_t expected[] = {0b0000, 0b0001, 0b0011, 0b0111,
                                    0b1111, 0b1110, 0b1100, 0b1000};
  for (int cyc = 0; cyc < 24; ++cyc) {
    EXPECT_EQ(sim.get_output_bus("q", 4), expected[cyc % 8]) << cyc;
    sim.step();
  }
}

TEST(NetlistSim, LfsrNeverAllZeroAndDeterministic) {
  const Netlist nl = netlib::make_lfsr(8);
  NetlistSim a(nl), b(nl);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.get_output_bus("q", 8), b.get_output_bus("q", 8));
    EXPECT_NE(a.get_output_bus("q", 8), 0u) << "cycle " << i;
    a.step();
    b.step();
  }
}

TEST(NetlistSim, ResetRestoresInitState) {
  const Netlist nl = netlib::make_counter(6);
  NetlistSim sim(nl);
  sim.step_n(13);
  EXPECT_EQ(sim.get_output_bus("q", 6), 13u);
  sim.reset();
  EXPECT_EQ(sim.get_output_bus("q", 6), 0u);
}

TEST(NetlistSim, FfStateAccessors) {
  const Netlist nl = netlib::make_toggler();
  NetlistSim sim(nl);
  const CellId ff = *nl.find_cell("ff");
  EXPECT_FALSE(sim.ff_state(ff));
  sim.set_ff_state(ff, true);
  EXPECT_TRUE(sim.get_output("t"));
  EXPECT_THROW((void)sim.ff_state(*nl.find_cell("inv")), JpgError);
}

TEST(NetlistSim, UnknownPortsThrow) {
  const Netlist nl = netlib::make_toggler();
  NetlistSim sim(nl);
  EXPECT_THROW(sim.set_input("nope", true), JpgError);
  EXPECT_THROW((void)sim.get_output("nope"), JpgError);
}

TEST(NetlistSim, RejectsCyclicDesign) {
  Netlist nl("cyc");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_lut("l1", netlib::lut_buf1(), {b, kNullNet, kNullNet, kNullNet}, a);
  nl.add_lut("l2", netlib::lut_buf1(), {a, kNullNet, kNullNet, kNullNet}, b);
  EXPECT_THROW(NetlistSim{nl}, JpgError);
}

}  // namespace
}  // namespace jpg
