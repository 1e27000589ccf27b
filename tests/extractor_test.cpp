// End-to-end tests of the bottom half of the stack with NO P&R involved:
// a circuit is built by hand through CBits (exactly what a JBits user would
// do), then decoded back by the extractor and simulated. This pins down the
// semantics of slice fields, mux encodings, edge/pad substitution and the
// extractor's tracing logic.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "cbits/cbits.h"
#include "sim/bitstream_sim.h"
#include "sim/circuit_extractor.h"

namespace jpg {
namespace {

class HandBuiltCircuit : public ::testing::Test {
 protected:
  const Device& dev_ = Device::get("XCV50");
  ConfigMemory mem_{dev_};
  CBits cb_{mem_};

  /// Builds a toggler in slice (2,2).S0: F-LUT inverts XQ (via OUT0
  /// feedback), FFX registers it, and XQ is routed west to output pad
  /// IOB_L3K0.
  void build_toggler() {
    const SliceSite s{2, 2, 0};
    const TileCoord t{2, 2};
    // LUT F = NOT(A1).
    cb_.set_lut(s, LutSel::F, 0x5555);  // ~A1 for every A2..A4
    cb_.set_field(s, SliceField::XUsed, false);  // X only feeds the FF
    cb_.set_field(s, SliceField::FfxUsed, true);
    cb_.set_field(s, SliceField::DxMux, false);  // D from LUT
    cb_.set_field(s, SliceField::InitX, false);
    // Clock.
    cb_.set_pip(t, "GCLK", "S0_CLK");
    // Feedback: XQ -> OUT0 -> S0_F1.
    cb_.set_pip(t, "S0_XQ", "OUT0");
    cb_.set_pip(t, "OUT0", "S0_F1");
    // Output route: XQ -> OUT1 -> W0 at (2,2), then straight through
    // (2,1).W0 and (2,0).W0 to the left edge.
    cb_.set_pip(t, "S0_XQ", "OUT1");
    cb_.set_pip(t, "OUT1", "W0");
    cb_.set_pip({2, 1}, "EIN0", "W0");  // continue the westbound single
    cb_.set_pip({2, 0}, "EIN0", "W0");
    // Pad: IOB_L3K0 outputs tile (2,0).W0 (source position 1).
    const IobSite pad{Side::Left, 2, 0};
    cb_.set_iob_flag(pad, IobField::IsOutput, true);
    cb_.set_iob_omux(pad, 1);
  }
};

TEST_F(HandBuiltCircuit, ExtractsTogglerStructure) {
  build_toggler();
  const ExtractedCircuit ec = extract_circuit(mem_);
  EXPECT_EQ(ec.used_les, 1u);
  ASSERT_EQ(ec.ffs.size(), 1u);
  EXPECT_EQ(ec.ffs[0].site, (SliceSite{2, 2, 0}));
  EXPECT_EQ(ec.ffs[0].le, 0);
  int luts = 0, ffs = 0, obufs = 0;
  for (const Cell& c : ec.netlist.cells()) {
    if (c.kind == CellKind::Lut4) ++luts;
    if (c.kind == CellKind::Dff) ++ffs;
    if (c.kind == CellKind::Obuf) ++obufs;
  }
  EXPECT_EQ(luts, 1);
  EXPECT_EQ(ffs, 1);
  EXPECT_EQ(obufs, 1);
  const int pad = dev_.pad_number({Side::Left, 2, 0});
  EXPECT_EQ(ec.netlist.output_ports(),
            std::vector<std::string>{"P" + std::to_string(pad)});
}

TEST_F(HandBuiltCircuit, SimulatedTogglerToggles) {
  build_toggler();
  BitstreamSim sim(mem_);
  const int pad = dev_.pad_number({Side::Left, 2, 0});
  ASSERT_TRUE(sim.has_output_pad(pad));
  EXPECT_FALSE(sim.get_pad(pad));
  sim.step();
  EXPECT_TRUE(sim.get_pad(pad));
  sim.step();
  EXPECT_FALSE(sim.get_pad(pad));
  sim.step();
  EXPECT_TRUE(sim.get_pad(pad));
}

TEST_F(HandBuiltCircuit, SurvivesBitstreamRoundtrip) {
  build_toggler();
  const Bitstream bs = generate_full_bitstream(mem_);
  ConfigMemory loaded(dev_);
  ConfigPort port(loaded);
  port.load(bs);
  ASSERT_EQ(loaded, mem_);
  BitstreamSim sim(loaded);
  const int pad = dev_.pad_number({Side::Left, 2, 0});
  sim.step();
  EXPECT_TRUE(sim.get_pad(pad));
}

TEST_F(HandBuiltCircuit, FfStateCaptureRestore) {
  build_toggler();
  BitstreamSim sim(mem_);
  sim.step();  // FF now holds 1
  const auto state = sim.capture_ff_state();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_TRUE(state.begin()->second);

  BitstreamSim sim2(mem_);
  const int pad = dev_.pad_number({Side::Left, 2, 0});
  EXPECT_FALSE(sim2.get_pad(pad));  // fresh sim starts at init
  sim2.restore_ff_state(state);
  EXPECT_TRUE(sim2.get_pad(pad));  // state carried over
}

TEST_F(HandBuiltCircuit, InputPadThroughLut) {
  // IBUF at IOB_L4K0 drives tile (3,0) via the pad-out substitution; a
  // buffer LUT in (3,0).S0 samples it and routes back out on pad IOB_L4K1.
  const SliceSite s{3, 0, 0};
  const TileCoord t{3, 0};
  const IobSite in_pad{Side::Left, 3, 0};
  const IobSite out_pad{Side::Left, 3, 1};
  cb_.set_iob_flag(in_pad, IobField::IsInput, true);

  // Find an F/G input pin of slice 0 whose mux can select WIN0..WIN3
  // (which resolves to pad 0's PAD_OUT at column 0).
  const RoutingFabric& fab = dev_.fabric();
  int chosen_pin = -1, chosen_sel = -1;
  for (int p = 0; p < 4 && chosen_pin < 0; ++p) {
    const int local = imux_local(0, static_cast<ImuxPin>(p));
    const MuxDef* m = fab.mux_for_dest(local);
    for (std::size_t i = 0; i < m->sources.size(); ++i) {
      const auto node = fab.resolve_source(t.r, t.c, m->sources[i]);
      if (node && *node == fab.pad_out_node(Side::Left, 3, 0)) {
        chosen_pin = p;
        chosen_sel = static_cast<int>(i + 1);
        break;
      }
    }
  }
  ASSERT_GE(chosen_pin, 0) << "no F-input of (3,0).S0 can reach pad 0";
  cb_.set_mux(t, imux_local(0, static_cast<ImuxPin>(chosen_pin)),
              static_cast<std::uint32_t>(chosen_sel));

  // LUT F = pass-through of the chosen input pin.
  cb_.set_lut(s, LutSel::F,
              static_cast<std::uint16_t>(
                  chosen_pin == 0 ? 0xAAAA :
                  chosen_pin == 1 ? 0xCCCC :
                  chosen_pin == 2 ? 0xF0F0 : 0xFF00));
  cb_.set_field(s, SliceField::XUsed, true);
  cb_.set_pip(t, "S0_X", "OUT0");
  cb_.set_pip(t, "OUT0", "W1");
  const IobSite op = out_pad;
  cb_.set_iob_flag(op, IobField::IsOutput, true);
  cb_.set_iob_omux(op, 2);  // W1 is source position 2

  BitstreamSim sim(mem_);
  const int pin = dev_.pad_number(in_pad);
  const int pout = dev_.pad_number(out_pad);
  ASSERT_TRUE(sim.has_input_pad(pin));
  ASSERT_TRUE(sim.has_output_pad(pout));
  sim.set_pad(pin, true);
  EXPECT_TRUE(sim.get_pad(pout));
  sim.set_pad(pin, false);
  EXPECT_FALSE(sim.get_pad(pout));
}

// --- Fault injection: the extractor must reject inconsistent configs -------

TEST_F(HandBuiltCircuit, DetectsUndrivenConsumedWire) {
  build_toggler();
  // Kill the OUT1 mux: the westbound route is now consumed but undriven.
  cb_.set_mux({2, 2}, out_local(1), 0);
  EXPECT_THROW(extract_circuit(mem_), ExtractError);
}

TEST_F(HandBuiltCircuit, DetectsMissingClock) {
  build_toggler();
  cb_.set_mux({2, 2}, imux_local(0, ImuxPin::CLK), 0);
  EXPECT_THROW(extract_circuit(mem_), ExtractError);
}

TEST_F(HandBuiltCircuit, DetectsUnroutedObuf) {
  build_toggler();
  cb_.set_iob_omux({Side::Left, 2, 0}, 0);
  EXPECT_THROW(extract_circuit(mem_), ExtractError);
}

TEST_F(HandBuiltCircuit, DetectsRoutingCycle) {
  // Two singles feeding each other through straight-through stitches.
  cb_.set_pip({5, 5}, "WIN2", "E2");   // (5,5).E2 <- (5,4).E2
  cb_.set_pip({5, 4}, "WIN2", "E2");   // (5,4).E2 <- (5,3).E2
  // Close a loop: (5,3).E2 <- ... cannot loop E singles directly; use an
  // IMUX consuming (5,5).E2 to force a trace, with (5,3).E2 fed by a turn
  // from a hex that is fed by nothing -> undriven is also acceptable. The
  // robust cycle: OUT feedback. OUT0 at (6,6) selects pin S0_X with the LUT
  // unused -> "drives nothing" error instead. Simplest true cycle: a hex
  // chain that wraps is impossible; so assert the undriven diagnostic here.
  const SliceSite s{5, 6, 0};
  cb_.set_lut(s, LutSel::F, 0xAAAA);
  cb_.set_field(s, SliceField::XUsed, true);
  // F1 consumes the east-arriving single (5,5).E2 if reachable; otherwise
  // skip (template-dependent).
  const RoutingFabric& fab = dev_.fabric();
  const MuxDef* m = fab.mux_for_dest(imux_local(0, ImuxPin::F1));
  int sel = -1;
  for (std::size_t i = 0; i < m->sources.size(); ++i) {
    const auto node = fab.resolve_source(5, 6, m->sources[i]);
    if (node && *node == fab.tile_wire_node(5, 5, single_local(Dir::E, 2))) {
      sel = static_cast<int>(i + 1);
    }
  }
  if (sel < 0) {
    GTEST_SKIP() << "fabric template has no E2-in on S0_F1 at this tile";
  }
  cb_.set_mux({5, 6}, imux_local(0, ImuxPin::F1), static_cast<std::uint32_t>(sel));
  cb_.set_pip({5, 6}, "S0_X", "OUT0");
  cb_.set_pip({5, 6}, "OUT0", "W3");
  cb_.set_pip({5, 0}, "EIN3", "W3");
  cb_.set_iob_flag({Side::Left, 5, 0}, IobField::IsOutput, true);
  cb_.set_iob_omux({Side::Left, 5, 0}, 4);
  // The chain (5,3).E2 is undriven -> ExtractError (undriven diagnostic).
  EXPECT_THROW(extract_circuit(mem_), ExtractError);
}

/// Asserts that extraction throws an ExtractError whose message contains
/// `needle` — the error family matters, not just "something threw".
void expect_extract_error(const ConfigMemory& mem, const std::string& needle) {
  try {
    (void)extract_circuit(mem);
    FAIL() << "expected ExtractError containing '" << needle << "'";
  } catch (const ExtractError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST_F(HandBuiltCircuit, DetectsMultiplyDrivenLongLine) {
  // Long lines have exactly one driver mux active along their span; claim
  // LH0 on row 2 from two different tiles and dismount it onto a consumed
  // westbound route so the trace reaches it.
  cb_.set_pip({2, 4}, "OUT0", "LH0");
  cb_.set_pip({2, 6}, "OUT0", "LH0");
  cb_.set_pip({2, 2}, "LH0", "W0");
  cb_.set_pip({2, 1}, "EIN0", "W0");
  cb_.set_pip({2, 0}, "EIN0", "W0");
  cb_.set_iob_flag({Side::Left, 2, 0}, IobField::IsOutput, true);
  cb_.set_iob_omux({Side::Left, 2, 0}, 1);
  expect_extract_error(mem_, "multiple drivers");
}

TEST_F(HandBuiltCircuit, DetectsFfWithoutClockOnBareSlice) {
  // A used FF with nothing else configured: the clock check must fire
  // before any input tracing is attempted.
  cb_.set_field({4, 4, 0}, SliceField::FfxUsed, true);
  expect_extract_error(mem_, "has no clock routed");
}

TEST_F(HandBuiltCircuit, DetectsImuxToUnconnectableEdgeSource) {
  // Left/right edge singles substitute IOB pad-out wires, but the top and
  // bottom rows have no such aliasing: a north-arriving single selected at
  // row 0 is decodable yet resolves off the fabric. S0_F1's mux is
  // guaranteed one arriving single per direction (NIN2 for pin counter 0).
  const SliceSite s{0, 0, 0};
  cb_.set_lut(s, LutSel::F, 0x5555);  // depends on A1 -> F1 gets traced
  cb_.set_field(s, SliceField::XUsed, true);
  cb_.set_pip({0, 0}, "NIN2", "S0_F1");
  cb_.set_pip({0, 0}, "S0_X", "OUT1");
  cb_.set_pip({0, 0}, "OUT1", "W0");
  cb_.set_iob_flag({Side::Left, 0, 0}, IobField::IsOutput, true);
  cb_.set_iob_omux({Side::Left, 0, 0}, 1);
  expect_extract_error(mem_, "unconnectable");
}

TEST(Extractor, EmptyDeviceYieldsEmptyCircuit) {
  const Device& dev = Device::get("XCV50");
  const ConfigMemory mem(dev);
  const ExtractedCircuit ec = extract_circuit(mem);
  EXPECT_EQ(ec.used_les, 0u);
  EXPECT_EQ(ec.netlist.num_cells(), 0u);
}

}  // namespace
}  // namespace jpg
