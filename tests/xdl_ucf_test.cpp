// Tests for the XDL and UCF front-ends, including the central roundtrip
// property: implementing a design, writing XDL, re-parsing it, and applying
// both to configuration memory must produce identical frames.
#include <gtest/gtest.h>

#include "netlib/generators.h"
#include "pnr/flow.h"
#include "ucf/ucf_parser.h"
#include "xdl/lut_equation.h"
#include "xdl/xdl_parser.h"
#include "xdl/xdl_writer.h"

namespace jpg {
namespace {

TEST(LutEquation, ParsesPaperExample) {
  // The paper's sample cfg: D=(A1@A4).
  const std::uint16_t m = parse_lut_equation("(A1@A4)");
  for (unsigned idx = 0; idx < 16; ++idx) {
    const bool a1 = (idx & 1) != 0;
    const bool a4 = (idx & 8) != 0;
    EXPECT_EQ((m >> idx) & 1u, static_cast<unsigned>(a1 != a4)) << idx;
  }
}

TEST(LutEquation, OperatorsAndPrecedence) {
  EXPECT_EQ(parse_lut_equation("A1"), 0xAAAA);
  EXPECT_EQ(parse_lut_equation("~A1"), 0x5555);
  EXPECT_EQ(parse_lut_equation("A1*A2"), 0xAAAA & 0xCCCC);
  EXPECT_EQ(parse_lut_equation("A1+A2"), 0xAAAA | 0xCCCC);
  EXPECT_EQ(parse_lut_equation("A1@A2"), 0xAAAA ^ 0xCCCC);
  // ~ binds tighter than *, which binds tighter than @, then +.
  EXPECT_EQ(parse_lut_equation("~A1*A2"), 0x5555 & 0xCCCC);
  EXPECT_EQ(parse_lut_equation("A1+A2*A3"), 0xAAAA | (0xCCCC & 0xF0F0));
  EXPECT_EQ(parse_lut_equation("A1@A2+A3"), (0xAAAA ^ 0xCCCC) | 0xF0F0);
  EXPECT_EQ(parse_lut_equation("0"), 0x0000);
  EXPECT_EQ(parse_lut_equation("1"), 0xFFFF);
  EXPECT_EQ(parse_lut_equation("0xBEEF"), 0xBEEF);
  EXPECT_EQ(parse_lut_equation(" ( A1 + A2 ) * A3 "),
            (0xAAAA | 0xCCCC) & 0xF0F0);
}

TEST(LutEquation, RejectsGarbage) {
  EXPECT_THROW((void)parse_lut_equation("A5"), JpgError);
  EXPECT_THROW((void)parse_lut_equation("A1+"), JpgError);
  EXPECT_THROW((void)parse_lut_equation("(A1"), JpgError);
  EXPECT_THROW((void)parse_lut_equation(""), JpgError);
  EXPECT_THROW((void)parse_lut_equation("A1 A2"), JpgError);
  EXPECT_THROW((void)parse_lut_equation("0x10000"), JpgError);
}

TEST(LutEquation, InitRoundtripExhaustive) {
  // Every 4-input function must survive write -> parse exactly.
  for (std::uint32_t init = 0; init <= 0xFFFF; ++init) {
    const auto m = static_cast<std::uint16_t>(init);
    ASSERT_EQ(parse_lut_equation(lut_equation_from_init(m)), m) << init;
  }
}

TEST(LutEquation, WriterMinimisesTerms) {
  // The Quine-McCluskey writer should find the obvious minimal forms.
  EXPECT_EQ(lut_equation_from_init(0xAAAA), "A1");
  EXPECT_EQ(lut_equation_from_init(0x5555), "~A1");
  EXPECT_EQ(lut_equation_from_init(0xAAAA & 0xCCCC), "A1*A2");
  const std::string x = lut_equation_from_init(0xAAAA ^ 0xCCCC);  // XOR
  // XOR has no smaller SOP than two products.
  EXPECT_EQ(std::count(x.begin(), x.end(), '+'), 1);
  // A function with a large cube: f = A3 (independent of others).
  EXPECT_EQ(lut_equation_from_init(0xF0F0), "A3");
}

TEST(XdlParser, ParsesHandWrittenDesign) {
  const std::string text = R"(
# sample, shaped after the paper's fig. 3.2.2
design "demo" XCV50 v3.1 ;
inst "u1/nrz" "SLICE" , placed R3C23 CLB_R3C23.S0 ,
  cfg "CKINV::0 SYNC_ATTR::ASYNC F:u1/enc:#LUT:D=(A1@A2) FXMUX::OFF
       FFX:u1/nrz_reg:#FF DXMUX::0 INITX::LOW" ;
inst "ob" "IOB" , placed P5 IOB_L3K0 , cfg "IOB::OUTPUT NAME::nrz" ;
net "u1/nrz_q" , outpin "u1/nrz" XQ , inpin "ob" O ,
  pip R3C23 S0_XQ -> OUT1 , pip R3C23 OUT1 -> W0 ,
  pip R3C22 EIN0 -> W0 , iobpip IOB_L3K0 W0 ;
net "GCLK" , pip R3C23 GCLK -> S0_CLK ;
)";
  const XdlDesign xdl = parse_xdl(text, "demo.xdl");
  EXPECT_EQ(xdl.name, "demo");
  EXPECT_EQ(xdl.part, "XCV50");
  ASSERT_EQ(xdl.instances.size(), 2u);
  EXPECT_EQ(xdl.instances[0].name, "u1/nrz");
  EXPECT_EQ(xdl.instances[0].type, "SLICE");
  ASSERT_EQ(xdl.nets.size(), 2u);
  EXPECT_EQ(xdl.nets[0].pips.size(), 3u);
  EXPECT_EQ(xdl.nets[0].iobpips.size(), 1u);

  const auto design = placed_design_from_xdl(xdl);
  EXPECT_EQ(design->slices.size(), 1u);
  EXPECT_EQ(design->slice_sites[0], (SliceSite{2, 22, 0}));
  EXPECT_EQ(design->clock_pips.size(), 1u);
  EXPECT_EQ(design->netlist().find_cell("u1/nrz_reg").has_value(), true);
}

TEST(XdlParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_xdl("nonsense"), ParseError);
  EXPECT_THROW(parse_xdl("design \"x\" XCV50 v1 ; inst \"a\" ;"), ParseError);
  EXPECT_THROW(parse_xdl("design \"x\" XCV50 v1 ; net \"n\" , pip R1C1 A ;"),
               ParseError);
  // Unknown part.
  EXPECT_THROW(placed_design_from_xdl(parse_xdl("design \"x\" XCV7 v1 ;")),
               DeviceError);
  // Unsupported cfg values are rejected, not silently dropped.
  EXPECT_THROW(placed_design_from_xdl(parse_xdl(
                   R"(design "x" XCV50 v1 ;
                      inst "s" "SLICE" , placed R1C1 CLB_R1C1.S0 ,
                        cfg "CKINV::1" ;)")),
               JpgError);
  // PIP that does not exist in the fabric.
  EXPECT_THROW(placed_design_from_xdl(parse_xdl(
                   R"(design "x" XCV50 v1 ;
                      net "n" , pip R1C1 S0_X -> E0 ;)")),
               JpgError);
}

class XdlRoundtrip : public ::testing::TestWithParam<const char*> {};

TEST_P(XdlRoundtrip, WriteParseApplyIdentical) {
  const Device& dev = Device::get("XCV50");
  Netlist nl("rt");
  for (const auto& g : netlib::registry()) {
    if (g.name == std::string(GetParam())) nl = g.make(6);
  }
  ASSERT_GT(nl.num_cells(), 0u);
  const BaseFlowResult res = run_base_flow(dev, nl, {});

  ConfigMemory direct(dev);
  CBits cb_direct(direct);
  res.design->apply(cb_direct);

  const std::string text = write_xdl(*res.design);
  const XdlDesign parsed = parse_xdl(text, "rt.xdl");
  const auto rebuilt = placed_design_from_xdl(parsed);

  ConfigMemory via_xdl(dev);
  CBits cb_xdl(via_xdl);
  rebuilt->apply(cb_xdl);

  EXPECT_EQ(direct, via_xdl)
      << "XDL roundtrip changed the configuration plane";
}

INSTANTIATE_TEST_SUITE_P(Designs, XdlRoundtrip,
                         ::testing::Values("counter", "lfsr", "adder",
                                           "parity", "alu"));

TEST(XdlRoundtrip, ModuleDesignWithPorts) {
  const Device& dev = Device::get("XCV50");
  PartitionInterface iface;
  iface.partition = "u1";
  iface.region = Region{0, 6, dev.rows() - 1, 9};
  iface.bindings = {{"d", true, 2, 0}, {"nrz", false, 3, 1}};
  const ModuleFlowResult mod =
      run_module_flow(dev, netlib::make_nrz_encoder(), iface);

  ConfigMemory direct(dev);
  CBits cbd(direct);
  mod.design->apply(cbd);

  const std::string text = write_xdl(*mod.design);
  const auto rebuilt = placed_design_from_xdl(parse_xdl(text));
  EXPECT_EQ(rebuilt->ports.size(), 2u);

  ConfigMemory via(dev);
  CBits cbv(via);
  rebuilt->apply(cbv);
  EXPECT_EQ(direct, via);
}

TEST(Ucf, ParsesAllConstraintKinds) {
  const Device& dev = Device::get("XCV50");
  const std::string text = R"(
# floorplan
INST "u1/*" AREA_GROUP = "AG_u1" ;
AREA_GROUP "AG_u1" RANGE = CLB_R1C7:CLB_R16C12 ;
INST "u1/nrz" LOC = CLB_R3C23.S0 ;
PORT "d" LOC = P12 ;
)";
  const UcfData ucf = parse_ucf(text, dev, "t.ucf");
  ASSERT_EQ(ucf.inst_area_groups.size(), 1u);
  EXPECT_EQ(ucf.inst_area_groups[0].first, "u1/*");
  const Region reg = ucf.area_group_ranges.at("AG_u1");
  EXPECT_EQ(reg, (Region{0, 6, 15, 11}));
  EXPECT_EQ(ucf.inst_locs.at("u1/nrz"), (SliceSite{2, 22, 0}));
  EXPECT_EQ(ucf.port_locs.at("d"), 12);
}

TEST(Ucf, WriterRoundtrip) {
  const Device& dev = Device::get("XCV50");
  UcfData ucf;
  ucf.inst_area_groups.emplace_back("u1/*", "AG_u1");
  ucf.area_group_ranges["AG_u1"] = Region{0, 6, 15, 11};
  ucf.inst_locs["enc"] = SliceSite{2, 22, 1};
  ucf.port_locs["d"] = 7;
  const std::string text = write_ucf(ucf, dev);
  const UcfData back = parse_ucf(text, dev, "w.ucf");
  EXPECT_EQ(back.inst_area_groups, ucf.inst_area_groups);
  EXPECT_EQ(back.area_group_ranges.at("AG_u1"), (Region{0, 6, 15, 11}));
  EXPECT_EQ(back.inst_locs.at("enc"), (SliceSite{2, 22, 1}));
  EXPECT_EQ(back.port_locs.at("d"), 7);
}

TEST(Ucf, RejectsMalformedInput) {
  const Device& dev = Device::get("XCV50");
  EXPECT_THROW(parse_ucf("INST \"a\" LOC = CLB_R99C1.S0 ;", dev), ParseError);
  EXPECT_THROW(parse_ucf("INST \"a\" LOC = CLB_R1C1.S0", dev), ParseError);
  EXPECT_THROW(parse_ucf("FROB \"a\" ;", dev), ParseError);
  EXPECT_THROW(parse_ucf("PORT \"d\" LOC = P9999 ;", dev), ParseError);
  EXPECT_THROW(parse_ucf("AREA_GROUP \"g\" RANGE = R1C1:R2C2 ;", dev),
               ParseError);
  // Group referenced without a range.
  EXPECT_THROW(parse_ucf("INST \"u/*\" AREA_GROUP = \"g\" ;", dev), JpgError);
}

TEST(Ucf, PartitionRegionResolution) {
  const Device& dev = Device::get("XCV50");
  Netlist top("t");
  const auto merged = top.merge_module(netlib::make_counter(4), "u1");
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
  }
  const UcfData ucf = parse_ucf(
      "INST \"u1/*\" AREA_GROUP = \"AG\" ;\n"
      "AREA_GROUP \"AG\" RANGE = CLB_R1C7:CLB_R16C10 ;\n",
      dev);
  const auto regions = ucf_partition_regions(ucf, top);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions.at("u1"), (Region{0, 6, 15, 9}));

  // Pattern matching a static cell is rejected.
  const UcfData bad = parse_ucf(
      "INST \"ob_*\" AREA_GROUP = \"AG\" ;\n"
      "AREA_GROUP \"AG\" RANGE = CLB_R1C7:CLB_R16C10 ;\n",
      dev);
  EXPECT_THROW(ucf_partition_regions(bad, top), JpgError);
}

}  // namespace
}  // namespace jpg
