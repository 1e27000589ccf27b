// End-to-end tests of the JPG tool: the full two-phase flow of the paper.
//
// Phase 1 builds a partitioned base design (static counter + reconfigurable
// module) and its complete bitstream. Phase 2 implements module variants
// standalone, exports XDL+UCF, and drives them through Jpg to obtain
// partial bitstreams. The tests then assert the repository's headline
// invariants (DESIGN.md §4): partial loads touch only region columns, the
// updated device behaves exactly like the golden netlist of
// static+variant, static state survives dynamic reconfiguration, and the
// partial stream is idempotent.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "core/jpg.h"
#include "core/project.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "sim/netlist_sim.h"
#include "xdl/xdl_writer.h"

namespace jpg {
namespace {

/// Module variants sharing the interface {in: d, out: nrz}.
Netlist variant_nrz() { return netlib::make_nrz_encoder("var_nrz"); }

Netlist variant_delay() {
  // Two-stage delay register: nrz = d delayed by 2.
  Netlist nl("var_delay");
  const NetId d = nl.add_net("d");
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  nl.add_ibuf("ib_d", "d", d);
  nl.add_dff("ff1", d, q1);
  nl.add_dff("ff2", q1, q2);
  nl.add_obuf("ob_nrz", "nrz", q2);
  return nl;
}

Netlist variant_invreg() {
  // Registered inverter: nrz = ~d delayed by 1.
  Netlist nl("var_invreg");
  const NetId d = nl.add_net("d");
  const NetId nd = nl.add_net("nd");
  const NetId q = nl.add_net("q");
  nl.add_ibuf("ib_d", "d", d);
  nl.add_lut("inv", netlib::lut_not1(), {d, kNullNet, kNullNet, kNullNet}, nd);
  nl.add_dff("ff", nd, q);
  nl.add_obuf("ob_nrz", "nrz", q);
  return nl;
}

/// Builds the base top: 4-bit static counter on pads + module `mod` as
/// partition "u1" with its d input from a pad and nrz output to a pad.
struct TopBuild {
  Netlist top{"base_top"};
  PartitionSpec spec;
};

TopBuild build_top(const Netlist& mod) {
  TopBuild tb;
  Netlist& top = tb.top;
  // Static counter (visible heartbeat of the static logic).
  {
    const Netlist cnt = netlib::make_counter(4, "hb");
    // Inline as static logic: merge as partitionless by hand.
    std::map<NetId, NetId> net_map;
    for (std::size_t i = 0; i < cnt.num_nets(); ++i) {
      net_map[static_cast<NetId>(i)] =
          top.add_net("hb/" + cnt.net(static_cast<NetId>(i)).name);
    }
    auto mn = [&](NetId id) { return id == kNullNet ? kNullNet : net_map[id]; };
    for (const Cell& c : cnt.cells()) {
      switch (c.kind) {
        case CellKind::Lut4:
          top.add_lut("hb/" + c.name, c.lut_init,
                      {mn(c.in[0]), mn(c.in[1]), mn(c.in[2]), mn(c.in[3])},
                      mn(c.out));
          break;
        case CellKind::Dff:
          top.add_dff("hb/" + c.name, mn(c.in[0]), mn(c.out), c.ff_init);
          break;
        case CellKind::Obuf:
          top.add_obuf("hb/" + c.name, "hb_" + c.port, mn(c.in[0]));
          break;
        default:
          break;
      }
    }
  }
  // Module as partition u1.
  const auto merged = top.merge_module(mod, "u1");
  tb.spec.name = "u1";
  for (const auto& [port, net] : merged.inputs) {
    // Drive the module input from a pad through static logic.
    top.add_ibuf("ib_" + port, port, net);
    tb.spec.input_ports.emplace_back(port, net);
  }
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    tb.spec.output_ports.emplace_back(port, net);
  }
  return tb;
}

class JpgEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    region_ = Region{0, 6, dev_->rows() - 1, 9};

    TopBuild tb = build_top(variant_nrz());
    tb.spec.region = region_;
    FlowOptions opt;
    opt.seed = 11;
    base_ = std::make_unique<BaseFlowResult>(
        run_base_flow(*dev_, tb.top, {tb.spec}, opt));
    base_top_ = std::make_unique<Netlist>(std::move(tb.top));

    ConfigMemory mem(*dev_);
    CBits cb(mem);
    base_->design->apply(cb);
    base_bit_ = generate_full_bitstream(mem);
  }

  /// Runs phase 2 for a variant and produces XDL + UCF text.
  std::pair<std::string, std::string> implement_variant(const Netlist& var,
                                                        std::uint64_t seed) {
    FlowOptions opt;
    opt.seed = seed;
    const ModuleFlowResult mod =
        run_module_flow(*dev_, var, base_->interface_of("u1"), opt);
    UcfData ucf;
    ucf.area_group_ranges["AG_u1"] = region_;
    return {write_xdl(*mod.design), write_ucf(ucf, *dev_)};
  }

  /// Golden netlist for static + variant.
  Netlist golden_with(const Netlist& var) {
    TopBuild tb = build_top(var);
    return std::move(tb.top);
  }

  /// Pad numbers of the base design's ports.
  std::map<std::string, int> pads() const {
    std::map<std::string, int> m;
    for (std::size_t i = 0; i < base_->design->iob_cells.size(); ++i) {
      m[base_->design->netlist().cell(base_->design->iob_cells[i]).port] =
          dev_->pad_number(base_->design->iob_sites[i]);
    }
    return m;
  }

  const Device* dev_ = nullptr;
  Region region_;
  std::unique_ptr<BaseFlowResult> base_;
  std::unique_ptr<Netlist> base_top_;
  Bitstream base_bit_;
};

TEST_F(JpgEndToEnd, PartialTouchesOnlyRegionColumns) {
  auto [xdl, ucf] = implement_variant(variant_delay(), 21);
  Jpg tool(base_bit_);
  const auto res = tool.generate_partial_from_text(xdl, ucf);
  EXPECT_GT(res.frames.size(), 0u);
  EXPECT_GT(res.cbits_calls, 0u);
  EXPECT_EQ(res.region, region_);

  const auto majors = region_.clb_majors(*dev_);
  for (const std::size_t f : res.frames) {
    const auto a = dev_->frames().address_of_index(f);
    EXPECT_NE(std::find(majors.begin(), majors.end(), static_cast<int>(a.major)),
              majors.end())
        << "frame " << f << " outside region columns";
  }
  // And the loader agrees: committed frames == declared frames.
  ConfigMemory mem(*dev_);
  ConfigPort port(mem);
  port.load(base_bit_);
  port.reset_stats();
  port.load(res.partial);
  EXPECT_EQ(port.committed_frames(), res.frames);
}

TEST_F(JpgEndToEnd, PartialIsSmallerThanFull) {
  auto [xdl, ucf] = implement_variant(variant_nrz(), 22);
  Jpg tool(base_bit_);
  const auto res = tool.generate_partial_from_text(xdl, ucf);
  // Region is 4 of 24 columns; the partial must be well under the full size.
  EXPECT_LT(res.partial.size_bytes(), base_bit_.size_bytes() / 3);
  EXPECT_GT(res.partial.size_bytes(), 0u);
}

TEST_F(JpgEndToEnd, UpdatedDeviceMatchesGoldenNetlist) {
  const auto pad = pads();
  struct VariantCase {
    Netlist netlist;
    std::uint64_t seed;
  };
  std::vector<VariantCase> variants;
  variants.push_back({variant_delay(), 31});
  variants.push_back({variant_invreg(), 32});
  variants.push_back({variant_nrz(), 33});

  for (auto& vc : variants) {
    auto [xdl, ucf] = implement_variant(vc.netlist, vc.seed);
    Jpg tool(base_bit_);
    const auto res = tool.generate_partial_from_text(xdl, ucf);

    // Load base, then partial, through the real config port.
    ConfigMemory mem(*dev_);
    ConfigPort port(mem);
    port.load(base_bit_);
    port.load(res.partial);

    BitstreamSim hw(mem);
    const Netlist golden_nl = golden_with(vc.netlist);
    NetlistSim golden(golden_nl);

    Rng rng(99);
    for (int cyc = 0; cyc < 48; ++cyc) {
      const bool d = rng.chance(0.5);
      golden.set_input("d", d);
      hw.set_pad(pad.at("d"), d);
      for (const std::string& port_name : golden_nl.output_ports()) {
        EXPECT_EQ(hw.get_pad(pad.at(port_name)), golden.get_output(port_name))
            << vc.netlist.name() << " port " << port_name << " cycle " << cyc;
      }
      golden.step();
      hw.step();
    }
  }
}

TEST_F(JpgEndToEnd, WriteOntoBaseIsIdempotentAndConverges) {
  auto [xdl, ucf] = implement_variant(variant_delay(), 41);
  Jpg tool(base_bit_);
  PartialGenOptions diff;
  diff.diff_only = true;
  const auto res = tool.generate_partial_from_text(xdl, ucf, diff);

  tool.write_onto_base(res);
  const Bitstream once = tool.full_bitstream();
  tool.write_onto_base(res);
  EXPECT_EQ(tool.full_bitstream(), once);  // idempotent

  // Regenerating the same module against the updated base writes nothing.
  const auto again = tool.generate_partial_from_text(xdl, ucf, diff);
  EXPECT_TRUE(again.frames.empty());
  EXPECT_EQ(again.far_blocks, 0u);
}

TEST_F(JpgEndToEnd, DefaultPartialsComposeInAnyOrder) {
  // Pre-generated (state-independent) partials must install correctly no
  // matter which variant currently occupies the region — the Figure 1
  // module-pool requirement that diff-against-base partials violate.
  auto [xdl_a, ucf_a] = implement_variant(variant_delay(), 42);
  auto [xdl_b, ucf_b] = implement_variant(variant_invreg(), 43);
  Jpg tool(base_bit_);
  const auto pa = tool.generate_partial_from_text(xdl_a, ucf_a);
  const auto pb = tool.generate_partial_from_text(xdl_b, ucf_b);

  // base -> A -> B must equal base -> B exactly (frame-for-frame).
  ConfigMemory via_a(*dev_);
  {
    ConfigPort port(via_a);
    port.load(base_bit_);
    port.load(pa.partial);
    port.load(pb.partial);
  }
  ConfigMemory direct(*dev_);
  {
    ConfigPort port(direct);
    port.load(base_bit_);
    port.load(pb.partial);
  }
  EXPECT_EQ(via_a, direct);
}

TEST_F(JpgEndToEnd, DynamicReconfigurationPreservesStaticState) {
  const auto pad = pads();
  SimBoard board(*dev_);
  board.send_config(base_bit_.words);
  ASSERT_TRUE(board.configured());

  // Run the static heartbeat counter for 9 cycles.
  board.set_pin(pad.at("d"), false);
  board.step_clock(9);
  auto heartbeat = [&] {
    int v = 0;
    for (int b = 0; b < 4; ++b) {
      if (board.get_pin(pad.at("hb_q" + std::to_string(b)))) v |= 1 << b;
    }
    return v;
  };
  ASSERT_EQ(heartbeat(), 9);

  // Swap the module while the device keeps operating.
  auto [xdl, ucf] = implement_variant(variant_delay(), 51);
  Jpg tool(base_bit_);
  const auto res = tool.generate_partial_from_text(xdl, ucf);
  tool.connect(&board);
  tool.download(StreamSource::of(res.partial.words));

  // Static state survived the partial load...
  EXPECT_EQ(heartbeat(), 9);
  board.step_clock(3);
  EXPECT_EQ(heartbeat(), 12);

  // ...and the new module works: delay-2 register.
  board.set_pin(pad.at("d"), true);
  board.step_clock(2);
  EXPECT_TRUE(board.get_pin(pad.at("nrz")));
  board.set_pin(pad.at("d"), false);
  board.step_clock(2);
  EXPECT_FALSE(board.get_pin(pad.at("nrz")));
}

TEST_F(JpgEndToEnd, RejectsModulePlacedOutsideUcfRegion) {
  auto [xdl, ucf] = implement_variant(variant_nrz(), 61);
  // Shrink the UCF region so the placement violates it.
  UcfData bad;
  bad.area_group_ranges["AG_u1"] = Region{0, 6, dev_->rows() - 1, 6};
  Jpg tool(base_bit_);
  EXPECT_THROW(
      (void)tool.generate_partial_from_text(xdl, write_ucf(bad, *dev_)),
      JpgError);
}

TEST_F(JpgEndToEnd, FloorplanViewHighlightsTarget) {
  auto [xdl, ucf] = implement_variant(variant_nrz(), 71);
  Jpg tool(base_bit_);
  const auto res = tool.generate_partial_from_text(xdl, ucf);
  EXPECT_NE(res.floorplan.find("#"), std::string::npos);
  EXPECT_NE(res.floorplan.find("XCV50"), std::string::npos);
  // Width: 24 tile characters per row.
  EXPECT_NE(res.floorplan.find(std::string(2, '#')), std::string::npos);
}

TEST_F(JpgEndToEnd, RejectsPartialAsBase) {
  auto [xdl, ucf] = implement_variant(variant_nrz(), 81);
  Jpg tool(base_bit_);
  const auto res = tool.generate_partial_from_text(xdl, ucf);
  EXPECT_THROW(Jpg{res.partial}, BitstreamError);
}

TEST(JpgProject, SaveLoadRoundtrip) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  JpgProject p;
  p.name = "demo";
  p.device_part = "XCV50";
  p.base = generate_full_bitstream(mem);
  p.modules.push_back({"var_a", "design \"a\" XCV50 v1 ;\n", "# ucf a\n"});
  p.modules.push_back({"var_b", "design \"b\" XCV50 v1 ;\n", "# ucf b\n"});

  const std::string dir = ::testing::TempDir() + "/jpg_project_test";
  p.save(dir);
  const JpgProject q = JpgProject::load(dir);
  EXPECT_EQ(q.name, "demo");
  EXPECT_EQ(q.device_part, "XCV50");
  EXPECT_EQ(q.base, p.base);
  ASSERT_EQ(q.modules.size(), 2u);
  EXPECT_EQ(q.module("var_a").xdl_text, "design \"a\" XCV50 v1 ;\n");
  EXPECT_EQ(q.module("var_b").ucf_text, "# ucf b\n");
  EXPECT_THROW(q.module("nope"), JpgError);
  EXPECT_THROW(JpgProject::load(::testing::TempDir() + "/no_such_project"),
               JpgError);
}

}  // namespace
}  // namespace jpg
