#include "scenarios.h"

#include "netlib/generators.h"
#include "support/error.h"

namespace jpg::scenarios {

Netlist slot_a_counter() { return netlib::make_counter(4, "a_counter"); }
Netlist slot_a_lfsr() { return netlib::make_lfsr(4, {3, 2}, "a_lfsr"); }
Netlist slot_a_johnson() { return netlib::make_johnson(4, "a_johnson"); }

Netlist slot_b_pass() {
  Netlist nl("b_pass");
  const NetId d = nl.add_net("d");
  const NetId q = nl.add_net("q");
  nl.add_ibuf("ib_d", "d", d);
  nl.add_dff("ff", d, q);
  nl.add_obuf("ob_y", "y", q);
  return nl;
}

Netlist slot_b_nrz() {
  Netlist nl("b_nrz");
  const NetId d = nl.add_net("d");
  const NetId y = nl.add_net("y");
  const NetId nxt = nl.add_net("nxt");
  nl.add_ibuf("ib_d", "d", d);
  nl.add_lut("enc", netlib::lut_xor2(), {d, y, kNullNet, kNullNet}, nxt);
  nl.add_dff("nrz_reg", nxt, y);
  nl.add_obuf("ob_y", "y", y);
  return nl;
}

Netlist slot_b_invreg() {
  Netlist nl("b_invreg");
  const NetId d = nl.add_net("d");
  const NetId nd = nl.add_net("nd");
  const NetId q = nl.add_net("q");
  nl.add_ibuf("ib_d", "d", d);
  nl.add_lut("inv", netlib::lut_not1(), {d, kNullNet, kNullNet, kNullNet}, nd);
  nl.add_dff("ff", nd, q);
  nl.add_obuf("ob_y", "y", q);
  return nl;
}

Netlist slot_c_matcher(int which) {
  static const std::vector<std::vector<bool>> patterns = {
      {1, 0, 1, 1, 0},
      {0, 1, 1, 1, 0},
      {1, 1, 0, 0, 1},
      {0, 0, 1, 0, 1},
  };
  JPG_REQUIRE(which >= 0 && which < static_cast<int>(patterns.size()),
              "matcher variant out of range");
  return netlib::make_matcher(patterns[static_cast<std::size_t>(which)],
                              "c_match" + std::to_string(which));
}

std::vector<SlotDef> fig1_slots(const Device& device) {
  JPG_REQUIRE(device.cols() >= 12, "device too small for the fig. 1 scenario");
  std::vector<SlotDef> slots;
  SlotDef c;
  c.partition = "u_match";
  c.region = Region{0, 4, device.rows() - 1, 7};
  c.variants.push_back({"match0", slot_c_matcher(0)});
  c.variants.push_back({"match1", slot_c_matcher(1)});
  c.variants.push_back({"match2", slot_c_matcher(2)});
  slots.push_back(std::move(c));
  return slots;
}

std::vector<SlotDef> fig4_slots(const Device& device) {
  JPG_REQUIRE(device.cols() >= 22, "device too small for the fig. 4 scenario");
  std::vector<SlotDef> slots;
  {
    SlotDef a;
    a.partition = "u_gen";
    a.region = Region{0, 2, device.rows() - 1, 5};
    a.variants.push_back({"counter", slot_a_counter()});
    a.variants.push_back({"lfsr", slot_a_lfsr()});
    a.variants.push_back({"johnson", slot_a_johnson()});
    slots.push_back(std::move(a));
  }
  {
    SlotDef b;
    b.partition = "u_enc";
    b.region = Region{0, 9, device.rows() - 1, 12};
    b.variants.push_back({"pass", slot_b_pass()});
    b.variants.push_back({"nrz", slot_b_nrz()});
    b.variants.push_back({"invreg", slot_b_invreg()});
    slots.push_back(std::move(b));
  }
  {
    SlotDef c;
    c.partition = "u_match";
    c.region = Region{0, 16, device.rows() - 1, 19};
    for (int i = 0; i < 4; ++i) {
      c.variants.push_back({"match" + std::to_string(i), slot_c_matcher(i)});
    }
    slots.push_back(std::move(c));
  }
  return slots;
}

ScenarioBase build_base(const Device& /*device*/,
                        const std::vector<SlotDef>& slots) {
  ScenarioBase sb;
  Netlist& top = sb.top;

  // Static heartbeat: proves the static design keeps operating across
  // partial reconfigurations.
  {
    const Netlist hb = netlib::make_counter(4, "hb");
    std::vector<NetId> map(hb.num_nets());
    for (std::size_t i = 0; i < hb.num_nets(); ++i) {
      map[i] = top.add_net("hb/" + hb.net(static_cast<NetId>(i)).name);
    }
    auto mn = [&](NetId id) { return id == kNullNet ? kNullNet : map[id]; };
    for (const Cell& c : hb.cells()) {
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

  for (const SlotDef& slot : slots) {
    JPG_REQUIRE(!slot.variants.empty(), "slot without variants");
    const auto merged =
        top.merge_module(slot.variants[0].netlist, slot.partition);
    PartitionSpec spec;
    spec.name = slot.partition;
    spec.region = slot.region;
    for (const auto& [port, net] : merged.inputs) {
      top.add_ibuf(slot.partition + "_ib_" + port, slot.partition + "_" + port,
                   net);
      spec.input_ports.emplace_back(port, net);
    }
    for (const auto& [port, net] : merged.outputs) {
      top.add_obuf(slot.partition + "_ob_" + port, slot.partition + "_" + port,
                   net);
      spec.output_ports.emplace_back(port, net);
    }
    sb.specs.push_back(std::move(spec));
  }
  return sb;
}

const VariantDef& variant(const SlotDef& slot, const std::string& name) {
  for (const VariantDef& v : slot.variants) {
    if (v.name == name) return v;
  }
  throw JpgError("slot " + slot.partition + " has no variant '" + name + "'");
}

}  // namespace jpg::scenarios
