// quickstart: the whole jpg-cpp pipeline in one page.
//
//   1. synthesise a module (netlib)           4. write XDL + UCF
//   2. implement it (pack/place/route)        5. JPG -> partial bitstream
//   3. bitgen -> complete base bitstream      6. download to a simulated
//                                                board and watch it run
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "bitstream/bitgen.h"
#include "core/jpg.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

using namespace jpg;

int main() {
  const Device& dev = Device::get("XCV50");
  std::printf("device: %s (%dx%d CLBs, %zu config frames of %zu words)\n",
              dev.spec().name.c_str(), dev.rows(), dev.cols(),
              dev.frames().num_frames(), dev.frames().frame_words());

  // --- Phase 1: the base design --------------------------------------------
  // A NRZ encoder module (the paper's running example) in a full-height
  // region, its interface wired to pads by the static design.
  const Region region{0, 6, dev.rows() - 1, 9};
  Netlist top("quickstart_base");
  const auto merged = top.merge_module(netlib::make_nrz_encoder(), "u1");
  PartitionSpec spec;
  spec.name = "u1";
  spec.region = region;
  for (const auto& [port, net] : merged.inputs) {
    top.add_ibuf("ib_" + port, port, net);
    spec.input_ports.emplace_back(port, net);
  }
  for (const auto& [port, net] : merged.outputs) {
    top.add_obuf("ob_" + port, port, net);
    spec.output_ports.emplace_back(port, net);
  }

  const BaseFlowResult base = run_base_flow(dev, top, {spec});
  std::printf("base flow: %zu slices, %zu pips (pack %.1f ms, place %.1f ms, "
              "route %.1f ms)\n",
              base.pack_stats.slices, base.design->total_pips(),
              base.timings.pack_s * 1e3, base.timings.place_s * 1e3,
              base.timings.route_s * 1e3);

  ConfigMemory base_mem(dev);
  CBits cb(base_mem);
  base.design->apply(cb);
  const Bitstream base_bit = generate_full_bitstream(base_mem);
  std::printf("complete bitstream: %zu bytes\n", base_bit.size_bytes());

  // --- Phase 2: an updated module ------------------------------------------
  // Replace the NRZ encoder by a two-stage delay register with the same
  // interface, implemented inside the region alone.
  Netlist update("u1_delay2");
  {
    const NetId d = update.add_net("d");
    const NetId q1 = update.add_net("q1");
    const NetId q2 = update.add_net("q2");
    update.add_ibuf("ib_d", "d", d);
    update.add_dff("ff1", d, q1);
    update.add_dff("ff2", q1, q2);
    update.add_obuf("ob_nrz", "nrz", q2);
  }
  const ModuleFlowResult mod =
      run_module_flow(dev, update, base.interface_of("u1"));
  std::printf("module flow: %zu slices in %s (route %.1f ms)\n",
              mod.pack_stats.slices, region.to_string().c_str(),
              mod.timings.route_s * 1e3);

  // The standard-flow artifacts JPG consumes.
  const std::string xdl = write_xdl(*mod.design);
  UcfData ucf;
  ucf.area_group_ranges["AG_u1"] = region;
  const std::string ucf_text = write_ucf(ucf, dev);

  // --- JPG -------------------------------------------------------------------
  Jpg tool(base_bit);
  const auto partial = tool.generate_partial_from_text(xdl, ucf_text);
  std::printf("partial bitstream: %zu bytes (%zu frames in %zu FAR blocks, "
              "%zu CBits calls)\n",
              partial.partial.size_bytes(), partial.frames.size(),
              partial.far_blocks, partial.cbits_calls);
  std::printf("%s", partial.floorplan.c_str());

  // --- Download & run ---------------------------------------------------------
  SimBoard board(dev);
  board.send_config(base_bit.words);
  tool.connect(&board);
  tool.download(StreamSource::of(partial.partial.words));

  // Pad numbers from the base placement.
  int pad_d = 0, pad_nrz = 0;
  for (std::size_t i = 0; i < base.design->iob_cells.size(); ++i) {
    const auto& port = base.design->netlist().cell(base.design->iob_cells[i]).port;
    if (port == "d") pad_d = dev.pad_number(base.design->iob_sites[i]);
    if (port == "nrz") pad_nrz = dev.pad_number(base.design->iob_sites[i]);
  }
  std::printf("driving pad P%d, watching pad P%d:\n", pad_d, pad_nrz);
  const bool stimulus[] = {1, 0, 1, 1, 0, 0, 1, 0};
  std::printf("  d   = ");
  for (const bool d : stimulus) std::printf("%d", d ? 1 : 0);
  std::printf("\n  nrz = ");
  for (const bool d : stimulus) {
    board.set_pin(pad_d, d);
    board.step_clock(1);
    std::printf("%d", board.get_pin(pad_nrz) ? 1 : 0);
  }
  std::printf("   (d through the two-register pipeline: the new module is "
              "live)\n");
  return 0;
}
