// Stress and property tests across the stack:
//  * randomized multi-region module-swap sequences against a golden model
//  * configuration-port fuzzing (random/corrupted streams must fail
//    cleanly, never corrupt unrelated state or crash)
//  * routing-graph structural invariants (edge/mux consistency) swept
//    across device sizes
//  * placer constraint satisfaction under random area groups
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "core/jpg.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "pnr/router.h"
#include "scenarios.h"
#include "support/rng.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

namespace jpg {
namespace {

// --- Randomized swap sequences -------------------------------------------------

TEST(SwapStress, RandomSwapSequenceStaysConsistent) {
  const Device& dev = Device::get("XCV50");
  const auto slots = scenarios::fig4_slots(dev);
  auto base = scenarios::build_base(dev, slots);
  const BaseFlowResult flow = run_base_flow(dev, base.top, base.specs, {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream base_bit = generate_full_bitstream(mem);

  // Pre-generate all partials.
  Jpg tool(base_bit);
  std::vector<std::vector<Bitstream>> pool(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    UcfData ucf;
    ucf.area_group_ranges["AG"] = slots[s].region;
    const std::string ucf_text = write_ucf(ucf, dev);
    for (const auto& v : slots[s].variants) {
      const ModuleFlowResult mod =
          run_module_flow(dev, v.netlist, flow.interface_of(slots[s].partition));
      pool[s].push_back(
          tool.generate_partial_from_text(write_xdl(*mod.design), ucf_text)
              .partial);
    }
  }

  SimBoard board(dev);
  board.send_config(base_bit.words);
  int hb_pad = 0;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    if (flow.design->netlist().cell(flow.design->iob_cells[i]).port == "hb_q0") {
      hb_pad = dev.pad_number(flow.design->iob_sites[i]);
    }
  }

  // 24 random swaps interleaved with clocking; the heartbeat must track
  // total cycle parity throughout, and the config plane must always stay
  // extractable (no corruption).
  Rng rng(20020422);
  std::uint64_t cycles = 0;
  for (int step = 0; step < 24; ++step) {
    const std::size_t slot = rng.uniform(pool.size());
    const std::size_t var = rng.uniform(pool[slot].size());
    board.send_config(pool[slot][var].words);
    const int n = static_cast<int>(rng.range(1, 9));
    board.step_clock(n);
    cycles += static_cast<std::uint64_t>(n);
    ASSERT_EQ(board.get_pin(hb_pad), (cycles & 1) != 0)
        << "heartbeat corrupted at step " << step;
  }
  EXPECT_EQ(board.cycles(), cycles);
}

// --- Configuration-port fuzzing -------------------------------------------------

TEST(PortFuzz, RandomWordStreamsNeverCrash) {
  const Device& dev = Device::get("XCV50");
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    ConfigMemory mem(dev);
    ConfigPort port(mem);
    const std::size_t len = 4 + rng.uniform(64);
    try {
      for (std::size_t i = 0; i < len; ++i) {
        // Mix random words with occasional syncs to reach deeper states.
        const std::uint64_t roll = rng.uniform(10);
        std::uint32_t w;
        if (roll == 0) {
          w = kSyncWord;
        } else if (roll == 1) {
          w = kDummyWord;
        } else {
          w = static_cast<std::uint32_t>(rng.next());
        }
        port.load_word(w);
      }
    } catch (const BitstreamError&) {
      // Expected for most streams; the requirement is "no crash, typed
      // error only".
    }
  }
  SUCCEED();
}

TEST(PortFuzz, CorruptedRealBitstreamsFailCleanly) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory golden(dev);
  golden.frame(50).set(100, true);
  const Bitstream good = generate_full_bitstream(golden);
  Rng rng(7);
  int clean_failures = 0, silent = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Bitstream bad = good;
    const std::size_t n_flips = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < n_flips; ++i) {
      const std::size_t idx = 2 + rng.uniform(bad.words.size() - 2);
      bad.words[idx] ^= 1u << rng.uniform(32);
    }
    ConfigMemory mem(dev);
    ConfigPort port(mem);
    try {
      port.load(bad);
      // Escaped detection: only possible if the flips cancelled out or hit
      // genuinely ignored bits (e.g. a dummy pad word).
      ++silent;
    } catch (const BitstreamError&) {
      ++clean_failures;
    }
  }
  EXPECT_GE(clean_failures, 55) << "CRC missed too many corruptions";
  EXPECT_LE(silent, 5);
}

// --- Routing graph invariants ---------------------------------------------------

class GraphInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphInvariants, EdgesAgreeWithMuxTables) {
  const Device& dev = Device::get(GetParam());
  const RoutingGraph& g = RoutingGraph::get(dev);
  const RoutingFabric& fab = dev.fabric();
  ASSERT_EQ(g.num_nodes(), fab.num_nodes());

  // Sample nodes; for each outgoing edge, programming the pip must select
  // exactly this source in the mux table.
  Rng rng(3);
  std::size_t checked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t node = rng.uniform(g.num_nodes());
    for (const RoutingGraph::Edge& e : g.out_edges(node)) {
      if (e.dest_local < 0) {
        // Pad-input edge: sel indexes pad_in_sources.
        const Side side = e.dest_local == RoutingGraph::kPadInLeft
                              ? Side::Left
                              : Side::Right;
        const auto sources = fab.pad_in_sources(side, e.r, e.c);
        ASSERT_GE(e.sel, 1);
        ASSERT_LE(static_cast<std::size_t>(e.sel), sources.size());
        EXPECT_EQ(sources[e.sel - 1], node);
        EXPECT_EQ(e.to, fab.pad_in_node(side, e.r, e.c));
      } else {
        const MuxDef* mux = fab.mux_for_dest(e.dest_local);
        ASSERT_NE(mux, nullptr);
        ASSERT_GE(e.sel, 1);
        ASSERT_LE(static_cast<std::size_t>(e.sel), mux->sources.size());
        const auto src =
            fab.resolve_source(e.r, e.c, mux->sources[e.sel - 1]);
        ASSERT_TRUE(src.has_value());
        EXPECT_EQ(*src, node);
      }
      ++checked;
      if (checked > 20000) return;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST_P(GraphInvariants, SlicePinsReachNeighbouringImux) {
  // Connectivity property: from any slice output pin, some IMUX of every
  // tile within a 3-tile radius is reachable (the router's bread and
  // butter). BFS with a depth cap.
  const Device& dev = Device::get(GetParam());
  const RoutingGraph& g = RoutingGraph::get(dev);
  const RoutingFabric& fab = dev.fabric();
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const int r = static_cast<int>(rng.uniform(dev.rows()));
    const int c = static_cast<int>(rng.uniform(dev.cols()));
    const std::size_t src = fab.tile_wire_node(r, c, pin_local(0, SlicePin::X));
    std::vector<std::uint8_t> seen(g.num_nodes(), 0);
    std::vector<std::size_t> frontier = {src};
    seen[src] = 1;
    for (int depth = 0; depth < 12 && !frontier.empty(); ++depth) {
      std::vector<std::size_t> next;
      for (const std::size_t n : frontier) {
        for (const auto& e : g.out_edges(n)) {
          if (!seen[e.to]) {
            seen[e.to] = 1;
            next.push_back(e.to);
          }
        }
      }
      frontier = std::move(next);
    }
    for (int dr = -3; dr <= 3; ++dr) {
      for (int dc = -3; dc <= 3; ++dc) {
        const int rr = r + dr, cc = c + dc;
        if (rr < 0 || rr >= dev.rows() || cc < 0 || cc >= dev.cols()) continue;
        bool any = false;
        for (int s = 0; s < 2 && !any; ++s) {
          for (int p = 0; p < kImuxPinsPerSlice - 1; ++p) {  // skip CLK
            if (seen[fab.tile_wire_node(rr, cc,
                                        imux_local(s, static_cast<ImuxPin>(p)))]) {
              any = true;
              break;
            }
          }
        }
        EXPECT_TRUE(any) << "no IMUX of (" << rr << "," << cc
                         << ") reachable from pin at (" << r << "," << c << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, GraphInvariants,
                         ::testing::Values("XCV50", "XCV300"));

// --- Placer constraint fuzz -----------------------------------------------------

TEST(PlacerFuzz, RandomAreaGroupsAreHonoured) {
  const Device& dev = Device::get("XCV50");
  Rng rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    Netlist top("fuzz");
    const auto merged = top.merge_module(
        netlib::make_lfsr(4 + static_cast<int>(rng.uniform(8))), "m");
    for (const auto& [port, net] : merged.outputs) {
      top.add_obuf("ob_" + port, port, net);
    }
    // Random region somewhere in the middle of the device.
    const int c0 = 2 + static_cast<int>(rng.uniform(10));
    const int w = 2 + static_cast<int>(rng.uniform(6));
    const Region reg{0, c0, dev.rows() - 1, std::min(c0 + w, dev.cols() - 2)};

    PlacedDesign d(dev, std::move(top));
    pack_design(d);
    PlacementConstraints cons;
    cons.area_groups["m"] = reg;
    PlacerOptions popt;
    popt.seed = static_cast<std::uint64_t>(trial) + 1;
    place_design(d, cons, popt);
    for (std::size_t i = 0; i < d.slices.size(); ++i) {
      const SliceSite s = d.slice_sites[i];
      if (d.slices[i].partition == "m") {
        EXPECT_TRUE(reg.contains({s.r, s.c}));
      } else {
        EXPECT_FALSE(reg.contains({s.r, s.c}));
      }
    }
  }
}

// --- Readback verification -----------------------------------------------------

TEST(ReadbackVerify, DetectsTamperedBoardState) {
  const Device& dev = Device::get("XCV50");
  const auto slots = scenarios::fig1_slots(dev);
  auto base = scenarios::build_base(dev, slots);
  const BaseFlowResult flow = run_base_flow(dev, base.top, base.specs, {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream base_bit = generate_full_bitstream(mem);

  Jpg tool(base_bit);
  UcfData ucf;
  ucf.area_group_ranges["AG"] = slots[0].region;
  const ModuleFlowResult mod = run_module_flow(
      dev, scenarios::variant(slots[0], "match1").netlist,
      flow.interface_of("u_match"));
  const auto update = tool.generate_partial_from_text(
      write_xdl(*mod.design), write_ucf(ucf, dev));

  SimBoard board(dev);
  board.send_config(base_bit.words);
  tool.connect(&board);
  tool.download(StreamSource::of(update.partial.words));
  EXPECT_EQ(tool.verify_via_readback(update), 0u);

  // Tamper with one frame on the "board" by loading a poisoned write.
  {
    ConfigMemory poison(dev);
    ConfigPort scratch(poison);  // build a tiny FAR+FDRI sequence
    BitstreamWriter w(dev);
    w.begin();
    w.write_cmd(Command::RCRC);
    w.write_cmd(Command::WCFG);
    const int major = slots[0].region.clb_majors(dev)[0];
    w.write_reg(ConfigReg::FAR, dev.frames().encode_far(
                                    {0, static_cast<std::uint32_t>(major), 3}));
    poison.frame(dev.frames().frame_index(major, 3)).set(40, true);
    w.write_frames(poison, dev.frames().frame_index(major, 3), 1);
    w.write_crc();
    w.write_cmd(Command::LFRM);
    board.send_config(w.finish().words);
  }
  EXPECT_GE(tool.verify_via_readback(update), 1u);
}

TEST(ReadbackVerify, RequiresBoard) {
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  Jpg tool(generate_full_bitstream(mem));
  Jpg::PartialResult dummy;
  EXPECT_THROW((void)tool.verify_via_readback(dummy), JpgError);
}

}  // namespace
}  // namespace jpg
