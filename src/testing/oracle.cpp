#include "testing/oracle.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "cbits/cbits.h"
#include "core/jpg.h"
#include "core/relocate.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "netlist/drc.h"
#include "sim/bitstream_sim.h"
#include "sim/netlist_sim.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_parser.h"
#include "xdl/xdl_writer.h"

namespace jpg::testing {
namespace {

// Control-flow exceptions internal to run_oracle: the first violated (or
// infeasible) property unwinds straight to the top-level catch.
struct PropFail {
  std::string property;
  std::string detail;
};
struct PropInfeasible {
  std::string property;
  std::string detail;
};

std::string join_lines(const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    os << (i != 0 ? "; " : "") << lines[i];
  }
  return os.str();
}

/// Pad numbers of every placed port of a base design.
std::map<std::string, int> pad_map(const PlacedDesign& design) {
  std::map<std::string, int> m;
  for (std::size_t i = 0; i < design.iob_cells.size(); ++i) {
    m[design.netlist().cell(design.iob_cells[i]).port] =
        design.device().pad_number(design.iob_sites[i]);
  }
  return m;
}

int pad_of(const std::map<std::string, int>& pads, const std::string& port,
           const std::string& property) {
  const auto it = pads.find(port);
  if (it == pads.end()) {
    throw PropFail{property, "port " + port + " has no placed pad"};
  }
  return it->second;
}

/// Drives identical random stimulus into the hardware-model sim and the
/// golden netlist sim and demands pad-for-pad agreement every cycle.
void compare_traces(const std::string& property, BitstreamSim& hw,
                    NetlistSim& golden, const std::map<std::string, int>& pads,
                    int cycles, Rng rng) {
  const std::vector<std::string> ins = golden.netlist().input_ports();
  const std::vector<std::string> outs = golden.netlist().output_ports();
  for (int cyc = 0; cyc < cycles; ++cyc) {
    for (const std::string& p : ins) {
      const bool v = rng.chance(0.5);
      golden.set_input(p, v);
      hw.set_pad(pad_of(pads, p, property), v);
    }
    for (const std::string& p : outs) {
      const bool got = hw.get_pad(pad_of(pads, p, property));
      const bool want = golden.get_output(p);
      if (got != want) {
        throw PropFail{property, "port " + p + " diverges at cycle " +
                                     std::to_string(cyc) + " (device=" +
                                     (got ? "1" : "0") + " golden=" +
                                     (want ? "1" : "0") + ")"};
      }
    }
    golden.step();
    hw.step();
  }
}

/// write -> parse -> write must be a fixpoint (generation 2 == generation 3;
/// the first text may normalise, after that nothing may drift).
void check_xdl_fixpoint(const std::string& property, const std::string& text1) {
  const auto r1 = placed_design_from_xdl(parse_xdl(text1));
  const std::string text2 = write_xdl(*r1);
  const auto r2 = placed_design_from_xdl(parse_xdl(text2));
  const std::string text3 = write_xdl(*r2);
  if (text2 != text3) {
    throw PropFail{property, "write/parse/write is not a fixpoint"};
  }
}

ConfigMemory plane_of(const Device& dev, const PlacedDesign& design) {
  ConfigMemory mem(dev);
  CBits cb(mem);
  design.apply(cb);
  return mem;
}

/// Same-shape region disjoint from `a` (the leftmost one), if the device
/// has room for a second copy.
std::optional<Region> disjoint_band(const Device& dev, const Region& a) {
  const int w = a.width();
  for (int c0 = 0; c0 + w <= dev.cols(); ++c0) {
    const Region b{a.r0, c0, a.r1, c0 + w - 1};
    if (!b.overlaps(a)) return b;
  }
  return std::nullopt;
}

/// CLB columns carrying no configuration at all in `plane`.
std::vector<int> empty_columns(const Device& dev, const ConfigMemory& plane) {
  const FrameMap& fm = dev.frames();
  std::vector<int> cols;
  for (int c = 0; c < dev.cols(); ++c) {
    const int major = fm.major_of_clb_col(c);
    bool empty = true;
    for (int minor = 0; minor < fm.frames_in_major(major) && empty; ++minor) {
      empty = plane.frame(fm.frame_index(major, minor)).popcount() == 0;
    }
    if (empty) cols.push_back(c);
  }
  return cols;
}

void oracle_impl(const GeneratedDesign& design, const OracleOptions& opt,
                 OracleResult& res, std::size_t& checked) {
  const Device& dev = Device::get(design.part);

  // --- drc -------------------------------------------------------------------
  ++checked;
  const AssembledTop base_at = assemble_top(design);
  {
    const DrcReport rep = run_drc(base_at.top);
    if (!rep.ok()) throw PropFail{"drc", join_lines(rep.errors)};
  }

  // --- implement_base --------------------------------------------------------
  ++checked;
  FlowOptions fopt;
  fopt.seed = opt.flow_seed;
  std::unique_ptr<BaseFlowResult> base;
  try {
    base = std::make_unique<BaseFlowResult>(
        run_base_flow(dev, base_at.top, base_at.flow_partitions, fopt));
  } catch (const DeviceError& e) {
    throw PropInfeasible{"implement_base", e.what()};
  } catch (const JpgError& e) {
    throw PropFail{"implement_base", e.what()};
  }
  res.base_xdl = write_xdl(*base->design);

  // --- xdl_roundtrip_base ----------------------------------------------------
  ConfigMemory mem = plane_of(dev, *base->design);
  if (opt.check_xdl) {
    ++checked;
    try {
      check_xdl_fixpoint("xdl_roundtrip_base", res.base_xdl);
      const auto reparsed = placed_design_from_xdl(parse_xdl(res.base_xdl));
      if (!(plane_of(dev, *reparsed) == mem)) {
        throw PropFail{"xdl_roundtrip_base",
                       "re-parsed design configures a different plane"};
      }
    } catch (const JpgError& e) {
      throw PropFail{"xdl_roundtrip_base", e.what()};
    }
  }

  // --- bitgen_roundtrip ------------------------------------------------------
  ++checked;
  const Bitstream base_bit = generate_full_bitstream(mem);
  ConfigMemory loaded(dev);
  try {
    ConfigPort port(loaded);
    port.load(base_bit);
  } catch (const JpgError& e) {
    throw PropFail{"bitgen_roundtrip", e.what()};
  }
  if (!(loaded == mem)) {
    throw PropFail{"bitgen_roundtrip",
                   "ConfigPort-loaded plane differs from BitGen input"};
  }

  // --- extract_sim_base ------------------------------------------------------
  ++checked;
  const std::map<std::string, int> pads = pad_map(*base->design);
  try {
    BitstreamSim hw(loaded);
    NetlistSim golden(base_at.top);
    compare_traces("extract_sim_base", hw, golden, pads, opt.cycles,
                   Rng(opt.stimulus_seed).split(1));
  } catch (const PropFail&) {
    throw;
  } catch (const JpgError& e) {
    throw PropFail{"extract_sim_base", e.what()};
  }

  if (!opt.check_partial || design.partitions.empty()) return;

  // --- partial-swap property family -----------------------------------------
  Jpg tool(base_bit);
  // Per partition: the partial + composed reference of the variant used by
  // the cross-partition and board-level properties (the last variant, which
  // differs from the base content whenever the pool has more than one).
  struct SwapArtifacts {
    Jpg::PartialResult partial;
    ConfigMemory composed;
    std::size_t variant = 0;
  };
  std::vector<std::optional<SwapArtifacts>> swap_art(design.partitions.size());

  for (std::size_t pi = 0; pi < design.partitions.size(); ++pi) {
    const GeneratedPartition& p = design.partitions[pi];
    const std::string tag = "/" + p.name;
    for (std::size_t v = 0; v < p.variants.size(); ++v) {
      const std::string vtag = tag + "_v" + std::to_string(v);

      ++checked;  // module_flow
      ModuleFlowResult mod;
      FlowOptions mopt;
      mopt.seed = opt.flow_seed + 100 * pi + v + 1;
      try {
        mod = run_module_flow(dev, p.variants[v], base->interface_of(p.name),
                              mopt);
      } catch (const DeviceError& e) {
        throw PropInfeasible{"module_flow" + vtag, e.what()};
      } catch (const JpgError& e) {
        throw PropFail{"module_flow" + vtag, e.what()};
      }
      const std::string xdl = write_xdl(*mod.design);

      if (opt.check_xdl) {
        ++checked;
        try {
          check_xdl_fixpoint("xdl_roundtrip_module" + vtag, xdl);
        } catch (const JpgError& e) {
          throw PropFail{"xdl_roundtrip_module" + vtag, e.what()};
        }
      }

      ++checked;  // partial_scoped
      UcfData ucf;
      ucf.area_group_ranges["AG_" + p.name] = p.region;
      Jpg::PartialResult pres;
      try {
        pres = tool.generate_partial_from_text(xdl, write_ucf(ucf, dev));
      } catch (const JpgError& e) {
        throw PropFail{"partial_scoped" + vtag, e.what()};
      }
      const std::vector<int> majors = p.region.clb_majors(dev);
      for (const std::size_t f : pres.frames) {
        const auto addr = dev.frames().address_of_index(f);
        if (std::find(majors.begin(), majors.end(),
                      static_cast<int>(addr.major)) == majors.end()) {
          throw PropFail{"partial_scoped" + vtag,
                         "frame " + std::to_string(f) +
                             " outside region columns"};
        }
      }

      ++checked;  // partial_equals_full
      const ConfigMemory composed =
          tool.generator().compose(plane_of(dev, *mod.design), p.region);
      ConfigMemory plane(dev);
      try {
        ConfigPort port(plane);
        port.load(base_bit);
        port.load(pres.partial);
      } catch (const JpgError& e) {
        throw PropFail{"partial_equals_full" + vtag, e.what()};
      }
      if (!(plane == composed)) {
        throw PropFail{"partial_equals_full" + vtag,
                       "port-loaded plane differs from frame-level compose"};
      }

      ++checked;  // partial_swap_sim
      std::vector<std::size_t> choice(design.partitions.size(), 0);
      choice[pi] = v;
      const AssembledTop gold_at = assemble_top(design, choice);
      try {
        BitstreamSim hw(plane);
        NetlistSim golden(gold_at.top);
        compare_traces("partial_swap_sim" + vtag, hw, golden, pads, opt.cycles,
                       Rng(opt.stimulus_seed).split(2 + pi * 16 + v));
      } catch (const PropFail&) {
        throw;
      } catch (const JpgError& e) {
        throw PropFail{"partial_swap_sim" + vtag, e.what()};
      }

      swap_art[pi] = SwapArtifacts{std::move(pres), composed, v};
    }
  }

  // --- swap_order_independent ------------------------------------------------
  if (design.partitions.size() >= 2 && swap_art[0] && swap_art[1]) {
    ++checked;
    const Bitstream& pa = swap_art[0]->partial.partial;
    const Bitstream& pb = swap_art[1]->partial.partial;
    ConfigMemory ab(dev), ba(dev);
    try {
      ConfigPort port_ab(ab);
      port_ab.load(base_bit);
      port_ab.load(pa);
      port_ab.load(pb);
      ConfigPort port_ba(ba);
      port_ba.load(base_bit);
      port_ba.load(pb);
      port_ba.load(pa);
    } catch (const JpgError& e) {
      throw PropFail{"swap_order_independent", e.what()};
    }
    if (!(ab == ba)) {
      throw PropFail{"swap_order_independent",
                     "final plane depends on partial load order"};
    }
  }

  // --- dynamic_state ---------------------------------------------------------
  std::vector<std::size_t> swap_choice(design.partitions.size(), 0);
  if (opt.check_dynamic_state && swap_art[0]) {
    ++checked;
    swap_choice[0] = swap_art[0]->variant;
    try {
      SimBoard board(dev);
      board.send_config(base_bit.words);
      if (!board.configured()) {
        throw PropFail{"dynamic_state", "board did not configure from base"};
      }
      NetlistSim golden_old(base_at.top);
      Rng rng = Rng(opt.stimulus_seed).split(3);
      const std::vector<std::string> ins = base_at.top.input_ports();
      const std::vector<std::string> outs = base_at.top.output_ports();
      std::map<std::string, bool> last_in;
      const int pre = std::max(1, opt.cycles / 2);
      for (int cyc = 0; cyc < pre; ++cyc) {
        for (const std::string& p : ins) {
          const bool v = rng.chance(0.5);
          golden_old.set_input(p, v);
          board.set_pin(pad_of(pads, p, "dynamic_state"), v);
          last_in[p] = v;
        }
        for (const std::string& p : outs) {
          if (board.get_pin(pad_of(pads, p, "dynamic_state")) !=
              golden_old.get_output(p)) {
            throw PropFail{"dynamic_state", "pre-swap divergence on " + p +
                                                " at cycle " +
                                                std::to_string(cyc)};
          }
        }
        golden_old.step();
        board.step_clock(1);
      }

      // Swap partition u1 live, then track the golden model of the new
      // configuration: the swapped partition's FFs restart at INIT (their
      // columns were rewritten), while every FF outside those columns —
      // static logic AND the other, untouched partitions — carries its
      // state (by cell name — assembly names are stable across variant
      // choices).
      const std::string& swapped = design.partitions[0].name;
      tool.connect(&board);
      tool.download(StreamSource::of(swap_art[0]->partial.partial.words));
      const AssembledTop new_at = assemble_top(design, swap_choice);
      NetlistSim golden_new(new_at.top);
      for (CellId id = 0; id < new_at.top.num_cells(); ++id) {
        const Cell& c = new_at.top.cell(id);
        if (c.kind != CellKind::Dff || c.partition == swapped) continue;
        const auto old_id = base_at.top.find_cell(c.name);
        if (old_id.has_value()) {
          golden_new.set_ff_state(id, golden_old.ff_state(*old_id));
        }
      }
      for (const auto& [p, v] : last_in) golden_new.set_input(p, v);
      for (int cyc = 0; cyc < std::max(1, opt.cycles / 2); ++cyc) {
        for (const std::string& p : new_at.top.output_ports()) {
          if (board.get_pin(pad_of(pads, p, "dynamic_state")) !=
              golden_new.get_output(p)) {
            throw PropFail{"dynamic_state", "post-swap divergence on " + p +
                                                " at cycle " +
                                                std::to_string(cyc)};
          }
        }
        for (const std::string& p : ins) {
          const bool v = rng.chance(0.5);
          golden_new.set_input(p, v);
          board.set_pin(pad_of(pads, p, "dynamic_state"), v);
        }
        golden_new.step();
        board.step_clock(1);
      }
      tool.connect(nullptr);
    } catch (const PropFail&) {
      throw;
    } catch (const JpgError& e) {
      throw PropFail{"dynamic_state", e.what()};
    }
  }

  // --- fault_download --------------------------------------------------------
  if (opt.fault_tier && swap_art[0]) {
    ++checked;
    try {
      SimBoard board(dev);
      board.send_config(base_bit.words);
      FaultProfile prof;
      prof.word_flip = 0.02;
      prof.word_drop = 0.005;
      prof.readback_flip = 0.01;
      prof.fault_budget = 6;
      FaultyBoard faulty(board, prof, opt.fault_seed);
      Jpg ftool(base_bit);
      ftool.connect(&faulty);
      const DownloadReport rep = ftool.download_verified(
          StreamSource::of(swap_art[0]->partial.partial.words));
      if (rep.status != DownloadStatus::Success) {
        throw PropFail{"fault_download",
                       "verified download did not converge: " + rep.summary()};
      }
      if (!(board.config() == swap_art[0]->composed)) {
        throw PropFail{"fault_download",
                       "board plane differs from the update after a verified "
                       "download"};
      }
    } catch (const PropFail&) {
      throw;
    } catch (const JpgError& e) {
      throw PropFail{"fault_download", e.what()};
    }
  }

  // --- relocation property family --------------------------------------------
  // Four properties over the PbitRelocator (DESIGN.md §5i):
  //   reloc_reject_shape  a geometry-incompatible target is rejected with the
  //                       typed RelocError, never silently mis-relocated;
  //   reloc_reject        a routed module always escapes its region through
  //                       its interface nets, so containment must report
  //                       crossings and relocate() must throw FootprintEscape;
  //   reloc_equivalence   force-relocating to a compatible band B yields a
  //                       stream that port-loads to exactly compose-at-B, and
  //                       every resource (LUTs, muxes) reads back at B what it
  //                       read at A — the resource map agrees with the blit;
  //   reloc_swap_sim      a *contained* (local-logic) module relocated into a
  //                       base-free column leaves the running base design's
  //                       traces untouched — the soundness claim behind the
  //                       containment gate.
  if (opt.check_relocation && swap_art[0]) {
    const PbitRelocator reloc(tool.generator());
    const Region a = design.partitions[0].region;
    const Bitstream& pbit = swap_art[0]->partial.partial;

    ++checked;  // reloc_reject_shape
    {
      // One column wider (or, when flush against the edge, out of bounds):
      // incompatible either way, and both must reject with the typed error.
      Region bad = a;
      ++bad.c1;
      bool typed = false;
      try {
        (void)reloc.relocate(pbit, a, bad);
      } catch (const RelocError&) {
        typed = true;
      } catch (const JpgError& e) {
        throw PropFail{"reloc_reject_shape",
                       std::string("untyped rejection: ") + e.what()};
      }
      if (!typed) {
        throw PropFail{"reloc_reject_shape",
                       "incompatible target accepted: " + bad.to_string()};
      }
      if (reloc.check_shape(a, bad).shape_ok) {
        throw PropFail{"reloc_reject_shape",
                       "check_shape accepts an incompatible target"};
      }
    }

    const std::optional<Region> band = disjoint_band(dev, a);
    if (band) {
      const ConfigMemory decoded = reloc.decode(pbit, a);

      ++checked;  // reloc_reject
      {
        const RelocCompat compat = reloc.check(decoded, a, *band);
        if (compat.contained()) {
          throw PropFail{"reloc_reject",
                         "module with interface routing reported contained"};
        }
        bool typed = false;
        try {
          (void)reloc.relocate(pbit, a, *band);
        } catch (const RelocError& e) {
          if (e.kind() != RelocError::Kind::FootprintEscape) {
            throw PropFail{"reloc_reject",
                           std::string("wrong rejection kind: ") + e.what()};
          }
          typed = true;
        } catch (const JpgError& e) {
          throw PropFail{"reloc_reject",
                         std::string("untyped rejection: ") + e.what()};
        }
        if (!typed) {
          throw PropFail{"reloc_reject",
                         "escaping module relocated without FootprintEscape"};
        }
      }

      ++checked;  // reloc_equivalence
      try {
        RelocOptions force;
        force.require_containment = false;
        const PartialGenResult moved = reloc.relocate(pbit, a, *band, force);
        const ConfigMemory translated = reloc.translate(decoded, a, *band,
                                                        force);
        const ConfigMemory composed_b =
            tool.generator().compose(translated, *band);
        ConfigMemory p1(dev);
        ConfigPort port(p1);
        port.load(base_bit);
        port.load(moved.bitstream);
        if (!(p1 == composed_b)) {
          throw PropFail{"reloc_equivalence",
                         "port-loaded relocated stream differs from "
                         "compose-at-" + band->to_string()};
        }
        // Resource-level invariance: what CBits read at A it must read at
        // the translated tile of B — the deterministic resource->bit map
        // agrees with the frame-window blit.
        const CBits at_a(swap_art[0]->composed);
        const CBits at_b(p1);
        const int dr = band->r0 - a.r0;
        const int dc = band->c0 - a.c0;
        const auto& muxes = dev.fabric().tile_muxes();
        for (int r = a.r0; r <= a.r1; ++r) {
          for (int c = a.c0; c <= a.c1; ++c) {
            const TileCoord t{r, c};
            const TileCoord t2{r + dr, c + dc};
            for (int slice = 0; slice < 2; ++slice) {
              const SliceSite s{r, c, slice};
              const SliceSite s2{r + dr, c + dc, slice};
              if (at_a.get_lut(s, LutSel::F) != at_b.get_lut(s2, LutSel::F) ||
                  at_a.get_lut(s, LutSel::G) != at_b.get_lut(s2, LutSel::G)) {
                throw PropFail{"reloc_equivalence",
                               "LUT content moved wrong at tile (" +
                                   std::to_string(r) + "," +
                                   std::to_string(c) + ")"};
              }
            }
            for (const MuxDef& def : muxes) {
              if (at_a.get_mux(t, def.dest_local) !=
                  at_b.get_mux(t2, def.dest_local)) {
                throw PropFail{"reloc_equivalence",
                               "mux " + local_wire_name(def.dest_local) +
                                   " moved wrong at tile (" +
                                   std::to_string(r) + "," +
                                   std::to_string(c) + ")"};
              }
            }
          }
        }
      } catch (const PropFail&) {
        throw;
      } catch (const JpgError& e) {
        throw PropFail{"reloc_equivalence", e.what()};
      }
    }

    // reloc_swap_sim: needs two base-free columns (module home + target).
    const std::vector<int> free_cols = empty_columns(dev, mem);
    if (free_cols.size() >= 2) {
      ++checked;
      try {
        const Region home{0, free_cols[0], dev.rows() - 1, free_cols[0]};
        const Region target{0, free_cols[1], dev.rows() - 1, free_cols[1]};
        // Local-logic module: LUT contents only, no routing — contained by
        // construction, so the containment gate must let it through.
        ConfigMemory modplane(dev);
        CBits mcb(modplane);
        for (int r = 0; r < dev.rows(); ++r) {
          mcb.set_lut(SliceSite{r, home.c0, 0}, LutSel::F,
                      static_cast<std::uint16_t>(0xA5A5u ^ (r * 257)));
        }
        const PartialGenResult at_home =
            tool.generator().generate(modplane, home);
        const PartialGenResult moved =
            reloc.relocate(at_home.bitstream, home, target);

        SimBoard board(dev);
        board.send_config(base_bit.words);
        board.send_config(moved.bitstream.words);
        const ConfigMemory expected = tool.generator().compose(
            reloc.translate(reloc.decode(at_home.bitstream, home), home,
                            target),
            target);
        if (!(board.config() == expected)) {
          throw PropFail{"reloc_swap_sim",
                         "board plane differs from composed relocation"};
        }
        NetlistSim golden(base_at.top);
        compare_traces("reloc_swap_sim", board.sim(), golden, pads, opt.cycles,
                       Rng(opt.stimulus_seed).split(4));
      } catch (const PropFail&) {
        throw;
      } catch (const JpgError& e) {
        throw PropFail{"reloc_swap_sim", e.what()};
      }
    }
  }
}

}  // namespace

std::string_view oracle_status_name(OracleStatus s) {
  switch (s) {
    case OracleStatus::Pass: return "pass";
    case OracleStatus::Fail: return "FAIL";
    case OracleStatus::Infeasible: return "infeasible";
  }
  return "?";
}

OracleResult run_oracle(const GeneratedDesign& design,
                        const OracleOptions& opt) {
  OracleResult res;
  std::size_t checked = 0;
  try {
    oracle_impl(design, opt, res, checked);
    res.status = OracleStatus::Pass;
  } catch (const PropFail& f) {
    res.status = OracleStatus::Fail;
    res.property = f.property;
    res.detail = f.detail;
  } catch (const PropInfeasible& f) {
    res.status = OracleStatus::Infeasible;
    res.property = f.property;
    res.detail = f.detail;
  } catch (const std::exception& e) {
    res.status = OracleStatus::Fail;
    res.property = "internal";
    res.detail = e.what();
  }
  res.properties_checked = checked;
  return res;
}

}  // namespace jpg::testing
