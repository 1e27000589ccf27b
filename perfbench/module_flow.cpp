// module_flow — the paper's designer path (op = build one module).
//
// XCV300, Figure-4 floorplan (three slots with 3 + 3 + 4 variants). Set-up
// implements the base design and its complete bitstream and initialises the
// JPG tool from it. Each op implements the next (slot, variant) pair with a
// fresh flow seed inside its region only, writes and re-parses the XDL/UCF
// pair the real tool consumes, and generates the partial bitstream. The
// router runs at its default width; the service, board and scheduler layers
// stay idle, so this workload isolates pnr, xdl/ucf and core.
#include <memory>
#include <set>
#include <utility>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "cbits/cbits.h"
#include "core/jpg.h"
#include "harness.h"
#include "scenarios.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_parser.h"
#include "xdl/xdl_writer.h"

namespace perfbench {
namespace {

using namespace jpg;

/// Ops after which peak_rss_mb is read (see set_rss_mark).
constexpr std::uint64_t kRssMarkOps = 1000;

struct Env {
  std::vector<scenarios::SlotDef> slots;
  BaseFlowResult base;
  std::unique_ptr<Jpg> tool;
  std::vector<UcfData> ucf;  ///< one area group per slot
};

std::unique_ptr<Env> set_up(const Device& dev) {
  auto env = std::make_unique<Env>();
  env->slots = scenarios::fig4_slots(dev);
  const scenarios::ScenarioBase sb = scenarios::build_base(dev, env->slots);
  env->base = run_base_flow(dev, sb.top, sb.specs, {});
  ConfigMemory mem(dev);
  CBits cb(mem);
  env->base.design->apply(cb);
  env->tool = std::make_unique<Jpg>(generate_full_bitstream(mem));
  for (const scenarios::SlotDef& s : env->slots) {
    UcfData u;
    u.area_group_ranges["AG_" + s.partition] = s.region;
    env->ucf.push_back(std::move(u));
  }
  return env;
}

/// Independent check of one partial bitstream: loaded through a ConfigPort
/// onto a copy of the base, the region's row window must hold exactly the
/// module design applied with CBits and every other bit must equal the base.
std::string check_partial(const Env& env, const Jpg::PartialResult& res,
                          const PlacedDesign& design, const Region& region) {
  const Device& dev = env.tool->device();
  const ConfigMemory& base = env.tool->base_config();
  if (!(res.region == region)) return "partial targets the wrong region";
  ConfigMemory loaded = base;
  try {
    ConfigPort port(loaded);
    port.load(res.partial);
  } catch (const std::exception& e) {
    return std::string("pbit does not load: ") + e.what();
  }
  ConfigMemory module_plane(dev);
  CBits cb(module_plane);
  design.apply(cb);

  const FrameMap& fm = dev.frames();
  const std::size_t lo = fm.row_bit_base(region.r0);
  const std::size_t hi =
      lo + static_cast<std::size_t>(region.height()) * FrameMap::kBitsPerRow;
  std::set<std::size_t> in_region;
  for (const int major : region.clb_majors(dev)) {
    for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
      in_region.insert(fm.frame_index(major, minor));
    }
  }
  for (std::size_t f = 0; f < loaded.num_frames(); ++f) {
    const bool region_frame = in_region.count(f) != 0;
    BitVector want = base.frame(f);
    if (region_frame) want.copy_range(module_plane.frame(f), lo, hi - lo);
    if (loaded.frame(f) != want) {
      return "frame " + std::to_string(f) +
             (region_frame ? " differs from the base with the module's rows"
                           : " outside the region changed");
    }
  }
  return "";
}

struct LayerSums {
  double pack_s = 0, place_s = 0, route_s = 0;
  double iterations = 0, spec_rounds = 0, spec_retries = 0;
  double xdl_bytes = 0, cbits_calls = 0, frames = 0;
  std::uint64_t port_words = 0;
};

struct Phase {
  PhaseTotals totals;
  LayerSums layers;
  PbitCacheStats cache_before, cache_after;
};

Phase run_phase(Env& env, const Options& opt, Rng& rng,
                const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
                std::uint64_t& next_op, double seconds, Spans& spans,
                Report& r, Digest& ops_digest, Digest& out_digest) {
  const Device& dev = env.tool->device();
  telemetry::Counter& port_words =
      telemetry::MetricsRegistry::global().counter("port.words_loaded");
  Phase ph;
  ph.cache_before = env.tool->generator().cache_stats();
  const std::uint64_t first_op = next_op;
  while (opt.ops != 0 ? next_op - first_op < opt.ops
                      : ph.totals.wall_s < seconds) {
    const std::uint64_t op = next_op++;
    const auto [si, vi] = pairs[op % pairs.size()];
    const scenarios::SlotDef& slot = env.slots[si];
    FlowOptions fo;
    fo.seed = rng.next();
    ops_digest.add(si);
    ops_digest.add(vi);
    ops_digest.add(fo.seed);

    const std::uint32_t root = spans.reserve();
    const std::uint64_t words0 = port_words.value();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    ++r.attempted;
    ModuleFlowResult mod;
    Jpg::PartialResult res;
    std::string xdl_text;
    try {
      {
        ScopedSpan s(spans, "pnr.run_module_flow", op, root);
        mod = run_module_flow(dev, slot.variants[vi].netlist,
                              env.base.interface_of(slot.partition), fo);
      }
      std::string ucf_text;
      {
        ScopedSpan s(spans, "xdl.write_xdl", op, root);
        xdl_text = write_xdl(*mod.design);
      }
      {
        ScopedSpan s(spans, "ucf.write_ucf", op, root);
        ucf_text = write_ucf(env.ucf[si], dev);
      }
      XdlDesign xdl;
      UcfData ucf;
      {
        ScopedSpan s(spans, "xdl.parse_xdl", op, root);
        xdl = parse_xdl(xdl_text, "module.xdl");
      }
      {
        ScopedSpan s(spans, "ucf.parse_ucf", op, root);
        ucf = parse_ucf(ucf_text, dev, "module.ucf");
      }
      {
        ScopedSpan s(spans, "core.generate_partial", op, root);
        res = env.tool->generate_partial(xdl, ucf);
      }
    } catch (const std::exception& e) {
      // A flow that throws is a broken program, not a slow one: stop here.
      ++r.failed;
      r.fail("op " + std::to_string(op) + ": " + e.what());
      break;
    }
    const std::uint64_t t1 = now_ns();
    ph.totals.add(static_cast<double>(t1 - t0) * 1e-6,
                  static_cast<double>(t1 - t0) * 1e-9, process_cpu_s() - cpu0);
    ph.layers.port_words += port_words.value() - words0;
    spans.fill(root, "op", op, 0, t0, t1);

    LayerSums& l = ph.layers;
    l.pack_s += mod.timings.pack_s;
    l.place_s += mod.timings.place_s;
    l.route_s += mod.timings.route_s;
    l.iterations += mod.route_stats.iterations;
    l.spec_rounds += static_cast<double>(mod.route_stats.spec_rounds);
    l.spec_retries += static_cast<double>(mod.route_stats.spec_retries);
    l.xdl_bytes += static_cast<double>(xdl_text.size());
    l.cbits_calls += static_cast<double>(res.cbits_calls);
    l.frames += static_cast<double>(res.frames.size());

    // Outside the timed interval: digest and independent check.
    if (static_cast<long>(op) == opt.corrupt_op && !res.partial.words.empty()) {
      res.partial.words[res.partial.words.size() / 2] ^= 1u;
    }
    out_digest.add_words(res.partial.words);
    const std::string why = check_partial(env, res, *mod.design, slot.region);
    if (!why.empty()) {
      ++r.failed;
      r.fail("op " + std::to_string(op) + ": " + why);
    }
  }
  ph.totals.finish();
  ph.cache_after = env.tool->generator().cache_stats();
  return ph;
}

void put_layers(Report& r, const Phase& ph, const Spans& spans) {
  const double n = at_least_one(ph.totals.ops);
  const LayerSums& l = ph.layers;
  r.per_layer["pnr.pack_ms"] = l.pack_s * 1e3 / n;
  r.per_layer["pnr.place_ms"] = l.place_s * 1e3 / n;
  r.per_layer["pnr.route_ms"] = l.route_s * 1e3 / n;
  r.per_layer["pnr.route_iterations"] = l.iterations / n;
  r.per_layer["pnr.spec_rounds"] = l.spec_rounds / n;
  r.per_layer["pnr.spec_retries"] = l.spec_retries / n;
  const auto self = spans.self_ms();
  const auto self_of = [&self, n](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / n;
  };
  r.per_layer["xdl.write_ms"] = self_of("xdl.write_xdl");
  r.per_layer["xdl.parse_ms"] = self_of("xdl.parse_xdl");
  r.per_layer["xdl.bytes_per_op"] = l.xdl_bytes / n;
  r.per_layer["ucf.parse_ms"] = self_of("ucf.parse_ucf");
  r.per_layer["core.generate_ms"] = self_of("core.generate_partial");
  r.per_layer["core.cbits_calls_per_op"] = l.cbits_calls / n;
  r.per_layer["core.frames_per_op"] = l.frames / n;
  r.per_layer["core.pbit_cache_hit_rate"] =
      cache_hit_rate(ph.cache_before, ph.cache_after);
  r.per_layer["bitstream.port_words_loaded_per_op"] =
      static_cast<double>(l.port_words) / n;
  r.per_layer["op.glue_self_ms"] = self_of("op");
  r.per_layer["trace.spans_per_op"] = static_cast<double>(spans.size()) / n;
}

}  // namespace

void run_module_flow(const Options& opt, Report& r) {
  double setup_s = 0;
  const std::unique_ptr<Env> env = set_up_repeatedly(
      [] { return set_up(Device::get("XCV300")); }, setup_s);

  Rng rng(opt.seed);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t s = 0; s < env->slots.size(); ++s) {
    for (std::size_t v = 0; v < env->slots[s].variants.size(); ++v) {
      pairs.emplace_back(s, v);
    }
  }
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.uniform(i)]);
  }

  Digest ops_digest, out_digest;
  std::uint64_t next_op = 0;
  set_rss_mark(kRssMarkOps);
  run_schedule(
      opt, r, setup_s,
      [&](double seconds, Spans& spans) {
        return run_phase(*env, opt, rng, pairs, next_op, seconds, spans, r,
                         ops_digest, out_digest);
      },
      [&r](const Phase& traced, const Spans& spans) {
        put_layers(r, traced, spans);
      });
  r.info["ops_digest"] = ops_digest.hex();
  r.info["output_digest"] = out_digest.hex();
}

}  // namespace perfbench
