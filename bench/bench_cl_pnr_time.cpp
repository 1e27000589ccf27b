// CL-PNR — §2.1/§4.1 claim: "The overall run time for CAD tools to complete
// the mapping, placement and routing will be shorter as we are dealing with
// a smaller area of logic. ... the physical-design time involved in creating
// partial bitstreams ... is significantly less than that for the complete
// bitstream."
//
// Measures the full-design flow against the constrained module-only flow
// (plain and guided) across devices, and prints per-stage timings.
#include <benchmark/benchmark.h>

#include <cctype>

#include "bench_util.h"
#include "scenarios.h"

namespace jpg {
namespace {

struct Prepared {
  scenarios::ScenarioBase base;
  std::unique_ptr<BaseFlowResult> flow;
};

Prepared& prepared(const Device& dev) {
  static std::map<std::string, Prepared> cache;
  auto it = cache.find(dev.spec().name);
  if (it == cache.end()) {
    Prepared p;
    p.base = scenarios::build_base(dev, scenarios::fig4_slots(dev));
    p.flow = std::make_unique<BaseFlowResult>(
        run_base_flow(dev, p.base.top, p.base.specs, {}));
    it = cache.emplace(dev.spec().name, std::move(p)).first;
  }
  return it->second;
}

void BM_FullDesignFlow(benchmark::State& state) {
  const Device& dev = Device::get(state.range(0) == 0 ? "XCV50" : "XCV100");
  auto base = scenarios::build_base(dev, scenarios::fig4_slots(dev));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    FlowOptions opt;
    opt.seed = seed++;
    benchmark::DoNotOptimize(
        run_base_flow(dev, base.top, base.specs, opt).design->total_pips());
  }
}
BENCHMARK(BM_FullDesignFlow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ModuleOnlyFlow(benchmark::State& state) {
  const Device& dev = Device::get(state.range(0) == 0 ? "XCV50" : "XCV100");
  Prepared& p = prepared(dev);
  const auto slots = scenarios::fig4_slots(dev);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    FlowOptions opt;
    opt.seed = seed++;
    benchmark::DoNotOptimize(
        run_module_flow(dev, scenarios::variant(slots[2], "match1").netlist,
                        p.flow->interface_of("u_match"), opt)
            .design->total_pips());
  }
}
BENCHMARK(BM_ModuleOnlyFlow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ModuleOnlyFlowGuided(benchmark::State& state) {
  const Device& dev = Device::get("XCV50");
  Prepared& p = prepared(dev);
  const auto slots = scenarios::fig4_slots(dev);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    FlowOptions opt;
    opt.seed = seed++;
    opt.placer.guided = true;  // "guided floorplanning" (paper §3.2, phase 2)
    benchmark::DoNotOptimize(
        run_module_flow(dev, scenarios::variant(slots[2], "match2").netlist,
                        p.flow->interface_of("u_match"), opt)
            .design->total_pips());
  }
}
BENCHMARK(BM_ModuleOnlyFlowGuided)->Unit(benchmark::kMillisecond);

void print_pnr_series() {
  using benchutil::fmt;
  benchutil::Table t({"device", "flow", "pack ms", "place ms", "route ms",
                      "total ms", "speedup"});
  for (const char* part : {"XCV50", "XCV100", "XCV200"}) {
    const Device& dev = Device::get(part);
    (void)RoutingGraph::get(dev);  // pay the one-off graph build outside timing
    auto base = scenarios::build_base(dev, scenarios::fig4_slots(dev));
    const BaseFlowResult full = run_base_flow(dev, base.top, base.specs, {});
    const auto slots = scenarios::fig4_slots(dev);
    const ModuleFlowResult mod =
        run_module_flow(dev, scenarios::variant(slots[2], "match1").netlist,
                        full.interface_of("u_match"));
    const double full_ms = full.timings.total_s() * 1e3;
    const double mod_ms = mod.timings.total_s() * 1e3;
    t.row({part, "full design", fmt(full.timings.pack_s * 1e3),
           fmt(full.timings.place_s * 1e3), fmt(full.timings.route_s * 1e3),
           fmt(full_ms), "1.0x"});
    t.row({part, "module only", fmt(mod.timings.pack_s * 1e3),
           fmt(mod.timings.place_s * 1e3), fmt(mod.timings.route_s * 1e3),
           fmt(mod_ms), fmt(full_ms / mod_ms) + "x"});
  }
  t.print("CL-PNR: full-design vs module-only implementation time");
  std::printf("paper shape: module-only P&R is significantly faster, and the "
              "gap widens with device size.\n");
}

/// The speculative router against the in-tree seed reference algorithm
/// (RouterOptions::reference_impl), written to BENCH_pnr.json. XCV300
/// keeps continuity with earlier reports; XCV800 gives the router a rip-up
/// wave wide enough to show the gap widening with device size. Each
/// configuration takes the best of a few runs to shave scheduler noise off
/// single-shot flow timings; JPG_BENCH_SMOKE=1 drops to XCV100 with one
/// repeat so CI can validate the report shape in seconds.
void print_route_series() {
  using benchutil::fmt;
  const bool smoke = benchutil::smoke_mode();
  const std::vector<const char*> parts =
      smoke ? std::vector<const char*>{"XCV100"}
            : std::vector<const char*>{"XCV300", "XCV800"};

  benchutil::JsonReport report;
  benchutil::Table t({"device", "router", "pack ms", "place ms", "route ms",
                      "rounds", "retries", "route speedup"});
  for (const char* part : parts) {
    const Device& dev = Device::get(part);
    (void)RoutingGraph::get(dev);  // one-off graph build outside timing
    auto base = scenarios::build_base(dev, scenarios::fig4_slots(dev));
    // The bigger devices pay seconds per flow run; two repeats is enough
    // once the one-off graph build is out of the timed region.
    const int repeats = smoke ? 1 : (dev.cols() > 48 ? 2 : 3);

    auto best_flow = [&](const FlowOptions& opt) {
      BaseFlowResult best;
      for (int i = 0; i < repeats; ++i) {
        BaseFlowResult res = run_base_flow(dev, base.top, base.specs, opt);
        if (i == 0 || res.timings.route_s < best.timings.route_s) {
          best = std::move(res);
        }
      }
      return best;
    };

    std::string sec(part);
    for (char& ch : sec) ch = static_cast<char>(std::tolower(ch));
    report.set(sec, "device", std::string(part));
    report.set(sec, "host_cpus", static_cast<double>(benchutil::host_cpus()));

    FlowOptions ref_opt;
    ref_opt.router.reference_impl = true;
    const BaseFlowResult ref = best_flow(ref_opt);
    const double ref_route_ms = ref.timings.route_s * 1e3;
    report.set(sec, "route_ms_reference", ref_route_ms);
    t.row({part, "reference", fmt(ref.timings.pack_s * 1e3),
           fmt(ref.timings.place_s * 1e3), fmt(ref_route_ms), "-", "-",
           "1.0x"});

    const BaseFlowResult res = best_flow({});
    const double route_ms = res.timings.route_s * 1e3;
    const double speedup = ref_route_ms / route_ms;
    report.set(sec, "pack_ms", res.timings.pack_s * 1e3);
    report.set(sec, "place_ms", res.timings.place_s * 1e3);
    report.set(sec, "route_ms", route_ms);
    report.set(sec, "route_speedup", speedup);
    report.set(sec, "spec_rounds",
               static_cast<double>(res.route_stats.spec_rounds));
    report.set(sec, "spec_retries",
               static_cast<double>(res.route_stats.spec_retries));
    report.set(sec, "nets_rerouted",
               static_cast<double>(res.route_stats.nets_rerouted));
    t.row({part, "speculative", fmt(res.timings.pack_s * 1e3),
           fmt(res.timings.place_s * 1e3), fmt(route_ms),
           std::to_string(res.route_stats.spec_rounds),
           std::to_string(res.route_stats.spec_retries), fmt(speedup) + "x"});
  }
  t.print("CL-PNR: route phase, speculative router vs seed reference");
  benchutil::add_telemetry_section(report);
  report.write_file("BENCH_pnr.json");
}

}  // namespace
}  // namespace jpg

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (!jpg::benchutil::smoke_mode()) {
    ::benchmark::RunSpecifiedBenchmarks();
    jpg::print_pnr_series();
  }
  jpg::print_route_series();
  return 0;
}
