// task_graphs — the algorithm-on-demand co-processor (op = one app,
// submit -> report).
//
// SchedFixture on XCV50 (4 socket kernels x 2 implementations x 3 slots:
// its set-up runs 24 module flows, so setup_s moves with pnr). An
// AcceleratorScheduler with 2 boards, 2 workers and a 2-wide service pool
// runs a closed loop of seeded random task graphs with 4 apps outstanding.
// Swaps are small (3-column slots) and pbits mostly come from relocating a
// resident donor, so sched, relocation and per-node decode/simulation
// dominate. Decode + simulation happen inside the scheduler's node task and
// are invisible from outside the program: the traced run labels them as
// such and does not estimate them.
//
// App completion is found by non-blocking polling of the outstanding
// tickets (with a bounded wait on the oldest), so an app that finishes
// behind an older one is stamped when it finishes, not when the older one
// does.
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "harness.h"
#include "sched/accel_scheduler.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace jpg;
using namespace jpg::sched;

/// Ops after which peak_rss_mb is read (see set_rss_mark).
constexpr std::uint64_t kRssMarkOps = 1200;

constexpr std::size_t kOutstanding = 4;
constexpr auto kPollWait = std::chrono::microseconds(100);

/// Swaps the scheduler's service served, collected during traced phases.
struct SwapLog {
  std::atomic<bool> collect{false};
  std::mutex mu;
  std::vector<SwapSample> samples;  // guarded by mu
};

struct Env {
  Env() : fixture("XCV50") {
    SchedConfig cfg;
    cfg.num_boards = 2;
    cfg.workers = 2;
    cfg.service.pool_width = 2;
    cfg.service.on_complete = [log = &swaps](const ServiceResponse& resp) {
      if (!log->collect) return;
      const SwapSample s = swap_sample(resp);
      const std::lock_guard<std::mutex> guard(log->mu);
      log->samples.push_back(s);
    };
    sched = std::make_unique<AcceleratorScheduler>(fixture, cfg);
  }

  SchedFixture fixture;
  SwapLog swaps;  // outlives sched: declared first, destroyed last
  std::unique_ptr<AcceleratorScheduler> sched;
};

struct App {
  std::uint64_t op = 0;
  TaskGraph graph;
  AppTicket ticket;
  std::uint64_t submit_ns = 0;
  std::uint64_t submitted_ns = 0;  ///< submit() returned
  std::uint32_t root = 0;
};

/// What the post-run check needs of one app (kept compact: it is held for
/// every app of the run and counts towards peak_rss_mb).
struct Finished {
  std::uint64_t op = 0;
  TaskGraph graph;
  std::string error;  ///< app or first node failure, "" when all ran
  std::vector<std::vector<bool>> traces;  ///< per node
};

struct Phase {
  PhaseTotals totals;
  std::vector<double> node_queue_ms, node_service_ms;
  std::uint64_t nodes = 0, port_words = 0;
  std::vector<SwapSample> swaps;
  SchedStats sched_before, sched_after;
  ServiceStats svc_before, svc_after;
  PbitCacheStats cache_before, cache_after;
};

void digest_graph(Digest& d, const TaskGraph& g) {
  d.add(g.nodes.size());
  for (const TaskNode& n : g.nodes) {
    d.add(n.kernel);
    d.add(n.stimulus_seed);
    for (const int p : n.pool) d.add(static_cast<std::uint64_t>(p));
    for (const std::size_t p : n.preds) d.add(p + 1000);
  }
}

Phase run_phase(Env& env, const Options& opt, Rng& rng,
                std::uint64_t& next_op, double seconds, Spans& spans,
                Report& r, std::vector<Finished>& finished,
                Digest& ops_digest) {
  telemetry::Counter& port_words =
      telemetry::MetricsRegistry::global().counter("port.words_loaded");
  AcceleratorScheduler& sched = *env.sched;
  TaskGraphOptions topt;
  topt.num_impls = env.fixture.impls_per_kernel();
  {
    const std::lock_guard<std::mutex> guard(env.swaps.mu);
    env.swaps.samples.clear();
  }
  env.swaps.collect = spans.enabled();
  Phase ph;
  ph.sched_before = sched.stats();
  ph.svc_before = sched.service().stats();
  ph.cache_before = sched.service().cache_stats();
  const std::uint64_t words0 = port_words.value();
  const std::uint64_t t_begin = now_ns();
  std::uint64_t t_prev = t_begin;
  double cpu_prev = process_cpu_s();
  const std::uint64_t first_op = next_op;
  std::deque<App> inflight;

  for (;;) {
    const bool more = opt.ops != 0
                          ? next_op - first_op < opt.ops
                          : static_cast<double>(now_ns() - t_begin) * 1e-9 <
                                seconds;
    while (more && inflight.size() < kOutstanding) {
      App a;
      a.op = next_op++;
      a.graph = random_task_graph(rng, env.fixture.kernels(), topt,
                                  "app" + std::to_string(a.op));
      digest_graph(ops_digest, a.graph);
      a.root = spans.reserve();
      a.submit_ns = now_ns();
      ++r.attempted;
      a.ticket = sched.submit(a.graph);
      a.submitted_ns = now_ns();
      spans.add("sched.submit", a.op, a.root, a.submit_ns, a.submitted_ns);
      inflight.push_back(std::move(a));
    }
    if (inflight.empty()) break;

    bool any = false;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->ticket.report.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const std::uint64_t stamp = now_ns();
      any = true;
      const double cpu_now = process_cpu_s();
      ph.totals.add(static_cast<double>(stamp - it->submit_ns) * 1e-6,
                    static_cast<double>(stamp - t_prev) * 1e-9,
                    cpu_now - cpu_prev);
      t_prev = stamp;
      cpu_prev = cpu_now;
      spans.fill(it->root, "op", it->op, 0, it->submit_ns, stamp);
      // Everything between submit() returning and the report is the
      // scheduler's: node dispatch, swaps, decode and simulation.
      spans.add("sched.app_in_flight", it->op, it->root, it->submitted_ns,
                stamp, true);
      const AppReport& rep = it->ticket.report.get();
      Finished f{it->op, std::move(it->graph), "", {}};
      if (!rep.completed || rep.cancelled ||
          rep.nodes.size() != f.graph.nodes.size()) {
        f.error = "app did not complete";
      }
      for (const NodeResult& nr : rep.nodes) {
        ++ph.nodes;
        if (spans.enabled()) {
          ph.node_queue_ms.push_back(static_cast<double>(nr.queue_wait_ns) *
                                     1e-6);
          ph.node_service_ms.push_back(static_cast<double>(nr.service_ns) *
                                       1e-6);
        }
        if (!nr.ok && f.error.empty()) f.error = "node failed: " + nr.error;
        f.traces.push_back(nr.trace);
      }
      finished.push_back(std::move(f));
      it = inflight.erase(it);
    }
    if (!any) (void)inflight.front().ticket.report.wait_for(kPollWait);
  }
  ph.totals.finish();
  ph.port_words = port_words.value() - words0;
  ph.sched_after = sched.stats();
  ph.svc_after = sched.service().stats();
  ph.cache_after = sched.service().cache_stats();
  {
    const std::lock_guard<std::mutex> guard(env.swaps.mu);
    ph.swaps.swap(env.swaps.samples);
  }
  return ph;
}

/// Every app must complete and every node trace must equal the sequential
/// reference execution. Runs after the timed phases, spread over the cores.
void check_apps(const Env& env, std::vector<Finished>& finished,
                const Options& opt, Report& r, DigestSet& out_digest) {
  for (Finished& f : finished) {
    if (static_cast<long>(f.op) == opt.corrupt_op && !f.traces.empty() &&
        !f.traces[0].empty()) {
      f.traces[0][0] = !f.traces[0][0];
    }
    Digest out;
    out.add(f.op);
    for (const std::vector<bool>& trace : f.traces) {
      std::uint64_t bits = 0;
      for (std::size_t i = 0; i < trace.size() && i < 64; ++i) {
        bits |= static_cast<std::uint64_t>(trace[i]) << i;
      }
      out.add(bits);
    }
    out_digest.add(out);
  }
  std::vector<std::string> errors(finished.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < finished.size(); i = next++) {
      const Finished& f = finished[i];
      if (!f.error.empty()) {
        errors[i] = f.error;
        continue;
      }
      const auto ref =
          reference_traces(env.fixture, f.graph, SchedConfig{}.sim_cycles);
      for (std::size_t n = 0; n < f.traces.size(); ++n) {
        if (f.traces[n] != ref[n]) {
          errors[i] = "node " + std::to_string(n) +
                      " trace differs from the reference";
          break;
        }
      }
    }
  };
  const unsigned width =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < width; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < finished.size(); ++i) {
    if (!errors[i].empty()) {
      ++r.failed;
      r.fail("op " + std::to_string(finished[i].op) + ": " + errors[i]);
    }
  }
}

void put_layers(Report& r, const Phase& ph, const Spans& spans,
                const std::map<std::string, double>& setup_pnr) {
  const double apps = at_least_one(ph.totals.ops);
  const double nodes = at_least_one(ph.nodes);
  const SchedStats& a = ph.sched_after;
  const SchedStats& b = ph.sched_before;
  const double completed = at_least_one(a.nodes_completed - b.nodes_completed);
  r.per_layer["sched.nodes_per_s"] =
      ph.totals.wall_s > 0 ? static_cast<double>(ph.nodes) / ph.totals.wall_s
                           : 0;
  r.per_layer["sched.reuse_rate"] =
      static_cast<double>(a.placements_reuse - b.placements_reuse) / completed;
  r.per_layer["sched.relocated_rate"] =
      static_cast<double>(a.placements_relocated - b.placements_relocated) /
      completed;
  r.per_layer["sched.cold_rate"] =
      static_cast<double>(a.placements_cold - b.placements_cold) / completed;
  r.per_layer["sched.swap_retries_per_node"] =
      static_cast<double>(a.swap_retries - b.swap_retries) / completed;
  r.per_layer["sched.node_queue_wait_ms_p50"] =
      percentile(ph.node_queue_ms, 50);
  r.per_layer["sched.node_service_ms_p50"] =
      percentile(ph.node_service_ms, 50);

  put_swap_layers(r, ph.swaps, apps);
  r.per_layer["service.quota_evictions_per_op"] =
      static_cast<double>(quota_evictions(ph.svc_after) -
                          quota_evictions(ph.svc_before)) / apps;
  r.per_layer["service.relocations_served_per_node"] =
      static_cast<double>(ph.svc_after.relocations_served -
                          ph.svc_before.relocations_served) / nodes;
  r.per_layer["bitstream.port_words_loaded_per_op"] =
      static_cast<double>(ph.port_words) / apps;
  r.per_layer["core.pbit_cache_hit_rate"] =
      cache_hit_rate(ph.cache_before, ph.cache_after);
  for (const auto& [name, v] : setup_pnr) r.per_layer[name] = v;
  const auto self = spans.self_ms();
  const auto it = self.find("op");
  r.per_layer["op.glue_self_ms"] = it == self.end() ? 0.0 : it->second / apps;
  r.per_layer["trace.spans_per_op"] = static_cast<double>(spans.size()) / apps;
}

/// Router work of one fixture build, per routing pass, from the global
/// registry (SchedFixture does not return its flows' RouteStats). The
/// registry has no speculative-round counter, so pnr.spec_rounds stays 0.
std::map<std::string, double> pnr_counts(
    const telemetry::MetricsSnapshot& before,
    const telemetry::MetricsSnapshot& after) {
  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double runs = std::max(delta("pnr.route.runs"), 1.0);
  return {{"pnr.route_iterations", delta("pnr.route.iterations") / runs},
          {"pnr.spec_retries", delta("pnr.route.spec_retries") / runs}};
}

}  // namespace

void run_task_graphs(const Options& opt, Report& r) {
  std::map<std::string, double> setup_pnr;
  double setup_s = 0;
  const std::unique_ptr<Env> env = set_up_repeatedly(
      [&setup_pnr] {
        const auto before = telemetry::MetricsRegistry::global().snapshot();
        auto built = std::make_unique<Env>();
        setup_pnr =
            pnr_counts(before, telemetry::MetricsRegistry::global().snapshot());
        return built;
      },
      setup_s);

  Rng rng(opt.seed);
  Digest ops_digest;
  DigestSet out_digest;
  std::vector<Finished> finished;
  std::uint64_t next_op = 0;
  set_rss_mark(kRssMarkOps);
  run_schedule(
      opt, r, setup_s,
      [&](double seconds, Spans& spans) {
        return run_phase(*env, opt, rng, next_op, seconds, spans, r, finished,
                         ops_digest);
      },
      [&](const Phase& traced, const Spans& spans) {
        std::printf("%-28s %14s\n", "sched node decode + sim",
                    "invisible (inside the scheduler's node task)");
        put_layers(r, traced, spans, setup_pnr);
      });
  env->sched->shutdown(true);
  check_apps(*env, finished, opt, r, out_digest);
  r.info["ops_digest"] = ops_digest.hex();
  r.info["output_digest"] = out_digest.hex();
}

}  // namespace perfbench
