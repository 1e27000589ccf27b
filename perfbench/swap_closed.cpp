// swap_closed — verified swaps into a live device (op = submit -> response).
//
// XCV300 load fixture: 3 full-height slots x 8 distinct-content variants over
// a base plane. A ReconfigService with 2 boards, a 2-wide pool and 4 tenants
// (quota 3 resident leases each) serves a closed loop that keeps 2 requests
// outstanding; slot, variant and tenant come from the seed. Every swap goes
// lease -> verified stream -> readback of the touched frames -> full-plane
// stray sweep (the default DownloadPolicy), so the service, hwif and
// bitstream layers do all the work while pnr and xdl stay idle.
//
// Latency is stamped in ServiceConfig::on_complete, on the pool thread that
// completes the request, so a response is never charged for the time the
// generator took to get round to it.
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "harness.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"
#include "support/rng.h"
#include "support/telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace jpg;

/// Ops after which peak_rss_mb is read (see set_rss_mark).
constexpr std::uint64_t kRssMarkOps = 5000;

constexpr std::size_t kSlots = 3;
constexpr std::size_t kVariants = 8;
constexpr std::size_t kBoards = 2;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kOutstanding = 2;

struct Completion {
  ServiceResponse resp;
  std::uint64_t stamp_ns = 0;
};

/// Hand-off from the service's completion hook to the generator thread.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Completion> done;  // guarded by mu
};

struct Env {
  explicit Env(const Device& dev, std::uint64_t seed)
      : fx(make_load_fixture(dev, seed, kSlots, kVariants)) {
    ServiceConfig cfg;
    cfg.pool_width = 2;
    cfg.tenant_quota = 3;
    cfg.on_complete = [mb = &mailbox](const ServiceResponse& resp) {
      Completion c{resp, now_ns()};
      {
        const std::lock_guard<std::mutex> guard(mb->mu);
        mb->done.push_back(std::move(c));
      }
      mb->cv.notify_one();
    };
    svc = std::make_unique<ReconfigService>(dev, fx.base, kBoards, cfg);
  }

  LoadFixture fx;
  Mailbox mailbox;  // outlives svc: declared first, destroyed last
  std::unique_ptr<ReconfigService> svc;
};

struct Request {
  std::size_t slot = 0, variant = 0, tenant = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t submitted_ns = 0;  ///< submit() returned
  std::uint32_t root = 0;
};

/// (board, slot) -> (dispatch_seq, variant) of the last swap dispatched there.
using LastSwap = std::map<std::pair<int, std::size_t>,
                          std::pair<std::uint64_t, std::size_t>>;

struct Phase {
  PhaseTotals totals;
  std::vector<SwapSample> swaps;  ///< traced phases only
  std::uint64_t port_words = 0;
  ServiceStats stats_before, stats_after;
  PbitCacheStats cache_before, cache_after;
};

Phase run_phase(Env& env, const Options& opt, Rng& rng,
                std::uint64_t& next_op, double seconds, Spans& spans,
                Report& r, LastSwap& last, Digest& ops_digest,
                DigestSet& out_digest) {
  telemetry::Counter& port_words =
      telemetry::MetricsRegistry::global().counter("port.words_loaded");
  Phase ph;
  ph.stats_before = env.svc->stats();
  ph.cache_before = env.svc->cache_stats();
  const std::uint64_t words0 = port_words.value();
  const std::uint64_t t_begin = now_ns();
  std::uint64_t t_prev = t_begin;
  double cpu_prev = process_cpu_s();
  const std::uint64_t first_op = next_op;
  std::unordered_map<std::uint64_t, Request> inflight;
  std::vector<Completion> batch;

  for (;;) {
    const bool more = opt.ops != 0
                          ? next_op - first_op < opt.ops
                          : static_cast<double>(now_ns() - t_begin) * 1e-9 <
                                seconds;
    while (more && inflight.size() < kOutstanding) {
      const std::uint64_t op = next_op++;
      Request q;
      q.slot = rng.uniform(kSlots);
      q.variant = rng.uniform(kVariants);
      q.tenant = rng.uniform(kTenants);
      ops_digest.add(q.slot);
      ops_digest.add(q.variant);
      ops_digest.add(q.tenant);
      ServiceRequest req = env.fx.request(q.slot, q.variant,
                                          "t" + std::to_string(q.tenant));
      req.cookie = op;
      q.root = spans.reserve();
      q.submit_ns = now_ns();
      inflight.emplace(op, q);
      ++r.attempted;
      (void)env.svc->submit(std::move(req));  // completion arrives by hook
      Request& sent = inflight[op];
      sent.submitted_ns = now_ns();
      spans.add("service.submit", op, q.root, q.submit_ns, sent.submitted_ns);
    }
    if (inflight.empty()) break;
    {
      std::unique_lock<std::mutex> lock(env.mailbox.mu);
      env.mailbox.cv.wait(lock, [&env] { return !env.mailbox.done.empty(); });
      batch.swap(env.mailbox.done);
    }
    const double cpu_now = process_cpu_s();
    for (Completion& c : batch) {
      const ServiceResponse& resp = c.resp;
      const auto it = inflight.find(resp.cookie);
      if (it == inflight.end()) {
        r.fail("response for unknown op " + std::to_string(resp.cookie));
        continue;
      }
      const Request q = it->second;
      inflight.erase(it);
      const std::uint64_t op = resp.cookie;
      const std::uint64_t t_now = std::max(t_prev, c.stamp_ns);
      ph.totals.add(static_cast<double>(c.stamp_ns - q.submit_ns) * 1e-6,
                    static_cast<double>(t_now - t_prev) * 1e-9,
                    cpu_now - cpu_prev);
      t_prev = t_now;
      cpu_prev = cpu_now;

      const DownloadReport& rep = resp.report;
      const std::uint64_t dl_ns = rep.telemetry.duration_ns;
      if (spans.enabled()) {
        const std::uint64_t exec0 = c.stamp_ns - resp.service_ns;
        // The service enqueues inside submit(); the queue span starts when
        // submit() returned so sibling spans do not overlap.
        const std::uint64_t queue0 =
            std::max(exec0 - resp.queue_wait_ns, q.submitted_ns);
        spans.add("service.queue", op, q.root, queue0, exec0, true);
        const std::uint32_t exec =
            spans.add("service.exec", op, q.root, exec0, c.stamp_ns, true);
        spans.add("hwif.download_stream", op, exec, c.stamp_ns - dl_ns,
                  c.stamp_ns, true);
        spans.fill(q.root, "op", op, 0, q.submit_ns, c.stamp_ns);
        ph.swaps.push_back(swap_sample(resp));
      }

      Digest out;
      out.add(op);
      out.add(static_cast<std::uint64_t>(resp.error));
      out.add(static_cast<std::uint64_t>(rep.status));
      out.add(rep.frames_touched);
      out_digest.add(out);
      if (!resp.ok() || !rep.ok()) {
        ++r.failed;
        r.fail("op " + std::to_string(op) + ": " +
               std::string(service_error_name(resp.error)) + " " +
               resp.message + " " + rep.summary());
        continue;
      }
      auto& slot_last = last[{resp.board, q.slot}];
      if (resp.dispatch_seq >= slot_last.first) {
        slot_last = {resp.dispatch_seq, q.variant};
      }
    }
    batch.clear();
  }
  ph.totals.finish();
  ph.port_words = port_words.value() - words0;
  ph.stats_after = env.svc->stats();
  ph.cache_after = env.svc->cache_stats();
  return ph;
}

/// Each board must hold the base with, in every slot, the variant of the
/// last swap dispatched there (full-height slots: the slot columns' row
/// windows come from the variant, the top/bottom padding from the base).
void check_planes(const Env& env, const LastSwap& last,
                  const Options& opt, Report& r) {
  const Device& dev = *env.fx.device;
  const FrameMap& fm = dev.frames();
  for (std::size_t b = 0; b < kBoards; ++b) {
    ConfigMemory expected = env.fx.base;
    std::size_t corrupt_frame = SIZE_MAX;
    for (const auto& [key, seq_variant] : last) {
      if (key.first != static_cast<int>(b)) continue;
      const Region& region = env.fx.slots[key.second];
      const ConfigMemory& variant = env.fx.variants[seq_variant.second];
      const std::size_t lo = fm.row_bit_base(region.r0);
      const std::size_t bits =
          static_cast<std::size_t>(region.height()) * FrameMap::kBitsPerRow;
      for (const int major : region.clb_majors(dev)) {
        for (int minor = 0; minor < fm.frames_in_major(major); ++minor) {
          const std::size_t f = fm.frame_index(major, minor);
          expected.frame(f).copy_range(variant.frame(f), lo, bits);
          corrupt_frame = std::min(corrupt_frame, f);
        }
      }
    }
    ConfigMemory got = env.svc->board(b).config();
    if (opt.corrupt_op >= 0 && b == 0 && corrupt_frame != SIZE_MAX) {
      BitVector& fr = got.frame(corrupt_frame);
      fr.set_word(1, fr.word(1) ^ 1u);
    }
    const auto diff = got.diff_frames(expected);
    if (!diff.empty()) {
      r.fail("board " + std::to_string(b) + ": " +
             std::to_string(diff.size()) + " frames differ from the base "
             "plus the last-dispatched variants, first " +
             std::to_string(diff.front()));
    }
  }
}

void put_layers(Report& r, const Phase& ph, const Spans& spans) {
  const double n = at_least_one(ph.totals.ops);
  put_swap_layers(r, ph.swaps, n);
  r.per_layer["service.quota_evictions_per_op"] =
      static_cast<double>(quota_evictions(ph.stats_after) -
                          quota_evictions(ph.stats_before)) / n;
  r.per_layer["service.relocations_served_per_node"] =
      static_cast<double>(ph.stats_after.relocations_served -
                          ph.stats_before.relocations_served) / n;
  r.per_layer["bitstream.port_words_loaded_per_op"] =
      static_cast<double>(ph.port_words) / n;
  r.per_layer["core.pbit_cache_hit_rate"] =
      cache_hit_rate(ph.cache_before, ph.cache_after);
  const auto self = spans.self_ms();
  const auto it = self.find("op");
  r.per_layer["op.glue_self_ms"] = it == self.end() ? 0.0 : it->second / n;
  r.per_layer["trace.spans_per_op"] = static_cast<double>(spans.size()) / n;
}

}  // namespace

void run_swap_closed(const Options& opt, Report& r) {
  double setup_s = 0;
  const std::unique_ptr<Env> env = set_up_repeatedly(
      [&opt] { return std::make_unique<Env>(Device::get("XCV300"), opt.seed); },
      setup_s);

  Rng rng(opt.seed);
  Digest ops_digest;
  DigestSet out_digest;
  LastSwap last;
  std::uint64_t next_op = 0;
  set_rss_mark(kRssMarkOps);
  run_schedule(
      opt, r, setup_s,
      [&](double seconds, Spans& spans) {
        return run_phase(*env, opt, rng, next_op, seconds, spans, r, last,
                         ops_digest, out_digest);
      },
      [&r](const Phase& traced, const Spans& spans) {
        put_layers(r, traced, spans);
      });
  env->svc->shutdown(true);
  check_planes(*env, last, opt, r);
  r.info["ops_digest"] = ops_digest.hex();
  r.info["output_digest"] = out_digest.hex();
}

}  // namespace perfbench
