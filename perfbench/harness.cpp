#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "support/telemetry/telemetry.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: what a designer or a scheduler node waiting on the
// system sees. Every workload reports all of them from its untraced phase.
const std::vector<MetricDef>& e2e_defs() {
  static const std::vector<MetricDef> defs = {
      {"throughput_ops_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},    {"cpu_ms_per_op", "ms"},
      {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
  };
  return defs;
}

// Per-layer metrics, grouped by the src/ module that does the work.
const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"pnr.pack_ms", "ms"},
      {"pnr.place_ms", "ms"},
      {"pnr.route_ms", "ms"},
      {"pnr.route_iterations", "count"},
      {"pnr.spec_rounds", "count"},
      {"pnr.spec_retries", "count"},
      {"xdl.write_ms", "ms"},
      {"xdl.parse_ms", "ms"},
      {"xdl.bytes_per_op", "bytes"},
      {"ucf.parse_ms", "ms"},
      {"core.generate_ms", "ms"},
      {"core.cbits_calls_per_op", "count"},
      {"core.frames_per_op", "count"},
      {"core.pbit_cache_hit_rate", "ratio"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p90", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.lease_self_ms", "ms"},
      {"service.resident_hit_rate", "ratio"},
      {"service.quota_evictions_per_op", "count"},
      {"service.relocations_served_per_node", "count"},
      {"hwif.download_ms_p50", "ms"},
      {"hwif.words_sent_per_op", "words"},
      {"hwif.readback_words_per_op", "words"},
      {"hwif.attempts_per_download", "count"},
      {"bitstream.port_words_loaded_per_op", "words"},
      {"sched.nodes_per_s", "1/s"},
      {"sched.reuse_rate", "ratio"},
      {"sched.relocated_rate", "ratio"},
      {"sched.cold_rate", "ratio"},
      {"sched.swap_retries_per_node", "count"},
      {"sched.node_queue_wait_ms_p50", "ms"},
      {"sched.node_service_ms_p50", "ms"},
      {"op.glue_self_ms", "ms"},
      {"trace.spans_per_op", "count"},
      {"trace.overhead_latency_p50_ms", "ms"},
      {"trace.overhead_cpu_ms_per_op", "ms"},
      {"trace.overhead_throughput_pct", "%"},
  };
  return defs;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void put_metrics(std::string& out, const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, std::isfinite(v) ? v : 0.0,
                  d.unit);
    out += buf;
    first = false;
  }
}

// Short windows find the quiet stretches between steal bursts: under 9-18%
// average steal, 0.25 s windows still held a few steal-free ones per run.
constexpr double kWindowS = 0.25;
constexpr double kMaxStealShare = 0.005;  // below one jiffy per window
constexpr std::size_t kMinWindows = 2;

// Run-wide op count for the peak_rss_mb mark (generator thread only).
std::uint64_t g_completed = 0;
std::uint64_t g_rss_mark = 0;
double g_rss_at_mark_mb = 0;

/// (steal, total) jiffies summed over all CPUs; zeros when unreadable.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  std::uint64_t total = 0;
  for (const unsigned long long v : t) total += v;
  return {t[7], total};
}

}  // namespace

void Report::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 5) errors.push_back(why);
}

PhaseTotals::PhaseTotals() { std::tie(steal0_, total0_) = cpu_jiffies(); }

void PhaseTotals::close_window() {
  const auto [steal, total] = cpu_jiffies();
  if (total > total0_) {
    open_.steal_share = static_cast<double>(steal - steal0_) /
                        static_cast<double>(total - total0_);
  }
  steal0_ = steal;
  total0_ = total;
  windows.push_back(std::move(open_));
  open_ = Window{};
}

void PhaseTotals::add(double latency_ms, double wall, double cpu) {
  ++ops;
  wall_s += wall;
  ++open_.ops;
  open_.wall_s += wall;
  open_.cpu_s += cpu;
  open_.latencies_ms.push_back(latency_ms);
  if (++g_completed == g_rss_mark) g_rss_at_mark_mb = peak_rss_mb();
  if (open_.wall_s >= kWindowS) close_window();
}

void PhaseTotals::finish() {
  if (open_.ops > 0 && (windows.empty() || open_.wall_s >= kWindowS / 2)) {
    close_window();
  }
  open_ = Window{};
}

void PhaseTotals::merge(const PhaseTotals& other) {
  ops += other.ops;
  wall_s += other.wall_s;
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
}

void put_end_to_end(Report& r, const PhaseTotals& p, double setup_s) {
  // Quiet windows only; when steal hit nearly all of the run, the
  // kMinWindows least-stolen windows stand in.
  std::vector<const PhaseTotals::Window*> quiet, all;
  for (const PhaseTotals::Window& w : p.windows) {
    if (w.ops == 0 || w.wall_s <= 0) continue;
    all.push_back(&w);
    if (w.steal_share < kMaxStealShare) quiet.push_back(&w);
  }
  if (quiet.size() < kMinWindows) {
    std::stable_sort(all.begin(), all.end(), [](const auto* a, const auto* b) {
      return a->steal_share < b->steal_share;
    });
    const std::size_t keep = std::min(all.size(), kMinWindows);
    quiet.assign(all.begin(), all.begin() + static_cast<long>(keep));
  }
  std::uint64_t ops = 0;
  double wall_s = 0, cpu_s = 0;
  std::vector<double> latencies_ms;
  for (const PhaseTotals::Window* w : quiet) {
    ops += w->ops;
    wall_s += w->wall_s;
    cpu_s += w->cpu_s;
    latencies_ms.insert(latencies_ms.end(), w->latencies_ms.begin(),
                        w->latencies_ms.end());
  }
  r.end_to_end["throughput_ops_s"] =
      wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
  r.end_to_end["latency_p50_ms"] = percentile(latencies_ms, 50);
  r.end_to_end["latency_p90_ms"] = percentile(latencies_ms, 90);
  r.end_to_end["cpu_ms_per_op"] = cpu_s * 1e3 / at_least_one(ops);
  r.end_to_end["setup_s"] = setup_s;
  r.end_to_end["peak_rss_mb"] =
      g_rss_at_mark_mb > 0 ? g_rss_at_mark_mb : peak_rss_mb();
  r.info["windows_quiet"] =
      std::to_string(quiet.size()) + "/" + std::to_string(all.size());
  r.info["rss_at_op"] = std::to_string(g_rss_at_mark_mb > 0 ? g_rss_mark
                                                            : g_completed);
}

void set_rss_mark(std::uint64_t ops) { g_rss_mark = ops; }

std::uint64_t stolen_jiffies() { return cpu_jiffies().first; }

double warmup_seconds(const Options& opt) {
  return std::min(3.0, opt.seconds / 4);
}

void put_trace_overhead(Report& r, const PhaseTotals& untraced,
                        const PhaseTotals& traced) {
  Report u, t;
  put_end_to_end(u, untraced, 0);
  put_end_to_end(t, traced, 0);
  r.per_layer["trace.overhead_latency_p50_ms"] =
      t.end_to_end["latency_p50_ms"] - u.end_to_end["latency_p50_ms"];
  r.per_layer["trace.overhead_cpu_ms_per_op"] =
      t.end_to_end["cpu_ms_per_op"] - u.end_to_end["cpu_ms_per_op"];
  const double ut = u.end_to_end["throughput_ops_s"];
  r.per_layer["trace.overhead_throughput_pct"] =
      ut > 0 ? 100.0 * (ut - t.end_to_end["throughput_ops_s"]) / ut : 0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t now_ns() { return jpg::telemetry::now_ns(); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double at_least_one(std::uint64_t n) {
  return static_cast<double>(std::max<std::uint64_t>(n, 1));
}

SwapSample swap_sample(const jpg::ServiceResponse& resp) {
  const jpg::DownloadReport& rep = resp.report;
  return {resp.queue_wait_ns,
          resp.service_ns,
          rep.telemetry.duration_ns,
          rep.telemetry.counter("words_sent"),
          rep.telemetry.counter("readback_words"),
          rep.frames_touched,
          rep.attempts,
          resp.resident_hit};
}

void put_swap_layers(Report& r, const std::vector<SwapSample>& swaps,
                     double ops) {
  std::vector<double> queue_ms, exec_ms, download_ms, lease_self_ms;
  double words = 0, readback = 0, attempts = 0, frames = 0, hits = 0;
  for (const SwapSample& s : swaps) {
    queue_ms.push_back(static_cast<double>(s.queue_wait_ns) * 1e-6);
    exec_ms.push_back(static_cast<double>(s.service_ns) * 1e-6);
    download_ms.push_back(static_cast<double>(s.download_ns) * 1e-6);
    const std::uint64_t self =
        s.service_ns > s.download_ns ? s.service_ns - s.download_ns : 0;
    lease_self_ms.push_back(static_cast<double>(self) * 1e-6);
    words += static_cast<double>(s.words_sent);
    readback += static_cast<double>(s.readback_words);
    attempts += s.attempts;
    frames += static_cast<double>(s.frames);
    hits += s.resident_hit ? 1 : 0;
  }
  const double n = at_least_one(swaps.size());
  r.per_layer["service.queue_wait_ms_p50"] = percentile(queue_ms, 50);
  r.per_layer["service.queue_wait_ms_p90"] = percentile(queue_ms, 90);
  r.per_layer["service.exec_ms_p50"] = percentile(exec_ms, 50);
  r.per_layer["service.lease_self_ms"] = mean(lease_self_ms);
  r.per_layer["service.resident_hit_rate"] = hits / n;
  r.per_layer["hwif.download_ms_p50"] = percentile(download_ms, 50);
  r.per_layer["hwif.words_sent_per_op"] = words / ops;
  r.per_layer["hwif.readback_words_per_op"] = readback / ops;
  r.per_layer["hwif.attempts_per_download"] = attempts / n;
  r.per_layer["core.frames_per_op"] = frames / ops;
}

double cache_hit_rate(const jpg::PbitCacheStats& before,
                      const jpg::PbitCacheStats& after) {
  const std::size_t lookups = after.lookups - before.lookups;
  return lookups == 0 ? 0.0
                      : static_cast<double>(after.hits - before.hits) /
                            static_cast<double>(lookups);
}

std::uint64_t quota_evictions(const jpg::ServiceStats& s) {
  std::uint64_t n = 0;
  for (const auto& [name, t] : s.tenants) n += t.quota_evictions;
  return n;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(const std::string& s) {
  add(s.size());
  for (const char c : s) add(static_cast<std::uint64_t>(c));
}

void Digest::add_words(const std::vector<std::uint32_t>& words) {
  add(words.size());
  for (const std::uint32_t w : words) add(w);
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string DigestSet::hex() const {
  Digest d;
  d.add(sum_);
  return d.hex();
}

std::uint32_t Spans::add(const char* name, std::uint64_t op,
                         std::uint32_t parent, std::uint64_t start_ns,
                         std::uint64_t end_ns, bool derived) {
  if (!enabled_) return 0;
  const std::uint32_t id = ++next_id_;
  spans_.push_back({name, op, id, parent, start_ns, end_ns, derived});
  return id;
}

void Spans::fill(std::uint32_t id, const char* name, std::uint64_t op,
                 std::uint32_t parent, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  if (id == 0) return;
  spans_.push_back({name, op, id, parent, start_ns, end_ns, false});
}

std::map<std::string, double> Spans::self_ms() const {
  // Children of one span never overlap each other (calls are sequential or,
  // for derived spans, laid end to end), so self = duration - sum(children).
  std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
    out[s.name] += static_cast<double>(dur > kids ? dur - kids : 0) * 1e-6;
  }
  return out;
}

void Spans::print_self_times(std::uint64_t ops) const {
  const auto self = self_ms();
  double total = 0;
  for (const auto& [name, ms] : self) total += ms;
  std::printf("%-28s %14s %10s\n", "span (self time)", "ms/op", "share");
  for (const auto& [name, ms] : self) {
    std::printf("%-28s %14.4f %9.1f%%\n", name.c_str(),
                ops ? ms / static_cast<double>(ops) : 0.0,
                total > 0 ? 100.0 * ms / total : 0.0);
  }
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%llu,\"args\":{\"op\":%llu,\"id\":%u,"
        "\"parent\":%u,\"derived\":%s}}",
        first ? "" : ",", s.name, static_cast<double>(s.start_ns) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
        // One track per op keeps overlapping in-flight ops readable.
        static_cast<unsigned long long>(s.op % 8),
        static_cast<unsigned long long>(s.op), s.id, s.parent,
        s.derived ? "true" : "false");
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void print_result(const Options& opt, const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  if (opt.trace) {
    put_metrics(out, layer_defs(), r.per_layer);
  } else {
    put_metrics(out, e2e_defs(), r.end_to_end);
  }
  out += "}, \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    out += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" +
           json_escape(v) + "\"";
    first = false;
  }
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (first ? "\"error" : ", \"error") + std::to_string(i) + "\": \"" +
           json_escape(r.errors[i]) + "\"";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
