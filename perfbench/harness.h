// Shared machinery of the end-to-end benchmark: command-line options, the
// result record every workload fills, CPU/RSS probes, percentiles, output
// digests and the benchmark's own span recorder.
//
// Spans are recorded by the benchmark around the public calls it makes into
// each layer (never inside the library). They live in memory and are written
// out once, at the end, as a Chrome trace; self time per span name is the
// span's duration minus the part covered by its children.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/partial_gen.h"
#include "service/reconfig_service.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fixed op count instead of a time budget (0 = time-bounded). Used by the
  /// benchmark's own tests: the same seed and count must give the same ops.
  std::size_t ops = 0;
  /// Negative-test hook: flip one word of op N's output before its check.
  long corrupt_op = -1;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

/// One workload run. Workloads fill the counts, the end-to-end metrics of
/// their untraced phase and, in traced runs, the per-layer metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few check failures
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> info;  ///< digests, notes

  void fail(const std::string& why);
};

/// The timed figures of one phase, cut into windows of a quarter second of
/// timed work. Time-based end-to-end figures pool the windows in which the
/// hypervisor stole no CPU time (/proc/stat; the two least-stolen windows
/// when fewer are clean): total ops over total wall, percentiles over every
/// latency of those windows, total CPU over total ops. A steal burst does
/// not move them; slowness the program causes, in any window, does.
struct PhaseTotals {
  struct Window {
    std::uint64_t ops = 0;
    double wall_s = 0;
    double cpu_s = 0;        ///< process user+sys CPU over the window
    double steal_share = 0;  ///< stolen share of all CPUs' time
    std::vector<double> latencies_ms;
  };

  PhaseTotals();

  std::uint64_t ops = 0;
  double wall_s = 0;  ///< timed work: the ops' own time, or the loop's span
  std::vector<Window> windows;

  /// Records one completed op: its latency, plus the timed wall and CPU
  /// seconds that passed since the previous record.
  void add(double latency_ms, double wall_s, double cpu_s);
  /// Closes the open window when it holds at least half a window of work
  /// (or when it is the only one); the rest of a short tail is dropped.
  void finish();
  void merge(const PhaseTotals& other);

 private:
  void close_window();

  Window open_;
  std::uint64_t steal0_ = 0, total0_ = 0;  ///< jiffies when open_ opened
};

/// peak_rss_mb is read when this many ops of the run (warm-up included) have
/// completed, so it measures a fixed amount of work however fast the run
/// went: the swap datapath's memory grows with every swap. Not reached = at
/// the end of the run.
void set_rss_mark(std::uint64_t ops);
/// Untimed warm-up before the measured phase: min(3 s, a quarter of the
/// run). Lazy growth (allocator arenas, caches) settles during it.
[[nodiscard]] double warmup_seconds(const Options& opt);

/// Writes the six end-to-end metrics of `p` (plus setup_s and peak RSS).
void put_end_to_end(Report& r, const PhaseTotals& p, double setup_s);
/// Traced-minus-untraced differences of the end-to-end metrics. Traced runs
/// time an untraced quarter, the traced half, then another untraced quarter,
/// so drift over the run (a backlog of state that grows with every op)
/// cancels instead of being charged to tracing.
void put_trace_overhead(Report& r, const PhaseTotals& untraced,
                        const PhaseTotals& traced);

/// Process user+sys CPU seconds (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set size in MiB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// Nanoseconds on the steady clock (the library's telemetry epoch, so stamps
/// compare directly with the nanosecond fields the public API returns).
[[nodiscard]] std::uint64_t now_ns();

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// max(n, 1) as a double: the divisor of a per-op or per-node average.
[[nodiscard]] double at_least_one(std::uint64_t n);

/// One swap the service served, as the per-layer metrics need it.
struct SwapSample {
  std::uint64_t queue_wait_ns = 0, service_ns = 0, download_ns = 0;
  std::uint64_t words_sent = 0, readback_words = 0, frames = 0;
  int attempts = 0;
  bool resident_hit = false;
};
[[nodiscard]] SwapSample swap_sample(const jpg::ServiceResponse& resp);
/// The service.* latency/hit metrics and the hwif.* metrics of `swaps`
/// (served for `ops` ops), plus core.frames_per_op.
void put_swap_layers(Report& r, const std::vector<SwapSample>& swaps,
                     double ops);
[[nodiscard]] double cache_hit_rate(const jpg::PbitCacheStats& before,
                                    const jpg::PbitCacheStats& after);
[[nodiscard]] std::uint64_t quota_evictions(const jpg::ServiceStats& s);

/// FNV-1a over 64-bit values: op sequences and output digests.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const std::string& s);
  void add_words(const std::vector<std::uint32_t>& words);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Order-independent sum of per-op digests: a closed loop's completions
/// arrive in an order that varies from run to run.
class DigestSet {
 public:
  void add(const Digest& d) { sum_ += d.value(); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t sum_ = 0;
};

/// In-memory span log. Recording is single-threaded by design: every
/// workload records from its generator thread only (completions handed over
/// by pool threads are recorded when the generator drains them).
class Spans {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint64_t op = 0;        ///< shared by every span of one op
    std::uint32_t id = 0;
    std::uint32_t parent = 0;    ///< 0 = root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    bool derived = false;  ///< placed from durations the API returned
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint32_t add(const char* name, std::uint64_t op, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    bool derived = false);
  /// Reserves an id for a span whose end is not known yet.
  std::uint32_t reserve() { return enabled_ ? ++next_id_ : 0; }
  /// Fills a reserved span.
  void fill(std::uint32_t id, const char* name, std::uint64_t op,
            std::uint32_t parent, std::uint64_t start_ns,
            std::uint64_t end_ns);

  /// Self time in ms per span name, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Prints the per-name self-time table (per op and share of root time).
  void print_self_times(std::uint64_t ops) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one synchronous public call.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name, std::uint64_t op,
             std::uint32_t parent = 0)
      : spans_(spans), name_(name), op_(op), parent_(parent),
        id_(spans.reserve()), start_(spans.enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) spans_.fill(id_, name_, op_, parent_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  const char* name_;
  std::uint64_t op_;
  std::uint32_t parent_;
  std::uint32_t id_;
  std::uint64_t start_;
};

/// Steal jiffies of all CPUs so far (/proc/stat; 0 when unreadable).
[[nodiscard]] std::uint64_t stolen_jiffies();

/// Set-ups per run; setup_s is the median build time over them.
constexpr int kSetups = 25;

/// Builds a workload's environment kSetups times, tearing the previous one
/// down first, and returns the last one. `setup_s` gets the median
/// build time over the builds the hypervisor stole nothing from (all builds
/// when fewer than three were clean). The first build also pays process-wide
/// device construction.
template <typename Make>
auto set_up_repeatedly(Make make, double& setup_s) {
  decltype(make()) env;
  std::vector<double> all, clean;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    const std::uint64_t stolen0 = stolen_jiffies();
    const std::uint64_t t0 = now_ns();
    env = make();
    const double took = static_cast<double>(now_ns() - t0) * 1e-9;
    all.push_back(took);
    if (stolen_jiffies() == stolen0) clean.push_back(took);
  }
  setup_s = median(clean.size() >= 3 ? std::move(clean) : std::move(all));
  return env;
}

/// The phase schedule every workload runs: an untimed warm-up, then either
/// one timed phase of opt.seconds or, traced, an untraced quarter, a traced
/// half and another untraced quarter. `run(seconds, spans)` runs one phase
/// and returns it (a struct with `totals`); `layers(traced_phase, spans)`
/// fills the per-layer metrics. Writes the end-to-end metrics last.
template <typename Run, typename Layers>
void run_schedule(const Options& opt, Report& r, double setup_s, Run run,
                  Layers layers) {
  Spans off(false);
  if (opt.ops == 0) (void)run(warmup_seconds(opt), off);
  const double quarter_s = opt.seconds / 4;
  auto plain = run(opt.trace ? quarter_s : opt.seconds, off);
  if (opt.trace) {
    Spans spans(true);
    const auto traced = run(2 * quarter_s, spans);
    plain.totals.merge(run(quarter_s, off).totals);
    put_trace_overhead(r, plain.totals, traced.totals);
    spans.print_self_times(traced.totals.ops);
    layers(traced, spans);
    if (!opt.trace_out.empty() && !spans.write_chrome_trace(opt.trace_out)) {
      r.fail("cannot write " + opt.trace_out);
    }
  }
  put_end_to_end(r, plain.totals, setup_s);
}

/// Prints the run's last line: {"correct","attempted","failed","metrics",
/// "info"}. perfbench/run.py strips "info" after logging it.
void print_result(const Options& opt, const Report& r);

// Workloads (one translation unit each).
void run_module_flow(const Options& opt, Report& r);
void run_swap_closed(const Options& opt, Report& r);
void run_task_graphs(const Options& opt, Report& r);

}  // namespace perfbench
