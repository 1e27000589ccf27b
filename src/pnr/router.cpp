#include "pnr/router.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "support/log.h"
#include "support/thread_pool.h"

namespace jpg {

// --- RoutingGraph -----------------------------------------------------------

RoutingGraph::RoutingGraph(const Device& device) : device_(&device) {
  const RoutingFabric& fab = device.fabric();
  const std::size_t n = fab.num_nodes();

  struct RawEdge {
    std::size_t from;
    Edge e;
  };
  std::vector<RawEdge> raw;

  auto dest_node_of_mux = [&](int r, int c, const MuxDef& m) -> std::size_t {
    if (m.dest_local < kTileWires) {
      return fab.tile_wire_node(r, c, m.dest_local);
    }
    const int k = m.dest_local - kLongDriverBase;
    return k < 2 ? fab.longh_node(r, k) : fab.longv_node(c, k - 2);
  };

  for (int r = 0; r < device.rows(); ++r) {
    for (int c = 0; c < device.cols(); ++c) {
      for (const MuxDef& m : fab.tile_muxes()) {
        const std::size_t dest = dest_node_of_mux(r, c, m);
        for (std::size_t i = 0; i < m.sources.size(); ++i) {
          const auto src = fab.resolve_source(r, c, m.sources[i]);
          if (!src) continue;
          RawEdge re;
          re.from = *src;
          re.e.to = static_cast<std::uint32_t>(dest);
          re.e.r = static_cast<std::int16_t>(r);
          re.e.c = static_cast<std::int16_t>(c);
          re.e.dest_local = static_cast<std::int16_t>(m.dest_local);
          re.e.sel = static_cast<std::uint16_t>(i + 1);
          raw.push_back(re);
        }
      }
    }
  }
  // Pad-input muxes.
  for (const IobSite s : device.all_iob_sites()) {
    const auto sources = fab.pad_in_sources(s.side, s.row, s.k);
    const std::size_t dest = fab.pad_in_node(s.side, s.row, s.k);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      RawEdge re;
      re.from = sources[i];
      re.e.to = static_cast<std::uint32_t>(dest);
      re.e.r = static_cast<std::int16_t>(s.row);
      re.e.c = static_cast<std::int16_t>(s.k);
      re.e.dest_local = s.side == Side::Left ? kPadInLeft : kPadInRight;
      re.e.sel = static_cast<std::uint16_t>(i + 1);
      raw.push_back(re);
    }
  }

  // CSR assembly.
  offsets_.assign(n + 1, 0);
  for (const RawEdge& re : raw) ++offsets_[re.from + 1];
  for (std::size_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  edges_.resize(raw.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const RawEdge& re : raw) {
    edges_[cursor[re.from]++] = re.e;
  }

  // Flattened node metadata for the A* inner loop.
  node_r_.assign(n, -1);
  node_c_.assign(n, -1);
  base_cost_.assign(n, 1.0f);
  for (std::size_t node = 0; node < n; ++node) {
    const auto info = fab.node_info(node);
    switch (info.type) {
      case RoutingFabric::NodeInfo::Type::TileWire:
        node_r_[node] = static_cast<std::int16_t>(info.r);
        node_c_[node] = static_cast<std::int16_t>(info.c);
        break;
      case RoutingFabric::NodeInfo::Type::PadOut:
      case RoutingFabric::NodeInfo::Type::PadIn:
        // Pads sit just off the array edge; anchoring them at the adjacent
        // CLB column keeps IOB nets' A* heuristic and bounding box tight
        // (a -1 here would degrade every pad search to blind Dijkstra).
        node_r_[node] = static_cast<std::int16_t>(info.r);
        node_c_[node] = static_cast<std::int16_t>(
            info.side == Side::Left ? 0 : device.cols() - 1);
        break;
      case RoutingFabric::NodeInfo::Type::LongH:
      case RoutingFabric::NodeInfo::Type::LongV:
        base_cost_[node] = 3.0f;  // discourage long lines unless they pay off
        break;
      default:
        break;
    }
  }
  JPG_INFO("routing graph for " << device.spec().name << ": " << n
                                << " nodes, " << edges_.size() << " edges");
}

const RoutingGraph& RoutingGraph::get(const Device& device) {
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<RoutingGraph>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(device.spec().name);
  if (it == cache.end()) {
    it = cache.emplace(device.spec().name,
                       std::make_unique<RoutingGraph>(device))
             .first;
  }
  return *it->second;
}

// --- PathFinder ----------------------------------------------------------------

namespace {

/// Per-worker A* scratch: the stamp/cost/predecessor arrays, the reusable
/// binary heap, and the routing-tree membership stamps. One instance per
/// concurrent search; leased from a pool so rounds of any width reuse the
/// same allocations.
struct RouterScratch {
  std::vector<double> cost;
  std::vector<std::int32_t> prev_edge;  ///< index into edge_store
  std::vector<std::uint32_t> stamp;
  std::uint32_t cur_stamp = 0;
  std::vector<std::pair<std::uint32_t, RoutingGraph::Edge>> edge_store;
  /// Min-heap of (est total, node), reused across sink searches.
  std::vector<std::pair<double, std::size_t>> heap;
  /// Routing-tree membership as a stamp array (replaces the seed's O(n)
  /// std::find over the tree vector) plus the tree nodes for seeding.
  std::vector<std::uint32_t> tree_stamp;
  std::uint32_t tree_mark = 0;
  std::vector<std::size_t> tree;
  std::vector<std::size_t> sinks;

  void ensure(std::size_t n) {
    if (stamp.size() < n) {
      cost.resize(n);
      prev_edge.resize(n);
      stamp.assign(n, 0);
      tree_stamp.assign(n, 0);
      cur_stamp = 0;
      tree_mark = 0;
    }
  }
};

/// Mutex-guarded lease pool of RouterScratch instances (cheap relative to a
/// single A* search; keeps per-worker state off the PathFinder object).
class ScratchPool {
 public:
  explicit ScratchPool(std::size_t nodes) : nodes_(nodes) {}

  RouterScratch* acquire() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<RouterScratch>());
      all_.back()->ensure(nodes_);
      return all_.back().get();
    }
    RouterScratch* s = free_.back();
    free_.pop_back();
    return s;
  }
  void release(RouterScratch* s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(s);
  }

  struct Lease {
    ScratchPool* pool;
    RouterScratch* s;
    explicit Lease(ScratchPool& p) : pool(&p), s(p.acquire()) {}
    ~Lease() { pool->release(s); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
  };

 private:
  std::size_t nodes_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<RouterScratch>> all_;
  std::vector<RouterScratch*> free_;
};

/// Net bounding box over CLB tile coordinates, used to window the A*
/// search. Nets touching position-free nodes (longs, pads, GCLK) get the
/// whole device.
struct NetBBox {
  int r0 = 0, c0 = 0, r1 = 0, c1 = 0;
};

class PathFinder {
 public:
  PathFinder(const RoutingGraph& g, const std::vector<NetToRoute>& nets,
             const RouteConstraints& cons, const RouterOptions& opt)
      : g_(g), nets_(nets), cons_(cons), opt_(opt) {}

  std::vector<RoutedNet> run(RouteStats* stats);

 private:
  void build_permissions();
  void compute_bboxes();
  /// Routes one net against the frozen occupancy/history snapshot using the
  /// given scratch; fills result_[net_idx] but does NOT touch occupancy_
  /// (merged at the round barrier). Throws on unreachable.
  void route_net(std::size_t net_idx, RouterScratch& s);
  void rip_up(std::size_t net_idx);
  std::vector<RoutedNet> assemble(RouteStats* stats, int iterations,
                                  std::size_t spec_rounds,
                                  std::size_t spec_retries,
                                  std::size_t reroutes) const;

  // Seed-algorithm reference implementation (RouterOptions::reference_impl):
  // online occupancy updates, interleaved rip-up, linear tree scans.
  [[nodiscard]] double reference_base_cost(std::size_t node) const;
  [[nodiscard]] double reference_heuristic(std::size_t node,
                                           std::size_t sink) const;
  void reference_route_net(std::size_t net_idx, RouterScratch& s);
  std::vector<RoutedNet> run_reference(RouteStats* stats);

  const RoutingGraph& g_;
  const std::vector<NetToRoute>& nets_;
  const RouteConstraints& cons_;
  const RouterOptions& opt_;

  std::vector<std::uint8_t> allowed_;
  /// Per-CLB-tile permission for *programming a mux there*. Nodes and pip
  /// tiles must be gated separately: a long-line driver's config bits live
  /// in the driving tile's column even though the driven node (the shared
  /// long) is legal — without this gate a static net could program a mux
  /// inside a reconfigurable region and be wiped by the next module swap.
  std::vector<std::uint8_t> tile_allowed_;
  std::vector<int> occupancy_;
  std::vector<double> history_;
  double pres_fac_ = 1.0;

  std::vector<NetBBox> bbox_;  ///< parallel to nets_
  /// A* heap pops over every search (relaxed; flushed once per net search).
  JPG_TELEM(mutable std::atomic<std::uint64_t> astar_pops_{0};)

  // Per-net routing state.
  struct NetRoute {
    std::vector<std::size_t> nodes;  ///< tree nodes excluding the source
    std::vector<RoutingGraph::Edge> edges;
  };
  std::vector<NetRoute> result_;
};

void PathFinder::build_permissions() {
  const Device& dev = g_.device();
  const RoutingFabric& fab = dev.fabric();
  const std::size_t n = fab.num_nodes();
  allowed_.assign(n, 1);

  if (cons_.restrict_region.has_value()) {
    const Region reg = *cons_.restrict_region;
    std::fill(allowed_.begin(), allowed_.end(), 0);
    for (int r = reg.r0; r <= reg.r1; ++r) {
      for (int c = reg.c0; c <= reg.c1; ++c) {
        for (int w = 0; w < kTileWires; ++w) {
          allowed_[fab.tile_wire_node(r, c, w)] = 1;
        }
      }
    }
    if (reg.full_height(dev)) {
      for (int c = reg.c0; c <= reg.c1; ++c) {
        for (int k = 0; k < kLongsPerCol; ++k) {
          allowed_[fab.longv_node(c, k)] = 1;
        }
      }
    }
  }
  for (const Region& reg : cons_.exclude_regions) {
    for (int r = reg.r0; r <= reg.r1; ++r) {
      for (int c = reg.c0; c <= reg.c1; ++c) {
        for (int w = 0; w < kTileWires; ++w) {
          allowed_[fab.tile_wire_node(r, c, w)] = 0;
        }
      }
    }
    for (int c = reg.c0; c <= reg.c1; ++c) {
      for (int k = 0; k < kLongsPerCol; ++k) {
        allowed_[fab.longv_node(c, k)] = 0;
      }
    }
  }
  // Tile gate for mux programming.
  tile_allowed_.assign(
      static_cast<std::size_t>(dev.rows()) * dev.cols(),
      cons_.restrict_region.has_value() ? 0 : 1);
  if (cons_.restrict_region.has_value()) {
    const Region reg = *cons_.restrict_region;
    for (int r = reg.r0; r <= reg.r1; ++r) {
      for (int c = reg.c0; c <= reg.c1; ++c) {
        tile_allowed_[static_cast<std::size_t>(r) * dev.cols() + c] = 1;
      }
    }
  }
  for (const Region& reg : cons_.exclude_regions) {
    for (int r = reg.r0; r <= reg.r1; ++r) {
      for (int c = reg.c0; c <= reg.c1; ++c) {
        tile_allowed_[static_cast<std::size_t>(r) * dev.cols() + c] = 0;
      }
    }
  }

  for (const std::size_t node : cons_.blocked) allowed_[node] = 0;
  for (const std::size_t node : cons_.extra_allowed) allowed_[node] = 1;
  // A net's own source and sinks are always allowed.
  for (const NetToRoute& net : nets_) {
    allowed_[net.source] = 1;
    for (const std::size_t s : net.sinks) allowed_[s] = 1;
  }
}

/// Bounding-box margin (tiles) around a net's terminals; the search window
/// extends it further by kSearchMargin. Keeping a margin here means most
/// detours stay inside the net's own neighbourhood, so speculative routes
/// of spatially separate nets rarely claim the same node.
constexpr int kBBoxMargin = kHexSpan;

void PathFinder::compute_bboxes() {
  const Device& dev = g_.device();
  bbox_.resize(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    NetBBox full{0, 0, dev.rows() - 1, dev.cols() - 1};
    NetBBox b{dev.rows(), dev.cols(), -1, -1};
    bool positional = true;
    auto add = [&](std::size_t node) {
      const int r = g_.node_r(node);
      if (r < 0) {
        positional = false;
        return;
      }
      b.r0 = std::min(b.r0, r);
      b.r1 = std::max(b.r1, r);
      b.c0 = std::min(b.c0, static_cast<int>(g_.node_c(node)));
      b.c1 = std::max(b.c1, static_cast<int>(g_.node_c(node)));
    };
    add(nets_[i].source);
    for (const std::size_t s : nets_[i].sinks) add(s);
    if (!positional) {
      bbox_[i] = full;
      continue;
    }
    b.r0 = std::max(0, b.r0 - kBBoxMargin);
    b.c0 = std::max(0, b.c0 - kBBoxMargin);
    b.r1 = std::min(dev.rows() - 1, b.r1 + kBBoxMargin);
    b.c1 = std::min(dev.cols() - 1, b.c1 + kBBoxMargin);
    bbox_[i] = b;
  }
}

void PathFinder::rip_up(std::size_t net_idx) {
  for (const std::size_t node : result_[net_idx].nodes) {
    --occupancy_[node];
  }
  result_[net_idx].nodes.clear();
  result_[net_idx].edges.clear();
}

/// Extra tiles the *search window* extends beyond the batching bbox. The
/// window prunes A* expansion to the net's neighbourhood — on a large part
/// most of the graph is provably irrelevant to a short net — and a failed
/// windowed search falls back to the full graph, so routability is never
/// lost. Both window and fallback are pure functions of the net, keeping
/// the result thread-count-invariant.
constexpr int kSearchMargin = kHexSpan;

void PathFinder::route_net(std::size_t net_idx, RouterScratch& s) {
  JPG_TELEM(std::uint64_t telem_pops = 0;)
  const NetToRoute& net = nets_[net_idx];
  NetRoute& out = result_[net_idx];
  const Device& dev = g_.device();
  const int cols = dev.cols();

  const NetBBox& bb = bbox_[net_idx];
  const NetBBox win{std::max(0, bb.r0 - kSearchMargin),
                    std::max(0, bb.c0 - kSearchMargin),
                    std::min(dev.rows() - 1, bb.r1 + kSearchMargin),
                    std::min(cols - 1, bb.c1 + kSearchMargin)};
  const bool win_is_full = win.r0 == 0 && win.c0 == 0 &&
                           win.r1 == dev.rows() - 1 && win.c1 == cols - 1;

  // Order sinks farthest-first (stabilises the tree shape); ties break on
  // node id so the order is a pure function of the net.
  const int src_r = g_.node_r(net.source);
  const int src_c = g_.node_c(net.source);
  auto dist_from_source = [&](std::size_t x) {
    const int r = g_.node_r(x);
    if (src_r < 0 || r < 0) return 0;
    return std::abs(src_r - r) + std::abs(src_c - g_.node_c(x));
  };
  s.sinks.assign(net.sinks.begin(), net.sinks.end());
  std::sort(s.sinks.begin(), s.sinks.end(), [&](std::size_t x, std::size_t y) {
    const int dx = dist_from_source(x), dy = dist_from_source(y);
    return dx != dy ? dx > dy : x < y;
  });

  s.tree.clear();
  s.tree.push_back(net.source);
  ++s.tree_mark;
  s.tree_stamp[net.source] = s.tree_mark;

  for (const std::size_t sink : s.sinks) {
    if (s.tree_stamp[sink] == s.tree_mark) continue;  // already in the tree
    // Hoisted sink info: one lookup per sink search, not one per relax.
    const int sink_r = g_.node_r(sink);
    const int sink_c = g_.node_c(sink);
    // Weighted A*: kAstarFac > 1 trades a sliver of path optimality for a
    // large cut in expanded nodes (the admissible bound dist/kHexSpan is a
    // 6x underestimate whenever the route rides singles, so the plain bound
    // degenerates toward Dijkstra). PathFinder's negotiation still converges
    // on slightly non-minimal trees; the factor is identical for every
    // thread count, so determinism is unaffected.
    constexpr double kAstarFac = 2.5;
    auto heur = [&](std::size_t node) -> double {
      if (sink_r < 0) return 0;
      const int r = g_.node_r(node);
      if (r < 0) return 0;
      const double dist = std::abs(r - sink_r) +
                          std::abs(static_cast<int>(g_.node_c(node)) - sink_c);
      return dist * (kAstarFac / static_cast<double>(kHexSpan));
    };
    auto search = [&](bool windowed) -> bool {
      ++s.cur_stamp;
      s.edge_store.clear();
      s.heap.clear();
      auto relax = [&](std::size_t node, double cost, std::int32_t via) {
        if (s.stamp[node] == s.cur_stamp && s.cost[node] <= cost) return;
        s.stamp[node] = s.cur_stamp;
        s.cost[node] = cost;
        s.prev_edge[node] = via;
        s.heap.emplace_back(cost + heur(node), node);
        std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>());
      };
      for (const std::size_t t : s.tree) relax(t, 0.0, -1);

      while (!s.heap.empty()) {
        const auto [est, node] = s.heap.front();
        std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>());
        s.heap.pop_back();
        JPG_TELEM(++telem_pops;)
        if (s.stamp[node] != s.cur_stamp) continue;
        if (est > s.cost[node] + heur(node) + 1e-9) continue;  // stale
        if (node == sink) return true;
        for (const RoutingGraph::Edge& e : g_.out_edges(node)) {
          const std::size_t to = e.to;
          if (!allowed_[to]) continue;
          if (windowed) {
            // Position-free nodes (longs, pads, GCLK) are never pruned.
            const int tr = g_.node_r(to);
            if (tr >= 0 &&
                (tr < win.r0 || tr > win.r1 ||
                 static_cast<int>(g_.node_c(to)) < win.c0 ||
                 static_cast<int>(g_.node_c(to)) > win.c1)) {
              continue;
            }
          }
          // CLB pips also need their tile's config bits to be in bounds.
          if (e.dest_local >= 0 &&
              !tile_allowed_[static_cast<std::size_t>(e.r) * cols + e.c]) {
            continue;
          }
          // Congestion-negotiated cost of entering `to`, against the frozen
          // batch-start snapshot of occupancy/history.
          const double congestion =
              1.0 + pres_fac_ * static_cast<double>(occupancy_[to]);
          const double c =
              s.cost[node] + g_.base_cost(to) * congestion + history_[to];
          if (s.stamp[to] == s.cur_stamp && s.cost[to] <= c) continue;
          s.edge_store.emplace_back(static_cast<std::uint32_t>(node), e);
          relax(to, c, static_cast<std::int32_t>(s.edge_store.size() - 1));
        }
      }
      return false;
    };
    bool found = search(/*windowed=*/!win_is_full);
    // A detour forced outside the window (e.g. around an excluded region)
    // retries against the whole graph before the net is called unroutable.
    if (!found && !win_is_full) found = search(/*windowed=*/false);
    if (!found) {
      std::ostringstream os;
      os << "unroutable net (id " << net.id << "): no path to sink "
         << g_.device().fabric().node_name(sink);
      throw DeviceError(os.str());
    }
    // Walk back, appending new nodes/edges to the tree.
    std::size_t node = sink;
    while (s.prev_edge[node] >= 0) {
      const auto& [from, edge] =
          s.edge_store[static_cast<std::size_t>(s.prev_edge[node])];
      out.nodes.push_back(node);
      out.edges.push_back(edge);
      s.tree.push_back(node);
      s.tree_stamp[node] = s.tree_mark;
      node = from;
    }
  }
  JPG_TELEM(astar_pops_.fetch_add(telem_pops, std::memory_order_relaxed);)
  JPG_COUNT("pnr.route.astar_pops", telem_pops);
}

std::vector<RoutedNet> PathFinder::assemble(RouteStats* stats, int iterations,
                                            std::size_t spec_rounds,
                                            std::size_t spec_retries,
                                            std::size_t reroutes) const {
  std::vector<RoutedNet> routed(nets_.size());
  std::size_t nodes_used = 0, pips = 0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    routed[i].net = nets_[i].id;
    for (const RoutingGraph::Edge& e : result_[i].edges) {
      if (e.dest_local >= 0) {
        routed[i].pips.push_back(
            RoutedPip{TileCoord{e.r, e.c}, e.dest_local, e.sel});
      } else {
        const Side side =
            e.dest_local == RoutingGraph::kPadInLeft ? Side::Left : Side::Right;
        routed[i].iob_pips.push_back(IobRoute{IobSite{side, e.r, e.c}, e.sel});
      }
    }
    nodes_used += result_[i].nodes.size();
    pips += routed[i].pips.size() + routed[i].iob_pips.size();
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->nodes_used = nodes_used;
    stats->total_pips = pips;
    stats->spec_rounds = spec_rounds;
    stats->spec_retries = spec_retries;
    stats->nets_rerouted = reroutes;
  }
  JPG_DEBUG("router: " << nets_.size() << " nets, " << pips << " pips, "
                       << iterations << " iterations, " << spec_rounds
                       << " rounds, " << spec_retries << " retries");
  return routed;
}

std::vector<RoutedNet> PathFinder::run(RouteStats* stats) {
  JPG_SPAN("pnr.route");
  const std::uint64_t telem_t0 = telemetry::now_ns();
  build_permissions();
  const std::size_t n = g_.num_nodes();
  occupancy_.assign(n, 0);
  history_.assign(n, 0.0);
  result_.assign(nets_.size(), {});

  if (opt_.reference_impl) return run_reference(stats);

  compute_bboxes();
  // Execution width: 1 routes in the caller's thread; 0/auto and N>1 lease
  // a shared pool. The result is identical either way (batch snapshots).
  ThreadPool* pool = nullptr;
  std::shared_ptr<ThreadPool> pool_lease;  // keeps the sized pool alive
  if (opt_.num_threads != 1) {
    pool_lease = ThreadPool::sized(
        opt_.num_threads <= 0 ? 0 : static_cast<std::size_t>(opt_.num_threads));
    if (pool_lease->size() > 1) pool = pool_lease.get();
  }
  ScratchPool scratch(n);

  pres_fac_ = opt_.pres_fac_first;
  const int max_spec_rounds = std::max(1, opt_.max_spec_rounds);
  std::vector<std::size_t> work, pending, retry;
  std::vector<std::size_t> overused_nodes;
  /// Nodes claimed by merges of the current iteration (stamped, reset from
  /// the claim list at iteration end so the cost stays O(claimed)).
  std::vector<std::uint8_t> claimed(n, 0);
  std::vector<std::size_t> claimed_nodes;
  std::size_t round_count = 0, retry_count = 0, reroutes = 0;
  int iter = 0;
  for (iter = 1; iter <= opt_.max_iterations; ++iter) {
    // Nets that are unrouted or ride an overused node get rerouted.
    work.clear();
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      bool needs = result_[i].nodes.empty() && !nets_[i].sinks.empty();
      for (const std::size_t node : result_[i].nodes) {
        if (occupancy_[node] > 1) {
          needs = true;
          break;
        }
      }
      if (needs) work.push_back(i);
    }
    for (const std::size_t i : work) rip_up(i);
    reroutes += work.size();

    // Speculative rounds: round 1 routes the whole wave concurrently
    // against the frozen iteration-start snapshot; merge walks the wave in
    // net order, and a net that lands on a node an earlier-merged net of
    // this iteration claimed is discarded and rerouted next round against
    // the updated snapshot (which now prices those claims). Conflicts with
    // *surviving* routes from earlier iterations are not retried — a
    // retry's snapshot would be unchanged there, so the search would just
    // repeat; pres_fac/history negotiation resolves those, exactly as the
    // batched scheduler left them. Every step is a pure function of the
    // net order and the snapshots, so any thread count produces the same
    // bytes.
    overused_nodes.clear();
    claimed_nodes.clear();
    pending = work;
    for (int round = 1; !pending.empty(); ++round) {
      ++round_count;
      JPG_TELEM(JPG_HIST("pnr.route.round_width", pending.size());)
      // occupancy_/history_ are read-only until every search of the round
      // has finished.
      if (pool == nullptr || pending.size() == 1) {
        ScratchPool::Lease lease(scratch);
        for (const std::size_t i : pending) route_net(i, *lease.s);
      } else {
        pool->parallel_for(pending.size(), [&](std::size_t k) {
          ScratchPool::Lease lease(scratch);
          route_net(pending[k], *lease.s);
        });
      }
      // Deterministic merge barrier: claims land in net order. Rip-up
      // leaves every node at occupancy 0 or 1 (all riders of an overused
      // node are rerouted together), so a node is overused this iteration
      // iff some merge increment takes it to exactly 2 — record that
      // transition and the congestion check below stays O(overused).
      const bool accept_all = round >= max_spec_rounds;
      retry.clear();
      for (const std::size_t i : pending) {
        bool conflict = false;
        if (!accept_all) {
          for (const std::size_t node : result_[i].nodes) {
            if (claimed[node] != 0) {
              conflict = true;
              break;
            }
          }
        }
        if (conflict) {
          result_[i].nodes.clear();
          result_[i].edges.clear();
          retry.push_back(i);
          ++retry_count;
          continue;
        }
        for (const std::size_t node : result_[i].nodes) {
          if (claimed[node] == 0) {
            claimed[node] = 1;
            claimed_nodes.push_back(node);
          }
          if (++occupancy_[node] == 2) overused_nodes.push_back(node);
        }
      }
      pending.swap(retry);
    }
    for (const std::size_t node : claimed_nodes) claimed[node] = 0;

    // Check for congestion.
    JPG_HIST("pnr.route.overuse", overused_nodes.size());
    for (const std::size_t node : overused_nodes) {
      history_[node] +=
          opt_.hist_fac * static_cast<double>(occupancy_[node] - 1);
    }
    if (overused_nodes.empty()) break;
    pres_fac_ *= opt_.pres_fac_mult;
    if (iter == opt_.max_iterations) {
      throw DeviceError("router failed to resolve congestion after " +
                        std::to_string(iter) + " iterations");
    }
  }

  std::vector<RoutedNet> routed =
      assemble(stats, iter, round_count, retry_count, reroutes);
  if (stats != nullptr) {
    stats->telemetry.duration_ns = telemetry::now_ns() - telem_t0;
    stats->telemetry.set("iterations", static_cast<std::uint64_t>(iter));
    stats->telemetry.set("spec_rounds", round_count);
    stats->telemetry.set("spec_retries", retry_count);
    stats->telemetry.set("nets_rerouted", reroutes);
    JPG_TELEM(stats->telemetry.set(
        "astar_pops", astar_pops_.load(std::memory_order_relaxed));)
  }
  JPG_COUNT("pnr.route.runs", 1);
  JPG_COUNT("pnr.route.iterations", static_cast<std::uint64_t>(iter));
  JPG_COUNT("pnr.route.spec_rounds", round_count);
  JPG_COUNT("pnr.route.spec_retries", retry_count);
  JPG_COUNT("pnr.route.nets_rerouted", reroutes);
  return routed;
}

// --- Seed-algorithm reference (bench baseline) -------------------------------

double PathFinder::reference_base_cost(std::size_t node) const {
  const auto info = g_.device().fabric().node_info(node);
  switch (info.type) {
    case RoutingFabric::NodeInfo::Type::LongH:
    case RoutingFabric::NodeInfo::Type::LongV:
      return 3.0;
    default:
      return 1.0;
  }
}

double PathFinder::reference_heuristic(std::size_t node,
                                       std::size_t sink) const {
  const RoutingFabric& fab = g_.device().fabric();
  const auto a = fab.node_info(node);
  const auto b = fab.node_info(sink);
  if (a.type != RoutingFabric::NodeInfo::Type::TileWire ||
      b.type != RoutingFabric::NodeInfo::Type::TileWire) {
    return 0;
  }
  const double dist = std::abs(a.r - b.r) + std::abs(a.c - b.c);
  return dist / static_cast<double>(kHexSpan);
}

void PathFinder::reference_route_net(std::size_t net_idx, RouterScratch& s) {
  const NetToRoute& net = nets_[net_idx];
  NetRoute& out = result_[net_idx];

  std::vector<std::size_t> sinks = net.sinks;
  std::sort(sinks.begin(), sinks.end(), [&](std::size_t x, std::size_t y) {
    return reference_heuristic(net.source, x) >
           reference_heuristic(net.source, y);
  });

  std::vector<std::size_t> tree = {net.source};

  using QItem = std::pair<double, std::size_t>;
  for (const std::size_t sink : sinks) {
    if (std::find(tree.begin(), tree.end(), sink) != tree.end()) continue;
    ++s.cur_stamp;
    s.edge_store.clear();
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
    auto relax = [&](std::size_t node, double cost, std::int32_t via) {
      if (s.stamp[node] == s.cur_stamp && s.cost[node] <= cost) return;
      s.stamp[node] = s.cur_stamp;
      s.cost[node] = cost;
      s.prev_edge[node] = via;
      pq.emplace(cost + reference_heuristic(node, sink), node);
    };
    for (const std::size_t t : tree) relax(t, 0.0, -1);

    bool found = false;
    while (!pq.empty()) {
      const auto [est, node] = pq.top();
      pq.pop();
      if (s.stamp[node] != s.cur_stamp) continue;
      if (est > s.cost[node] + reference_heuristic(node, sink) + 1e-9) continue;
      if (node == sink) {
        found = true;
        break;
      }
      for (const RoutingGraph::Edge& e : g_.out_edges(node)) {
        const std::size_t to = e.to;
        if (!allowed_[to]) continue;
        if (e.dest_local >= 0 &&
            !tile_allowed_[static_cast<std::size_t>(e.r) * g_.device().cols() +
                           e.c]) {
          continue;
        }
        const double congestion =
            1.0 + pres_fac_ * static_cast<double>(occupancy_[to]);
        const double c =
            s.cost[node] + reference_base_cost(to) * congestion + history_[to];
        if (s.stamp[to] == s.cur_stamp && s.cost[to] <= c) continue;
        s.edge_store.emplace_back(static_cast<std::uint32_t>(node), e);
        relax(to, c, static_cast<std::int32_t>(s.edge_store.size() - 1));
      }
    }
    if (!found) {
      std::ostringstream os;
      os << "unroutable net (id " << net.id << "): no path to sink "
         << g_.device().fabric().node_name(sink);
      throw DeviceError(os.str());
    }
    std::size_t node = sink;
    while (s.prev_edge[node] >= 0) {
      const auto& [from, edge] =
          s.edge_store[static_cast<std::size_t>(s.prev_edge[node])];
      out.nodes.push_back(node);
      ++occupancy_[node];
      out.edges.push_back(edge);
      tree.push_back(node);
      node = from;
    }
  }
}

std::vector<RoutedNet> PathFinder::run_reference(RouteStats* stats) {
  const std::size_t n = g_.num_nodes();
  RouterScratch scratch;
  scratch.ensure(n);

  pres_fac_ = opt_.pres_fac_first;
  std::size_t reroutes = 0;
  int iter = 0;
  for (iter = 1; iter <= opt_.max_iterations; ++iter) {
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      bool needs = result_[i].nodes.empty() && !nets_[i].sinks.empty();
      for (const std::size_t node : result_[i].nodes) {
        if (occupancy_[node] > 1) {
          needs = true;
          break;
        }
      }
      if (!needs) continue;
      rip_up(i);
      reference_route_net(i, scratch);
      ++reroutes;
    }
    bool overused = false;
    for (std::size_t node = 0; node < n; ++node) {
      if (occupancy_[node] > 1) {
        overused = true;
        history_[node] +=
            opt_.hist_fac * static_cast<double>(occupancy_[node] - 1);
      }
    }
    if (!overused) break;
    pres_fac_ *= opt_.pres_fac_mult;
    if (iter == opt_.max_iterations) {
      throw DeviceError("router failed to resolve congestion after " +
                        std::to_string(iter) + " iterations");
    }
  }

  return assemble(stats, iter, 0, 0, reroutes);
}

}  // namespace

std::vector<RoutedNet> route_nets(const RoutingGraph& graph,
                                  const std::vector<NetToRoute>& nets,
                                  const RouteConstraints& constraints,
                                  const RouterOptions& options,
                                  RouteStats* stats) {
  PathFinder pf(graph, nets, constraints, options);
  return pf.run(stats);
}

}  // namespace jpg
