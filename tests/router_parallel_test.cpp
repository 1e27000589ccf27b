// Regression tests for the speculative router (DESIGN.md §5c): each
// PathFinder round routes its wave against a frozen occupancy/history
// snapshot and merges — with conflict detection and retry — in net order,
// so the routed bytes and the round structure are a pure function of the
// input. The XCV50 and XCV800 work lists below are pinned to recorded
// digests and round/retry counts; the golden corpus only reaches XCV50 and
// XCV300, and these lists are what give the speculative merge real
// conflicts to resolve at scale.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "pnr/flow.h"

namespace jpg {
namespace {

/// Spatially spread nets: slice output at (r, c) to an F1 input mux a few
/// columns east. Disjoint bounding boxes mean round 1 usually lands every
/// net conflict-free.
std::vector<NetToRoute> spread_nets(const Device& dev) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  for (int r = 0; r < dev.rows(); r += 2) {
    for (int c = 0; c + 3 < dev.cols(); c += 5) {
      NetToRoute n;
      n.id = static_cast<NetId>(nets.size());
      n.source = fab.tile_wire_node(r, c, pin_local(0, SlicePin::X));
      n.sinks = {fab.tile_wire_node(r, c + 3, imux_local(0, ImuxPin::F1))};
      nets.push_back(std::move(n));
    }
  }
  return nets;
}

/// Congested nets: sources spread over the west half all targeting input
/// muxes of one narrow column band, forcing several PathFinder iterations
/// and real speculative conflict retries.
std::vector<NetToRoute> congested_nets(const Device& dev) {
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  const int sink_col = dev.cols() - 3;
  for (int r = 2; r + 2 < dev.rows(); ++r) {
    NetToRoute n;
    n.id = static_cast<NetId>(nets.size());
    n.source = fab.tile_wire_node(r, (r * 3) % (dev.cols() / 2),
                                  pin_local(r % 2, SlicePin::X));
    n.sinks = {
        fab.tile_wire_node(r, sink_col, imux_local(0, ImuxPin::F1)),
        fab.tile_wire_node((r + 5) % dev.rows(), sink_col,
                           imux_local(1, ImuxPin::G2))};
    nets.push_back(std::move(n));
  }
  return nets;
}

/// FNV-1a digest of a routed result.
std::uint64_t route_digest(const std::vector<RoutedNet>& routes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const RoutedNet& rn : routes) {
    mix(static_cast<std::uint64_t>(rn.net));
    for (const RoutedPip& p : rn.pips) {
      mix((static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.tile.r)) << 48) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.tile.c)) << 32) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.dest_local)) << 16) ^
          p.sel);
    }
    for (const IobRoute& p : rn.iob_pips) {
      mix((static_cast<std::uint64_t>(p.site.side == Side::Left ? 1 : 2) << 40) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.site.row)) << 20) ^
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.site.k)) << 4) ^
          p.omux_sel);
    }
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// One pinned work list: the routed digest plus the speculative round
/// structure it took to get there.
struct PinnedCase {
  const char* list;
  std::vector<NetToRoute> (*make)(const Device&);
  const char* digest;
  std::size_t spec_rounds;
  std::size_t spec_retries;
  int iterations;
};

/// Routes each case on `part` and checks it against its recorded values.
/// A change here means the routed bytes moved, which the golden corpus and
/// every cached pbit depend on.
void expect_recorded(const char* part, std::size_t min_nets,
                     std::initializer_list<PinnedCase> cases) {
  const Device& dev = Device::get(part);
  const RoutingGraph& g = RoutingGraph::get(dev);
  for (const PinnedCase& c : cases) {
    const std::vector<NetToRoute> nets = c.make(dev);
    ASSERT_GT(nets.size(), min_nets) << c.list;
    RouteStats stats;
    const std::string digest =
        hex16(route_digest(route_nets(g, nets, {}, {}, &stats)));
    EXPECT_EQ(digest, c.digest) << c.list;
    EXPECT_EQ(stats.spec_rounds, c.spec_rounds) << c.list;
    EXPECT_EQ(stats.spec_retries, c.spec_retries) << c.list;
    EXPECT_EQ(stats.iterations, c.iterations) << c.list;
  }
}

TEST(RouterParallel, RouteNetsMatchRecordedOnXCV50) {
  expect_recorded("XCV50", 8u,
                  {{"spread", &spread_nets, "daa8c3b625a3c613", 2, 32, 1},
                   {"congested", &congested_nets, "159e2fd1bdba187c", 3, 6, 1}});
}

TEST(RouterParallel, SpeculativeDigestsMatchRecordedOnXCV800) {
  // Hundreds of speculative searches per round, with the congested band
  // forcing real conflict retries.
  expect_recorded("XCV800", 50u,
                  {{"spread", &spread_nets, "767f0fea282fbdcf", 2, 448, 1},
                   {"congested", &congested_nets, "390ea7c0525116fe", 17, 44, 6}});
}

TEST(RouterParallel, RegionExclusionKeepsStaticNetsOutside) {
  const Device& dev = Device::get("XCV50");
  const RoutingGraph& g = RoutingGraph::get(dev);
  const Region region{0, 8, dev.rows() - 1, 15};

  // Static nets detouring around an excluded region exercise the region
  // permission path under the snapshot discipline.
  const RoutingFabric& fab = dev.fabric();
  std::vector<NetToRoute> nets;
  for (int r = 1; r + 1 < dev.rows(); r += 2) {
    NetToRoute n;
    n.id = static_cast<NetId>(nets.size());
    n.source = fab.tile_wire_node(r, 20, pin_local(0, SlicePin::X));
    n.sinks = {fab.tile_wire_node(r, 2, imux_local(0, ImuxPin::F1))};
    nets.push_back(std::move(n));
  }
  RouteConstraints rc;
  rc.exclude_regions.push_back(region);

  const auto routed = route_nets(g, nets, rc);
  ASSERT_EQ(routed.size(), nets.size());
  for (const RoutedNet& rn : routed) {
    EXPECT_FALSE(rn.pips.empty());
    for (const RoutedPip& p : rn.pips) {
      ASSERT_FALSE(region.contains(p.tile));
    }
  }
}

}  // namespace
}  // namespace jpg
