// Concurrent verified streamed downloads: several threads drive distinct
// FaultyBoards through their own VerifiedDownloaders simultaneously, all
// leasing pbits from ONE shared PartialBitstreamGenerator at once. Run
// under the tsan label: this is the contended path the multi-tenant service
// stands on. After
// every swap the two-state invariant must hold per board: the plane is the
// verified target (Success) or the previous verified plane (RolledBack),
// never anything in between.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "bitstream/bitgen.h"
#include "core/partial_gen.h"
#include "device/device.h"
#include "hwif/faulty_board.h"
#include "hwif/sim_board.h"
#include "hwif/stream_source.h"
#include "hwif/verified_downloader.h"
#include "support/rng.h"

namespace jpg {
namespace {

ConfigMemory noise_plane(const Device& dev, std::uint64_t seed) {
  ConfigMemory m(dev);
  Rng rng(seed);
  for (std::size_t f = 0; f < m.num_frames(); ++f) {
    for (std::size_t w = 0; w < dev.frames().frame_words(); ++w) {
      m.frame(f).set_word(w, static_cast<std::uint32_t>(rng.next()));
    }
  }
  return m;
}

TEST(ConcurrentStreamTest, DistinctFaultyBoardsKeepTwoStateInvariant) {
  constexpr std::size_t kThreads = 4;
  constexpr int kSwapsPerThread = 6;
  const Device& dev = Device::get("XCV50");
  const ConfigMemory base = noise_plane(dev, 404);
  const Bitstream base_bit = generate_full_bitstream(base);
  PartialBitstreamGenerator gen(base);

  struct Lane {
    Region region;
    ConfigMemory mod_a;
    ConfigMemory mod_b;
    std::unique_ptr<SimBoard> inner;
    std::unique_ptr<FaultyBoard> board;
    std::unique_ptr<VerifiedDownloader> dl;
    std::vector<std::string> failures;  // reported from the thread
  };
  std::vector<Lane> lanes;
  lanes.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Disjoint full-height two-column bands: every lane's lease is a
    // distinct cache entry, so concurrent pinning never collides.
    const int c0 = static_cast<int>(2 * t);
    Lane lane{Region{0, c0, dev.rows() - 1, c0 + 1},
              noise_plane(dev, 1000 + t),
              noise_plane(dev, 2000 + t),
              std::make_unique<SimBoard>(dev),
              nullptr,
              nullptr,
              {}};
    lane.inner->send_config(base_bit.words);
    FaultProfile profile;
    profile.word_flip = 0.001;
    profile.readback_flip = 0.0005;
    profile.fault_budget = 6;  // transient: budget spent -> clean board
    lane.board =
        std::make_unique<FaultyBoard>(*lane.inner, profile, 7000 + t);
    DownloadPolicy policy;
    policy.full_sweep = false;
    lane.dl = std::make_unique<VerifiedDownloader>(*lane.board, dev, policy);
    lane.dl->assume_board_state(base);
    lanes.push_back(std::move(lane));
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Lane& lane = lanes[t];
      // Both leases are taken once and reused: a (region, content) pair is
      // one pinned cache entry, and pinning it twice would throw.
      const PbitLease lease_a = gen.generate_leased(lane.mod_a, lane.region);
      const PbitLease lease_b = gen.generate_leased(lane.mod_b, lane.region);
      ConfigMemory target_a(base);
      gen.apply_to_base(target_a, lane.mod_a, lane.region);
      ConfigMemory target_b(base);
      gen.apply_to_base(target_b, lane.mod_b, lane.region);

      StreamOptions opts;
      opts.burst_words = 128;
      const ConfigMemory* verified = &base;
      for (int i = 0; i < kSwapsPerThread; ++i) {
        const bool use_a = (i % 2) == 0;
        const DownloadReport rep = lane.dl->download(
            StreamSource::of(use_a ? lease_a.words() : lease_b.words()),
            opts);
        const ConfigMemory* want = verified;
        if (rep.status == DownloadStatus::Success) {
          want = use_a ? &target_a : &target_b;
        } else if (rep.status != DownloadStatus::RolledBack) {
          lane.failures.push_back("swap " + std::to_string(i) +
                                  " neither verified nor rolled back: " +
                                  rep.summary());
          break;
        }
        if (!(lane.inner->config() == *want)) {
          lane.failures.push_back(
              "swap " + std::to_string(i) +
              " plane does not match its verified state (" + rep.summary() +
              ")");
          break;
        }
        verified = want;
      }
    });
  }
  for (auto& th : threads) th.join();

  std::size_t faults_total = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::string& f : lanes[t].failures) {
      ADD_FAILURE() << "lane " << t << ": " << f;
    }
    faults_total += lanes[t].board->faults_injected();
  }
  // The profile is tuned to actually exercise the repair path somewhere
  // across the run; a completely clean campaign proves nothing.
  EXPECT_GT(faults_total, 0u);
}

}  // namespace
}  // namespace jpg
