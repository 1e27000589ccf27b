// ReconfigService: the multi-tenant reconfiguration core. Covers the final
// board planes after concurrent verified swaps (two boards, interleaved
// tenants), admission control at the configured queue depth, per-tenant
// resident-quota enforcement (telemetry-verified), resident-lease sharing
// across tenants, DRR fairness (a small tenant is not starved behind a
// flooding one), shutdown semantics, and request validation. Runs under the
// tsan label: submit, dispatch, execution and completion all race by design.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/partial_gen.h"
#include "device/device.h"
#include "service/load_harness.h"
#include "service/reconfig_service.h"
#include "support/telemetry/telemetry.h"

namespace jpg {
namespace {

std::uint64_t svc_counter(const char* name) {
#if JPG_TELEMETRY_ENABLED
  return telemetry::MetricsRegistry::global().snapshot().counter(name);
#else
  (void)name;
  return 0;
#endif
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    fx_ = std::make_unique<LoadFixture>(make_load_fixture(*dev_, 77, 2, 5));
  }

  /// The plane a board should hold after applying `swaps` (slot, variant)
  /// in order to the fixture base. Each step composes over the *evolving*
  /// plane (apply_to_base would reset to the pristine base every time).
  ConfigMemory expected_plane(
      const std::vector<std::pair<std::size_t, std::size_t>>& swaps) const {
    ConfigMemory want(fx_->base);
    for (const auto& [slot, variant] : swaps) {
      const PartialBitstreamGenerator gen(want);
      want = gen.compose(fx_->variants[variant], fx_->slots[slot]);
    }
    return want;
  }

  const Device* dev_ = nullptr;
  std::unique_ptr<LoadFixture> fx_;
};

TEST_F(ServiceTest, ConcurrentSwapsConvergeToExpectedPlanes) {
  ReconfigService svc(*dev_, fx_->base, 2, {});

  // One tenant per board: a tenant's queue is FIFO and a board serialises
  // its swaps, so each board's final plane is the ordered composition.
  const std::vector<std::pair<std::size_t, std::size_t>> on0{
      {0, 0}, {1, 1}, {0, 2}};
  const std::vector<std::pair<std::size_t, std::size_t>> on1{{1, 2}, {0, 1}};
  std::vector<std::future<ServiceResponse>> futures;
  for (const auto& [slot, variant] : on0) {
    ServiceRequest r = fx_->request(slot, variant, "alpha");
    r.board = 0;
    futures.push_back(svc.submit(std::move(r)));
  }
  for (const auto& [slot, variant] : on1) {
    ServiceRequest r = fx_->request(slot, variant, "beta");
    r.board = 1;
    futures.push_back(svc.submit(std::move(r)));
  }
  for (auto& f : futures) {
    const ServiceResponse resp = f.get();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_TRUE(resp.report.ok());
  }
  svc.shutdown();

  EXPECT_EQ(svc.board(0).config(), expected_plane(on0));
  EXPECT_EQ(svc.board(1).config(), expected_plane(on1));
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.inflight, 0u);
}

TEST_F(ServiceTest, AdmissionControlRejectsBeyondQueueDepth) {
  ServiceConfig cfg;
  cfg.queue_depth = 4;
  cfg.start_paused = true;  // stage the backlog deterministically
  ReconfigService svc(*dev_, fx_->base, 1, cfg);

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(fx_->request(0, 0, "t")));
  }
  // Rejections are synchronous: the overflow futures are already ready.
  for (int i = 4; i < 6; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().error,
              ServiceError::QueueFull);
  }
  svc.resume();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[static_cast<std::size_t>(i)].get().ok());
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected_queue_full, 2u);
  EXPECT_LE(st.queue_peak, 4u);
  EXPECT_EQ(st.completed, 4u);
}

TEST_F(ServiceTest, TenantQuotaEvictsLeastRecentlyUsedLease) {
  ServiceConfig cfg;
  cfg.tenant_quota = 2;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);

  const std::uint64_t evict0 = svc_counter("svc.quota.evictions");
  // Five distinct variants through one tenant, sequentially: the resident
  // set must never exceed the quota of two.
  for (std::size_t v = 0; v < 5; ++v) {
    const ServiceResponse resp = svc.submit(fx_->request(0, v, "solo")).get();
    ASSERT_TRUE(resp.ok()) << resp.message;
  }
  const ServiceStats st = svc.stats();
  const TenantStats& ts = st.tenants.at("solo");
  EXPECT_EQ(ts.completed, 5u);
  EXPECT_LE(ts.resident_entries, 2u);
  EXPECT_LE(ts.resident_peak, 2u);
  EXPECT_EQ(ts.quota_evictions, 3u);
  EXPECT_LE(st.resident_entries, 2u);  // registry reaped the evicted leases
#if JPG_TELEMETRY_ENABLED
  EXPECT_EQ(svc_counter("svc.quota.evictions") - evict0, 3u);
#else
  (void)evict0;
#endif
  svc.shutdown();
}

TEST_F(ServiceTest, TenantsShareResidentLeases) {
  ReconfigService svc(*dev_, fx_->base, 1, {});
  // Warm through a Generate, then both tenants hit the same resident key.
  ServiceRequest warm = fx_->request(1, 3, "a", RequestKind::Generate);
  ASSERT_TRUE(svc.submit(std::move(warm)).get().ok());
  const ServiceResponse ra = svc.submit(fx_->request(1, 3, "a")).get();
  const ServiceResponse rb = svc.submit(fx_->request(1, 3, "b")).get();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra.resident_hit);
  EXPECT_TRUE(rb.resident_hit);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.tenants.at("a").resident_hits, 1u);
  EXPECT_EQ(st.tenants.at("b").resident_hits, 1u);
  // One shared entry, not one per tenant.
  EXPECT_EQ(st.resident_entries, 1u);
}

TEST_F(ServiceTest, DeficitRoundRobinDoesNotStarveSmallTenants) {
  // Fairness must not depend on how many swaps may be in flight: 0 is the
  // pool width, and every value above 1 leaves inflight slots spare while
  // the one board is busy.
  for (const std::size_t max_inflight : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("max_inflight=" + std::to_string(max_inflight));
    ServiceConfig cfg;
    cfg.start_paused = true;
    cfg.max_inflight = max_inflight;
    cfg.drr_quantum_words = 1u << 24;  // quantum >> cost: pure round-robin
    ReconfigService svc(*dev_, fx_->base, 1, cfg);

    // Tenant "flood" stages 8 swaps before "small" stages 2. FIFO-by-arrival
    // would dispatch small's at seq 8 and 9; DRR must interleave them early.
    std::vector<std::future<ServiceResponse>> flood;
    std::vector<std::future<ServiceResponse>> small;
    for (int i = 0; i < 8; ++i) {
      flood.push_back(svc.submit(fx_->request(0, 0, "flood")));
    }
    for (int i = 0; i < 2; ++i) {
      small.push_back(svc.submit(fx_->request(1, 1, "small")));
    }
    svc.resume();
    std::uint64_t flood_max = 0;
    std::uint64_t small_max = 0;
    for (auto& f : flood) {
      const ServiceResponse r = f.get();
      ASSERT_TRUE(r.ok()) << r.message;
      flood_max = std::max(flood_max, r.dispatch_seq);
    }
    for (auto& f : small) {
      const ServiceResponse r = f.get();
      ASSERT_TRUE(r.ok()) << r.message;
      small_max = std::max(small_max, r.dispatch_seq);
    }
    EXPECT_LT(small_max, flood_max);
    // Both of small's swaps dispatch well before flood's last.
    EXPECT_LE(small_max, 6u);
    svc.shutdown();
  }
}

TEST_F(ServiceTest, ShutdownRejectsQueuedAndNewRequests) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReconfigService svc(*dev_, fx_->base, 1, cfg);
  std::vector<std::future<ServiceResponse>> staged;
  for (int i = 0; i < 3; ++i) {
    staged.push_back(svc.submit(fx_->request(0, 0, "t")));
  }
  svc.shutdown(/*drain=*/false);
  for (auto& f : staged) {
    EXPECT_EQ(f.get().error, ServiceError::ShuttingDown);
  }
  EXPECT_EQ(svc.submit(fx_->request(0, 0, "t")).get().error,
            ServiceError::ShuttingDown);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.rejected_shutdown, 4u);
  EXPECT_EQ(st.completed, 0u);
}

TEST_F(ServiceTest, ValidatesRequestsSynchronously) {
  ReconfigService svc(*dev_, fx_->base, 1, {});
  ServiceRequest no_module = fx_->request(0, 0, "t");
  no_module.module_config = nullptr;
  EXPECT_EQ(svc.submit(std::move(no_module)).get().error,
            ServiceError::BadRequest);

  ServiceRequest bad_board = fx_->request(0, 0, "t");
  bad_board.board = 7;
  EXPECT_EQ(svc.submit(std::move(bad_board)).get().error,
            ServiceError::BadRequest);

  ServiceRequest no_variant = fx_->request(0, 0, "t");
  no_variant.variant.clear();
  EXPECT_EQ(svc.submit(std::move(no_variant)).get().error,
            ServiceError::BadRequest);

  ServiceRequest bad_region = fx_->request(0, 0, "t");
  bad_region.region.c1 = dev_->cols() + 3;
  EXPECT_EQ(svc.submit(std::move(bad_region)).get().error,
            ServiceError::BadRequest);
}

TEST_F(ServiceTest, PoissonLoadCompletesEveryAcceptedRequest) {
  ServiceConfig cfg;
  cfg.queue_depth = 32;
  ReconfigService svc(*dev_, fx_->base, 2, cfg);
  PoissonLoadOptions opt;
  opt.requests = 60;
  opt.tenants = 4;
  opt.rate_hz = 0;  // back-to-back: saturates, may exercise QueueFull
  opt.seed = 5;
  const PoissonLoadResult res = run_poisson_load(svc, *fx_, opt);
  EXPECT_EQ(res.completed + res.rejected + res.failed, 60u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(res.completed, 0u);
  EXPECT_EQ(res.latencies_ns.size(), res.completed);
  EXPECT_GT(percentile_ns(res.latencies_ns, 99), 0u);
  svc.shutdown();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, res.completed);
  EXPECT_LE(st.queue_peak, 32u);
}

}  // namespace
}  // namespace jpg
