// End-to-end tests of the jpg_cli binary: generates real .bit/.xdl/.ucf
// fixtures through the library, then drives the tool as a user would.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "netlib/generators.h"
#include "pnr/flow.h"
#include "support/telemetry/telemetry.h"
#include "ucf/ucf_parser.h"
#include "xdl/xdl_writer.h"

#ifndef JPG_CLI_PATH
#error "JPG_CLI_PATH must point at the jpg_cli binary"
#endif

namespace jpg {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Unique per process: ctest runs each case as its own process, all in
    // parallel, so a shared fixture directory races with itself.
    dir_ = new fs::path(fs::path(::testing::TempDir()) /
                        ("jpg_cli_test_" + std::to_string(getpid())));
    fs::create_directories(*dir_);

    const Device& dev = Device::get("XCV50");
    const Region region{0, 6, dev.rows() - 1, 9};
    Netlist top("cli_base");
    const auto merged = top.merge_module(netlib::make_nrz_encoder(), "u1");
    PartitionSpec spec;
    spec.name = "u1";
    spec.region = region;
    for (const auto& [port, net] : merged.inputs) {
      top.add_ibuf("ib_" + port, port, net);
      spec.input_ports.emplace_back(port, net);
    }
    for (const auto& [port, net] : merged.outputs) {
      top.add_obuf("ob_" + port, port, net);
      spec.output_ports.emplace_back(port, net);
    }
    const BaseFlowResult base = run_base_flow(dev, top, {spec});
    ConfigMemory mem(dev);
    CBits cb(mem);
    base.design->apply(cb);
    generate_full_bitstream(mem).save((*dir_ / "base.bit").string());

    const ModuleFlowResult mod =
        run_module_flow(dev, netlib::make_nrz_encoder(), base.interface_of("u1"));
    std::ofstream xdl(*dir_ / "mod.xdl");
    xdl << write_xdl(*mod.design);
    UcfData ucf;
    ucf.area_group_ranges["AG_u1"] = region;
    std::ofstream ucf_out(*dir_ / "mod.ucf");
    ucf_out << write_ucf(ucf, dev);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete dir_;
    dir_ = nullptr;
  }

  static int run(const std::string& args) {
    const std::string cmd = std::string(JPG_CLI_PATH) + " " + args +
                            " > " + (*dir_ / "out.txt").string() + " 2>&1";
    return std::system(cmd.c_str());
  }

  static std::string output() {
    std::ifstream in(*dir_ / "out.txt");
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static std::string path(const std::string& name) {
    return (*dir_ / name).string();
  }

  /// The child's real exit code (run() returns the raw wait status).
  static int exit_code(const std::string& args) {
    const int status = run(args);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string slurp(const std::string& file) {
    std::ifstream in(file);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static fs::path* dir_;
};

fs::path* CliTest::dir_ = nullptr;

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(output().find("commands:"), std::string::npos);
}

TEST_F(CliTest, InfoOnCompleteBitstream) {
  ASSERT_EQ(run("info " + path("base.bit")), 0);
  const std::string out = output();
  EXPECT_NE(out.find("XCV50"), std::string::npos);
  EXPECT_NE(out.find("complete bitstream"), std::string::npos);
}

TEST_F(CliTest, SummarizeDumpsPackets) {
  ASSERT_EQ(run("summarize " + path("base.bit")), 0);
  const std::string out = output();
  EXPECT_NE(out.find("IDCODE"), std::string::npos);
  EXPECT_NE(out.find("FDRI"), std::string::npos);
  EXPECT_NE(out.find("DESYNC"), std::string::npos);
}

TEST_F(CliTest, PartialGenerationAndInfo) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  EXPECT_NE(output().find("wrote"), std::string::npos);
  ASSERT_TRUE(fs::exists(path("update.pbit")));

  ASSERT_EQ(run("info " + path("update.pbit")), 0);
  EXPECT_NE(output().find("partial bitstream"), std::string::npos);
}

TEST_F(CliTest, ApplyProducesLoadableFullBitstream) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  ASSERT_EQ(run("apply " + path("base.bit") + " " + path("update.pbit") +
                " -o " + path("updated.bit")),
            0);
  // The produced file must load as a complete bitstream.
  const Bitstream updated = Bitstream::load(path("updated.bit"));
  const Device& dev = Device::get("XCV50");
  ConfigMemory mem(dev);
  ConfigPort port(mem);
  EXPECT_NO_THROW(port.load(updated));
  EXPECT_TRUE(port.started());
}

TEST_F(CliTest, VerifyPassesOnHonestPartial) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  ASSERT_EQ(run("verify " + path("base.bit") + " " + path("update.pbit")), 0);
  EXPECT_NE(output().find("0 mismatches"), std::string::npos);
}

TEST_F(CliTest, RelocateRejectsEscapingModuleThenForces) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  // The fixture module has interface routing that escapes its region, so a
  // containment-checked relocation must be rejected with the typed error...
  EXPECT_NE(exit_code("relocate " + path("base.bit") + " " +
                      path("update.pbit") +
                      " --from R1C7:R16C10 --to R1C12 -o " +
                      path("moved.pbit")),
            0);
  EXPECT_NE(output().find("relocation rejected"), std::string::npos);
  EXPECT_FALSE(fs::exists(path("moved.pbit")));
  // ...and --force must override it and emit a loadable pbit.
  ASSERT_EQ(exit_code("relocate " + path("base.bit") + " " +
                      path("update.pbit") +
                      " --from R1C7:R16C10 --to R1C12 -o " +
                      path("moved.pbit") + " --force"),
            0);
  EXPECT_NE(output().find("crossing"), std::string::npos);
  ASSERT_TRUE(fs::exists(path("moved.pbit")));
  ASSERT_EQ(run("info " + path("moved.pbit")), 0);
  EXPECT_NE(output().find("partial bitstream"), std::string::npos);
}

TEST_F(CliTest, AttestCleanBoardAndSeededStray) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  ASSERT_EQ(exit_code("attest " + path("base.bit") + " " +
                      path("update.pbit")),
            0);
  EXPECT_NE(output().find("attestation: clean"), std::string::npos);
  // A planted one-bit stray must flip the verdict and be named exactly.
  EXPECT_EQ(exit_code("attest " + path("base.bit") + " " +
                      path("update.pbit") + " --corrupt 100:3:0x40"),
            1);
  const std::string out = output();
  EXPECT_NE(out.find("attestation: FAILED"), std::string::npos);
  EXPECT_NE(out.find("frame 100"), std::string::npos);
}

TEST_F(CliTest, FloorplanShowsRegion) {
  ASSERT_EQ(run("floorplan " + path("base.bit") + " " + path("mod.ucf")), 0);
  EXPECT_NE(output().find("#"), std::string::npos);
}

TEST_F(CliTest, ProjectWorkflow) {
  const std::string proj = path("proj");
  const std::string outdir = path("proj_out");
  ASSERT_EQ(run("project-new " + proj + " " + path("base.bit") + " demo"), 0);
  ASSERT_EQ(run("project-add " + proj + " nrz_v2 " + path("mod.xdl") + " " +
                path("mod.ucf")),
            0);
  ASSERT_EQ(run("project-build " + proj + " " + outdir), 0);
  EXPECT_TRUE(fs::exists(outdir + "/nrz_v2.pbit"));
}

TEST_F(CliTest, FuzzcfgRunsCleanAndIsSeedStable) {
  ASSERT_EQ(run("fuzzcfg --iterations 150 --seed 9"), 0);
  const std::string first = output();
  EXPECT_NE(first.find("verdict       : clean"), std::string::npos);
  EXPECT_NE(first.find("desync violations"), std::string::npos);
  ASSERT_EQ(run("fuzzcfg --iterations 150 --seed 9"), 0);
  EXPECT_EQ(output(), first);  // same seed, same campaign
}

TEST_F(CliTest, DownloadVerifiedOverFaultyLink) {
  ASSERT_EQ(run("partial " + path("base.bit") + " " + path("mod.xdl") + " " +
                path("mod.ucf") + " -o " + path("update.pbit")),
            0);
  ASSERT_EQ(run("download " + path("base.bit") + " " + path("update.pbit") +
                " --trunc 0.9 --budget 2 --attempts 5 --seed 4"),
            0);
  const std::string out = output();
  EXPECT_NE(out.find("success"), std::string::npos);
  EXPECT_NE(out.find("board faults"), std::string::npos);
}

TEST_F(CliTest, StatsEmitsMetricsAndChromeTrace) {
  ASSERT_EQ(run("stats --seed 5 --metrics " + path("m.json") + " --trace " +
                path("t.json")),
            0);
  const std::string out = output();
  EXPECT_NE(out.find("cache_hit="), std::string::npos);
  EXPECT_NE(out.find("\"counters\""), std::string::npos);

  // The metrics file is a complete snapshot document...
  const std::string metrics = slurp(path("m.json"));
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("\"gauges\""), std::string::npos);
  EXPECT_NE(metrics.find("\"histograms\""), std::string::npos);
  // ...and the trace file is Chrome trace-event JSON.
  const std::string trace = slurp(path("t.json"));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
#if JPG_TELEMETRY_ENABLED
  // With telemetry compiled in, the stats flow must have populated the
  // cross-stage counters and the named spans.
  for (const char* name :
       {"pgen.cache.hits", "pgen.cache.misses", "pnr.route.astar_pops",
        "pnr.route.spec_rounds",
        "dl.downloads", "dl.words_sent", "port.frames_committed"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
  for (const char* span : {"flow.base", "pnr.route", "pgen.generate",
                           "bitgen.full", "dl.download"}) {
    EXPECT_NE(trace.find(span), std::string::npos) << span;
  }
#endif
}

TEST_F(CliTest, ServeRunsPoissonLoadAndReportsQuotas) {
  ASSERT_EQ(exit_code("serve --requests 30 --boards 2 --tenants 3 --quota 2 "
                      "--seed 9"),
            0);
  const std::string out = output();
  EXPECT_NE(out.find("2 boards, 3 tenants"), std::string::npos);
  EXPECT_NE(out.find("completed"), std::string::npos);
  EXPECT_NE(out.find("p99"), std::string::npos);
  EXPECT_NE(out.find("swaps/s"), std::string::npos);
  EXPECT_NE(out.find("failed 0"), std::string::npos);
  EXPECT_NE(out.find("of quota 2"), std::string::npos);
}

TEST_F(CliTest, MetricsFlagWorksOnAnyCommand) {
  ASSERT_EQ(exit_code("info " + path("base.bit") + " --metrics " +
                      path("info_m.json")),
            0);
  EXPECT_NE(slurp(path("info_m.json")).find("\"counters\""),
            std::string::npos);
}

TEST_F(CliTest, UnwritableMetricsOrTracePathExitsThree) {
  // The command itself succeeds; the failed export is its own error class.
  EXPECT_EQ(exit_code("info " + path("base.bit") +
                      " --metrics /nonexistent-dir/m.json"),
            3);
  EXPECT_NE(output().find("cannot write metrics"), std::string::npos);
  EXPECT_EQ(exit_code("info " + path("base.bit") +
                      " --trace /nonexistent-dir/t.json"),
            3);
  EXPECT_NE(output().find("cannot write trace"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReported) {
  EXPECT_NE(run("info /no/such/file.bit"), 0);
  EXPECT_NE(output().find("error"), std::string::npos);
  EXPECT_NE(run("partial " + path("base.bit") + " missing.xdl missing.ucf -o x"),
            0);
}

}  // namespace
}  // namespace jpg
