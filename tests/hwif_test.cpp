// Tests for the XHWIF board interface and the SimBoard implementation:
// configuration sessions, rebuild bookkeeping, pin persistence across
// reconfigurations, readback, and behaviour before configuration.
#include <gtest/gtest.h>

#include "bitstream/bitgen.h"
#include "bitstream/bitstream_writer.h"
#include "hwif/sim_board.h"
#include "netlib/generators.h"
#include "pnr/flow.h"

namespace jpg {
namespace {

class SimBoardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = &Device::get("XCV50");
    const BaseFlowResult flow =
        run_base_flow(*dev_, netlib::make_counter(4), {});
    ConfigMemory mem(*dev_);
    CBits cb(mem);
    flow.design->apply(cb);
    bit_ = generate_full_bitstream(mem);
    for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
      pads_[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
          dev_->pad_number(flow.design->iob_sites[i]);
    }
  }

  const Device* dev_ = nullptr;
  Bitstream bit_;
  std::map<std::string, int> pads_;
};

TEST_F(SimBoardTest, UnconfiguredBoardIsEmptyButAlive) {
  SimBoard board(*dev_);
  EXPECT_FALSE(board.configured());
  EXPECT_EQ(board.board_name(), "simboard-XCV50");
  // Clocking an empty device is legal and does nothing.
  board.step_clock(3);
  EXPECT_EQ(board.cycles(), 3u);
  // Driving a pin that exists on no circuit is remembered, not an error.
  board.set_pin(1, true);
}

TEST_F(SimBoardTest, ConfiguresAndCounts) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  EXPECT_TRUE(board.configured());
  EXPECT_EQ(board.config_words(), bit_.words.size());
  for (int cyc = 0; cyc < 20; ++cyc) {
    int v = 0;
    for (int b = 0; b < 4; ++b) {
      if (board.get_pin(pads_.at("q" + std::to_string(b)))) v |= 1 << b;
    }
    EXPECT_EQ(v, cyc & 0xF);
    board.step_clock(1);
  }
}

TEST_F(SimBoardTest, RebuildOnlyOnConfigChange) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(5);
  const int r1 = board.rebuilds();
  board.step_clock(5);
  (void)board.get_pin(pads_.at("q0"));
  EXPECT_EQ(board.rebuilds(), r1);  // no config change, no rebuild
  board.send_config(bit_.words);    // full reload
  board.step_clock(1);
  EXPECT_GT(board.rebuilds(), r1);
}

TEST_F(SimBoardTest, FullReloadResetsState) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(9);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));  // 9 is odd
  board.send_config(bit_.words);  // full reload rewrites every column
  EXPECT_FALSE(board.get_pin(pads_.at("q0")));  // counter back at 0
}

TEST_F(SimBoardTest, ReadbackReturnsFrames) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  const auto words = board.readback(0, 3);
  EXPECT_EQ(words.size(), 3 * dev_->frames().frame_words());
  // Readback of the whole device equals the loaded configuration.
  ConfigMemory expect(*dev_);
  ConfigPort port(expect);
  port.load(bit_);
  for (std::size_t f = 0; f < dev_->frames().num_frames(); f += 97) {
    const auto rb = board.readback(f, 1);
    std::vector<std::uint32_t> buf(dev_->frames().frame_words());
    expect.read_frame_words(f, buf.data());
    EXPECT_EQ(rb, buf) << "frame " << f;
  }
}

TEST_F(SimBoardTest, BadConfigStreamThrowsAndBoardSurvives) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(4);
  // A corrupt stream fails...
  Bitstream bad = bit_;
  bad.words[30] ^= 0x10u;
  EXPECT_THROW(board.send_config(bad.words), BitstreamError);
  // ...after which a clean reload still works.
  board.send_config(bit_.words);
  board.step_clock(1);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));
}

TEST_F(SimBoardTest, PinStateSurvivesReload) {
  // Build a combinational design: parity of 3 inputs.
  const BaseFlowResult flow = run_base_flow(*dev_, netlib::make_parity(3), {});
  ConfigMemory mem(*dev_);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream parity_bit = generate_full_bitstream(mem);
  std::map<std::string, int> pads;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    pads[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
        dev_->pad_number(flow.design->iob_sites[i]);
  }

  SimBoard board(*dev_);
  board.send_config(parity_bit.words);
  board.set_pin(pads.at("x0"), true);
  board.set_pin(pads.at("x1"), true);
  board.set_pin(pads.at("x2"), true);
  EXPECT_TRUE(board.get_pin(pads.at("p")));  // parity of 111 = 1
  // Reload: externally driven pins are still asserted afterwards.
  board.send_config(parity_bit.words);
  EXPECT_TRUE(board.get_pin(pads.at("p")));
  board.set_pin(pads.at("x1"), false);
  EXPECT_FALSE(board.get_pin(pads.at("p")));
}

TEST_F(SimBoardTest, PinsReassertAcrossCircuitRebuilds) {
  // Regression: a pin driven before a reconfiguration must still be driven
  // after the simulator rebuilds its circuit — including across reloads
  // with *different* designs, where the rebuild replaces every IOB.
  const BaseFlowResult flow = run_base_flow(*dev_, netlib::make_parity(3), {});
  ConfigMemory mem(*dev_);
  CBits cb(mem);
  flow.design->apply(cb);
  const Bitstream parity_bit = generate_full_bitstream(mem);
  std::map<std::string, int> pads;
  for (std::size_t i = 0; i < flow.design->iob_cells.size(); ++i) {
    pads[flow.design->netlist().cell(flow.design->iob_cells[i]).port] =
        dev_->pad_number(flow.design->iob_sites[i]);
  }

  SimBoard board(*dev_);
  board.send_config(parity_bit.words);
  board.set_pin(pads.at("x0"), true);
  board.set_pin(pads.at("x2"), true);
  EXPECT_FALSE(board.get_pin(pads.at("p")));  // parity of 101 = 0
  const int r1 = board.rebuilds();

  board.send_config(bit_.words);         // counter design: full rebuild
  board.step_clock(1);
  board.send_config(parity_bit.words);   // back to the parity design
  EXPECT_GT(board.rebuilds(), r1);
  // The externally driven pins survived both rebuilds.
  EXPECT_FALSE(board.get_pin(pads.at("p")));
  board.set_pin(pads.at("x1"), true);
  EXPECT_TRUE(board.get_pin(pads.at("p")));  // parity of 111 = 1
}

TEST_F(SimBoardTest, ConfigDoneTracksStartup) {
  SimBoard board(*dev_);
  EXPECT_FALSE(board.config_done());
  board.send_config(bit_.words);
  EXPECT_TRUE(board.config_done());
  // ABORT drops decode state but not the started configuration.
  board.abort_config();
  EXPECT_TRUE(board.config_done());
}

TEST_F(SimBoardTest, AbortConfigUnsticksTruncatedStream) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  // A stream cut mid-FDRI leaves the port waiting for payload words; the
  // board accepts it without protest (nothing is wrong *yet*).
  std::vector<std::uint32_t> cut(bit_.words.begin(),
                                 bit_.words.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         bit_.words.size() / 2));
  board.send_config(cut);
  // ABORT, then a clean reload configures the counter as usual.
  board.abort_config();
  board.send_config(bit_.words);
  EXPECT_TRUE(board.config_done());
  board.step_clock(1);
  EXPECT_TRUE(board.get_pin(pads_.at("q0")));
}

TEST_F(SimBoardTest, CommittedFrameLogStaysBoundedAcrossSends) {
  SimBoard board(*dev_);
  board.send_config(bit_.words);
  board.step_clock(1);

  // A partial rewriting kFrames frames with the contents they already hold.
  constexpr std::size_t kFrames = 3;
  const FrameMap& fm = dev_->frames();
  const std::size_t first = fm.frame_index(2, 0);
  BitstreamWriter w(*dev_);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::IDCODE, dev_->spec().idcode);
  w.write_cmd(Command::WCFG);
  w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(first)));
  w.write_frames(board.config(), first, kFrames);
  w.write_crc();
  w.write_cmd(Command::LFRM);
  const Bitstream partial = w.finish();

  // Each send's committed frames are folded into the board's dirty-column
  // summary, so the log never holds more than one stream's frames however
  // long the board lives, while the word total keeps counting.
  for (int i = 0; i < 1000; ++i) {
    board.send_config(partial.words);
    ASSERT_LE(board.port().committed_frames().size(), kFrames) << "send " << i;
  }
  EXPECT_EQ(board.config_words(),
            bit_.words.size() + 1000 * partial.words.size());
  const int rebuilds = board.rebuilds();
  board.step_clock(1);  // the folded frames still make the circuit stale
  EXPECT_EQ(board.rebuilds(), rebuilds + 1);
}

TEST(Xhwif, PolymorphicUse) {
  const Device& dev = Device::get("XCV50");
  SimBoard board(dev);
  Xhwif* iface = &board;
  EXPECT_EQ(iface->board_name(), "simboard-XCV50");
  ConfigMemory mem(dev);
  const Bitstream bs = generate_full_bitstream(mem);
  iface->send_config(bs.words);
  iface->step_clock(2);
  EXPECT_EQ(board.cycles(), 2u);
}

}  // namespace
}  // namespace jpg
