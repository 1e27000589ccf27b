#include "hwif/verified_downloader.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "bitstream/bitstream_writer.h"
#include "bitstream/config_port.h"
#include "hwif/burst_engine.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

namespace {

bool is_capture_frame(const FrameMap& fm, std::size_t frame) {
  const FrameAddress a = fm.address_of_index(frame);
  return a.block_type == 0 && (a.minor == 16 || a.minor == 17) &&
         fm.column_kind(static_cast<int>(a.major)) == ColumnKind::Clb;
}

}  // namespace

std::string_view download_status_name(DownloadStatus s) {
  switch (s) {
    case DownloadStatus::Success: return "success";
    case DownloadStatus::RolledBack: return "rolled-back";
    case DownloadStatus::Failed: return "failed";
  }
  return "?";
}

std::string DownloadReport::summary() const {
  std::ostringstream os;
  os << "verified download: " << download_status_name(status) << " after "
     << attempts << " attempt(s)";
  if (rollback_attempts > 0) {
    os << " + " << rollback_attempts << " rollback attempt(s)";
  }
  os << "; " << frames_touched << " frames touched, " << frames_verified
     << " verified, " << frames_repaired << " repaired, " << faults_seen
     << " faults seen";
  if (!error.empty()) os << "; " << error;
  return os.str();
}

void mask_capture_words_inplace(const Device& device, std::size_t frame,
                                std::span<std::uint32_t> words) {
  const FrameMap& fm = device.frames();
  if (!is_capture_frame(fm, frame)) return;
  JPG_ASSERT(words.size() == fm.frame_words());
  // Frame bits pack LSB-first (bit i lives in word i>>5 at position i&31),
  // so the two capture bits of each row window clear with plain word masks —
  // no BitVector round trip per compared frame.
  for (int r = 0; r < device.rows(); ++r) {
    const std::size_t base = fm.row_bit_base(r);
    words[base >> 5] &= ~(1u << (base & 31));
    words[(base + 1) >> 5] &= ~(1u << ((base + 1) & 31));
  }
}

std::vector<std::uint32_t> mask_capture_words(const Device& device,
                                              std::size_t frame,
                                              std::vector<std::uint32_t> words) {
  mask_capture_words_inplace(device, frame, words);
  return words;
}

std::string AttestReport::summary() const {
  std::ostringstream os;
  os << "attestation: " << (attested ? "clean" : "FAILED") << "; "
     << frames_audited << " frames audited, " << findings.size()
     << " stray finding(s), " << frames_unreadable << " unreadable";
  const std::size_t show = std::min<std::size_t>(findings.size(), 4);
  for (std::size_t i = 0; i < show; ++i) {
    const AttestFinding& f = findings[i];
    os << "; " << f.address << " word " << f.word << ": expected 0x"
       << std::hex << f.expected << " got 0x" << f.got << std::dec;
  }
  return os.str();
}

ConfigMemory reconstruct_expected_plane(const ConfigMemory& base,
                                        std::span<const Bitstream> applied) {
  ConfigMemory plane = base;
  for (const Bitstream& pbit : applied) {
    ConfigPort port(plane);
    port.load(pbit);
  }
  return plane;
}

VerifiedDownloader::VerifiedDownloader(Xhwif& board, const Device& device,
                                       const DownloadPolicy& policy)
    : board_(&board), device_(&device), policy_(policy) {
  JPG_REQUIRE(policy.max_attempts > 0, "max_attempts must be positive");
  JPG_REQUIRE(policy.rollback_max_attempts > 0,
              "rollback_max_attempts must be positive");
}

void VerifiedDownloader::assume_board_state(const ConfigMemory& plane) {
  JPG_REQUIRE(&plane.device() == device_,
              "mirror plane targets a different device");
  mirror_ = std::make_unique<ConfigMemory>(plane);
}

const ConfigMemory& VerifiedDownloader::mirror() const {
  JPG_REQUIRE(mirror_ != nullptr, "no board mirror established");
  return *mirror_;
}

Bitstream VerifiedDownloader::build_frames_stream(
    const ConfigMemory& target, const std::vector<std::size_t>& frames,
    bool ensure_started) const {
  const FrameMap& fm = device_->frames();
  BitstreamWriter w(*device_);
  w.begin();
  w.write_cmd(Command::RCRC);
  w.write_reg(ConfigReg::FLR, static_cast<std::uint32_t>(fm.frame_words() - 1));
  w.write_reg(ConfigReg::IDCODE, device_->spec().idcode);
  if (!frames.empty()) {
    w.write_cmd(Command::WCFG);
    std::size_t i = 0;
    while (i < frames.size()) {
      std::size_t j = i + 1;
      while (j < frames.size() && frames[j] == frames[j - 1] + 1) ++j;
      w.write_reg(ConfigReg::FAR, fm.encode_far(fm.address_of_index(frames[i])));
      w.write_frames(target, frames[i], j - i);
      i = j;
    }
    w.write_crc();
    w.write_cmd(Command::LFRM);
  }
  if (ensure_started) {
    w.write_cmd(Command::START);
    w.write_crc();
  }
  return w.finish();
}

std::vector<std::size_t> VerifiedDownloader::verify_against(
    const ConfigMemory& target, const std::vector<std::size_t>& frames,
    DownloadReport& rep) {
  const FrameMap& fm = device_->frames();
  const std::size_t fw = fm.frame_words();
  std::vector<std::size_t> bad;
  expect_scratch_.resize(fw);
  std::vector<std::uint32_t>& expect = expect_scratch_;
  std::vector<std::uint32_t>& got = readback_scratch_;
  std::size_t i = 0;
  while (i < frames.size()) {
    std::size_t j = i + 1;
    while (j < frames.size() && frames[j] == frames[j - 1] + 1) ++j;
    const std::size_t first = frames[i];
    const std::size_t count = j - i;
    try {
      board_->readback_into(first, count, got);
      readback_words_ += got.size();
      JPG_COUNT("dl.readback_words", got.size());
    } catch (const JpgError& e) {
      // A failed readback proves nothing about the run; treat every frame
      // in it as suspect so the retry rewrites and re-verifies them.
      ++rep.faults_seen;
      rep.fault_log.push_back(std::string("readback: ") + e.what());
      bad.insert(bad.end(),
                 frames.begin() + static_cast<std::ptrdiff_t>(i),
                 frames.begin() + static_cast<std::ptrdiff_t>(j));
      i = j;
      continue;
    }
    JPG_ASSERT(got.size() == count * fw);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t frame = first + k;
      ++rep.frames_verified;
      target.read_frame_words(frame, expect.data());
      const std::span<std::uint32_t> rb(got.data() + k * fw, fw);
      if (policy_.mask_capture_bits && is_capture_frame(fm, frame)) {
        // Mask both sides in the scratch buffers; `got` is this run's
        // working copy and `expect` refills next frame, so in-place is free.
        mask_capture_words_inplace(*device_, frame, rb);
        mask_capture_words_inplace(*device_, frame, expect);
      }
      if (!std::equal(rb.begin(), rb.end(), expect.begin())) {
        bad.push_back(frame);
      }
    }
    i = j;
  }
  return bad;
}

void VerifiedDownloader::backoff(int attempt) {
  if (policy_.backoff_cycles <= 0) return;
  const int shift = std::clamp(attempt - 2, 0, 16);
  board_->step_clock(policy_.backoff_cycles << shift);
}

bool VerifiedDownloader::converge(const StreamSource& source,
                                  const ConfigMemory& target,
                                  std::vector<std::size_t> check, int budget,
                                  bool ensure_started, std::size_t burst_words,
                                  int& attempts, DownloadReport& rep) {
  std::vector<std::size_t> sweep;
  if (policy_.full_sweep) {
    sweep.resize(device_->frames().num_frames());
    std::iota(sweep.begin(), sweep.end(), 0);
  }
  StreamSource stream = source;
  Bitstream repair;  // owns the words `stream` spans after the first round
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (!stream.empty()) {
      ++attempts;
      if (attempt > 1) backoff(attempt);
      try {
        // ABORT first: a previous stream cut off mid-payload left the port
        // waiting for FDRI words that would otherwise swallow this stream.
        board_->abort_config();
        ++aborts_;
        const BurstStats sent = stream_to_board(*board_, stream, burst_words);
        words_sent_ += sent.words;
        JPG_COUNT("dl.words_sent", sent.words);
      } catch (const JpgError& e) {
        ++rep.faults_seen;
        rep.fault_log.push_back(std::string("send: ") + e.what());
        // Fall through: readback decides how much of the stream landed.
      }
    }
    std::vector<std::size_t> bad = verify_against(target, check, rep);
    if (bad.empty() && policy_.full_sweep) {
      bad = verify_against(target, sweep, rep);
    }
    if (bad.empty()) {
      if (ensure_started && !board_->config_done()) {
        // Every frame is right but DONE is low: the stream lost its START
        // command (e.g. truncated after the last pad frame). Resend just
        // the startup epilogue.
        rep.fault_log.emplace_back(
            "frames verified but DONE low; resending startup");
        repair = build_frames_stream(target, {}, true);
        stream = StreamSource::of(repair.words);
        check.clear();
        continue;
      }
      return true;
    }
    rep.frames_repaired += bad.size();
    ++repair_rounds_;
    JPG_COUNT("dl.repair_rounds", 1);
    repair = build_frames_stream(target, bad, ensure_started);
    stream = StreamSource::of(repair.words);
    check = std::move(bad);
  }
  return false;
}

void VerifiedDownloader::finish_report(DownloadReport& rep,
                                       std::uint64_t t0_ns) const {
  rep.telemetry.duration_ns = telemetry::now_ns() - t0_ns;
  rep.telemetry.set("words_sent", words_sent_);
  rep.telemetry.set("readback_words", readback_words_);
  rep.telemetry.set("repair_rounds", repair_rounds_);
  rep.telemetry.set("aborts", aborts_);
}

AttestReport VerifiedDownloader::attest(const ConfigMemory& expected) {
  JPG_SPAN("attest.audit");
  JPG_COUNT("attest.audits", 1);
  JPG_REQUIRE(&expected.device() == device_,
              "attestation plane targets a different device");
  const FrameMap& fm = device_->frames();
  const std::size_t fw = fm.frame_words();
  const std::size_t total = fm.num_frames();
  // Bounded readback runs keep the scratch buffer small on big parts.
  constexpr std::size_t kChunkFrames = 32;

  AttestReport rep;
  expect_scratch_.resize(fw);
  std::vector<std::uint32_t>& expect = expect_scratch_;
  std::vector<std::uint32_t>& got = readback_scratch_;
  for (std::size_t first = 0; first < total; first += kChunkFrames) {
    const std::size_t count = std::min(kChunkFrames, total - first);
    try {
      board_->readback_into(first, count, got);
      JPG_COUNT("attest.readback_words", got.size());
    } catch (const JpgError& e) {
      // An unreadable frame proves nothing — but an audit that cannot see
      // the whole plane must not attest it.
      rep.frames_unreadable += count;
      JPG_WARN(std::string("attest: readback failed: ") + e.what());
      continue;
    }
    JPG_ASSERT(got.size() == count * fw);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t frame = first + k;
      ++rep.frames_audited;
      expected.read_frame_words(frame, expect.data());
      const std::span<std::uint32_t> rb(got.data() + k * fw, fw);
      if (policy_.mask_capture_bits && is_capture_frame(fm, frame)) {
        mask_capture_words_inplace(*device_, frame, rb);
        mask_capture_words_inplace(*device_, frame, expect);
      }
      for (std::size_t w = 0; w < fw; ++w) {
        if (rb[w] != expect[w]) {
          rep.findings.push_back({frame, fm.describe_frame(frame), w,
                                  expect[w], rb[w]});
          break;  // one finding per frame; the address is what matters
        }
      }
    }
  }
  rep.attested = rep.findings.empty() && rep.frames_unreadable == 0;
  JPG_COUNT("attest.frames_audited", rep.frames_audited);
  if (!rep.findings.empty()) {
    JPG_COUNT("attest.findings", rep.findings.size());
  }
  JPG_INFO(rep.summary());
  return rep;
}

AttestReport VerifiedDownloader::attest() {
  JPG_REQUIRE(has_mirror(),
              "no board mirror established; download a full bitstream or "
              "call assume_board_state first");
  return attest(*mirror_);
}

DownloadReport VerifiedDownloader::download(const StreamSource& source,
                                            const StreamOptions& opts) {
  JPG_SPAN("dl.download");
  JPG_COUNT("dl.downloads", 1);
  const std::uint64_t telem_t0 = telemetry::now_ns();
  words_sent_ = readback_words_ = repair_rounds_ = aborts_ = 0;
  JPG_REQUIRE(opts.burst_words > 0, "burst_words must be positive");
  DownloadReport rep;

  // Replay the whole source before a single word goes out: the replayed
  // plane is the update's intended state, and a stream malformed anywhere
  // is rejected with the board untouched.
  auto target = mirror_ != nullptr ? std::make_unique<ConfigMemory>(*mirror_)
                                   : std::make_unique<ConfigMemory>(*device_);
  std::vector<std::size_t> touched;
  bool starts = false;
  try {
    ConfigPort port(*target);
    for (const auto& segment : source.segments()) port.load(segment);
    starts = port.started();
    touched = port.committed_frames();
  } catch (const JpgError& e) {
    rep.error = std::string("stream rejected tool-side, nothing sent: ") +
                e.what();
    finish_report(rep, telem_t0);
    return rep;
  }
  // Without a mirror only a stream that configures the whole device from
  // scratch has a known intended plane; anything else is refused unsent.
  JPG_REQUIRE(mirror_ != nullptr || starts,
              "no board mirror established and the stream does not start "
              "the device; download a full bitstream or call "
              "assume_board_state first");
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  rep.frames_touched = touched.size();

  if (converge(source, *target, touched, policy_.max_attempts, starts,
               opts.burst_words, rep.attempts, rep)) {
    rep.status = DownloadStatus::Success;
    mirror_ = std::move(target);
  } else if (mirror_ == nullptr) {
    rep.error = "update did not converge and no mirror exists to roll "
                "back to; board state unknown";
  } else if (!policy_.rollback) {
    rep.error = "update did not converge and rollback is disabled";
  } else {
    const Bitstream rb = build_frames_stream(*mirror_, touched, false);
    if (converge(StreamSource::of(rb.words), *mirror_, std::move(touched),
                 policy_.rollback_max_attempts, /*ensure_started=*/false,
                 opts.burst_words, rep.rollback_attempts, rep)) {
      rep.status = DownloadStatus::RolledBack;
      rep.error = "update did not converge; device rolled back to the "
                  "pre-update plane";
    } else {
      rep.error = "update did not converge and neither did the rollback; "
                  "board state unknown";
    }
  }
  finish_report(rep, telem_t0);
  JPG_INFO(rep.summary());
  return rep;
}

}  // namespace jpg
