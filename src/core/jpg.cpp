#include "core/jpg.h"

#include "bitstream/bitgen.h"
#include "bitstream/config_port.h"
#include "hwif/burst_engine.h"
#include "support/log.h"
#include "support/telemetry/telemetry.h"

namespace jpg {

Jpg::Jpg(const Bitstream& base_bitstream)
    : device_(&device_for_bitstream(base_bitstream)) {
  base_ = std::make_unique<ConfigMemory>(*device_);
  ConfigPort port(*base_);
  port.load(base_bitstream);
  if (!port.started()) {
    throw BitstreamError(
        "base bitstream did not complete startup; is it a partial "
        "bitstream?");
  }
  gen_ = std::make_unique<PartialBitstreamGenerator>(*base_);
  JPG_INFO("JPG initialised from base bitstream for " << device_->spec().name);
}

Jpg::PartialResult Jpg::generate_partial(const XdlDesign& module_xdl,
                                         const UcfData& ucf,
                                         const PartialGenOptions& opts) {
  JPG_SPAN("jpg.generate_partial");
  // The paper's pipeline: parse XDL -> make CBits calls on a scratch plane.
  ConfigMemory scratch(*device_);
  const XdlBindResult bound = bind_xdl_module(module_xdl, ucf, scratch);

  // Then extract the partial bitstream against the base design.
  PartialGenResult pg = gen_->generate(scratch, bound.region, opts);

  PartialResult result;
  result.partial = std::move(pg.bitstream);
  result.frames = std::move(pg.frames);
  result.far_blocks = pg.far_blocks;
  result.cbits_calls = bound.cbits_calls;
  result.region = bound.region;
  result.floorplan = render_floorplan(
      *device_, {{module_xdl.name, bound.region}}, bound.region);
  return result;
}

Jpg::PartialResult Jpg::generate_partial_from_text(
    std::string_view xdl_text, std::string_view ucf_text,
    const PartialGenOptions& opts) {
  const XdlDesign xdl = parse_xdl(xdl_text, "module.xdl");
  const UcfData ucf = parse_ucf(ucf_text, *device_, "module.ucf");
  return generate_partial(xdl, ucf, opts);
}

void Jpg::write_onto_base(const PartialResult& update) {
  // Loading the partial stream through the configuration port both
  // validates it (framing, CRC, FLR, IDCODE) and mutates the base plane —
  // the "overwrite the original bitstream" behaviour of option 2.
  ConfigPort port(*base_);
  port.load(update.partial);
  if (connected()) {
    download(StreamSource::of(update.partial.words));
  }
}

Bitstream Jpg::full_bitstream() const {
  return generate_full_bitstream(*base_);
}

void Jpg::download(const StreamSource& source, const StreamOptions& opts) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  stream_to_board(*board_, source, opts.burst_words);
}

DownloadReport Jpg::download_verified(const StreamSource& source,
                                      const DownloadPolicy& policy) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  VerifiedDownloader dl(*board_, *device_, policy);
  // The tool's model of the board is the base design it was initialised
  // from (option 2's premise); seed the downloader's mirror with it.
  dl.assume_board_state(*base_);
  return dl.download(source);
}

std::size_t Jpg::verify_via_readback(const PartialResult& update) {
  JPG_REQUIRE(connected(), "no XHWIF board connected");
  // Reconstruct the expected frame contents by replaying the partial
  // stream onto a copy of the tool's base configuration.
  ConfigMemory expected = *base_;
  {
    ConfigPort port(expected);
    port.load(update.partial);
  }
  const std::size_t fw = device_->frames().frame_words();
  // Mask file: the capture bits (minors 16/17, window bits 0..1 of every
  // row) hold live FF state after a CAPTURE and must not participate in
  // configuration comparison — exactly what readback mask files were for.
  // Both sides go through reusable scratch buffers and are masked in place.
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> buf(fw);
  std::size_t mismatches = 0;
  for (const std::size_t frame : update.frames) {
    board_->readback_into(frame, 1, got);
    JPG_ASSERT(got.size() == fw);
    mask_capture_words_inplace(*device_, frame, got);
    expected.read_frame_words(frame, buf.data());
    mask_capture_words_inplace(*device_, frame, buf);
    if (got != buf) ++mismatches;
  }
  JPG_INFO("readback verification: " << update.frames.size() << " frames, "
                                     << mismatches << " mismatches");
  return mismatches;
}

}  // namespace jpg
