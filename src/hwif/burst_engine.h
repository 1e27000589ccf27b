// The burst engine: drives a StreamSource onto an XHWIF board in bounded
// word bursts through Xhwif::send_config. It is the one send loop of the
// tree: Jpg::download calls it fire-and-forget, and VerifiedDownloader::
// download sends every update, repair and rollback stream through it, so
// the cfg.burst_words histogram covers the burst sizes of any run.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hwif/stream_source.h"
#include "hwif/xhwif.h"

namespace jpg {

struct BurstStats {
  std::size_t bursts = 0;
  std::size_t words = 0;
};

/// Streams `source` to `board` in bursts of at most `burst_words` words.
/// Zero-copy: every send_config call receives a subspan of one of the
/// source's segments. Errors from the board propagate to the caller with
/// the stream position lost — callers that need recovery use the verified
/// streaming download instead.
BurstStats stream_to_board(Xhwif& board, const StreamSource& source,
                           std::size_t burst_words = kDefaultBurstWords);

}  // namespace jpg
