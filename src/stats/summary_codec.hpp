// Bridge between the stats summaries and the net wire format (paper §IV-A:
// clients upload distribution summaries once, before training).
//
// net::SummaryMsg is deliberately generic — kind tag, value range, a list of
// double tables, a mass vector — so src/net never depends on src/stats.
// Serving mode admits only the P(y) summary (haccs_server refuses every
// strategy that needs another kind), so this header maps just that one:
// a ResponseSummary is one table row, the label counts; lo, hi and mass stay
// unset. The decoder throws net::WireError on a kind mismatch or a malformed
// row, the same failure surface as the payload codecs, so a peer that sends
// a summary no honest client could produce is refused by name.
#pragma once

#include <cstdint>

#include "src/net/messages.hpp"
#include "src/stats/summary.hpp"

namespace haccs::stats {

net::SummaryMsg encode_summary_msg(std::uint32_t client_id,
                                   const ResponseSummary& summary);

/// Rejects any count that is negative, NaN or infinite: label counts are
/// never negative (privatized ones are clamp_nonnegative()d), and such a
/// count would turn every Hellinger distance to that client into NaN.
ResponseSummary decode_response_summary(const net::SummaryMsg& msg);

}  // namespace haccs::stats
