#include "src/stats/summary_codec.hpp"

#include <cmath>
#include <string>

#include "src/net/wire.hpp"

namespace haccs::stats {

net::SummaryMsg encode_summary_msg(std::uint32_t client_id,
                                   const ResponseSummary& summary) {
  net::SummaryMsg msg;
  msg.client_id = client_id;
  msg.kind = static_cast<std::uint8_t>(SummaryKind::Response);
  const auto counts = summary.label_counts.counts();
  msg.tables.emplace_back(counts.begin(), counts.end());
  return msg;
}

ResponseSummary decode_response_summary(const net::SummaryMsg& msg) {
  if (msg.kind != static_cast<std::uint8_t>(SummaryKind::Response)) {
    throw net::WireError("summary codec: message is not a response summary");
  }
  if (msg.tables.size() != 1 || msg.tables.front().empty()) {
    throw net::WireError("summary codec: response summary needs one "
                         "non-empty label-count row");
  }
  for (const double count : msg.tables.front()) {
    if (!std::isfinite(count) || count < 0.0) {
      throw net::WireError("summary codec: response summary has a negative "
                           "or non-finite label count");
    }
  }
  ResponseSummary summary(msg.tables.front().size());
  summary.label_counts.set_counts(msg.tables.front());
  return summary;
}

}  // namespace haccs::stats
