// Loopback transport: a pair of in-process endpoints over bounded byte
// queues.
//
// Frames are really serialized on send and really decoded (CRC checked) on
// recv — the loopback is the wire format running at memory speed, not a
// bypass. That is what makes it both a faithful test double for the TCP
// path and the substrate for the bit-identity guarantee: the bytes a worker
// thread sees are exactly the bytes a worker process would.
//
// Fault injection: `corrupt_every_n_b` flips one payload byte in every Nth
// frame the worker end sends, producing genuine CRC failures downstream —
// how tests drive the engine's Corrupt-handling path without a lossy
// network. Each direction buffers up to 1024 frames before send blocks
// (backpressure).
#pragma once

#include <cstddef>
#include <memory>

#include "src/net/transport.hpp"

namespace haccs::net {

struct LoopbackOptions {
  /// Flip a payload byte in every Nth frame sent from endpoint B (the
  /// worker side of make_loopback_pair). 0 disables.
  std::size_t corrupt_every_n_b = 0;
};

struct LoopbackPair {
  std::unique_ptr<Transport> a;  ///< conventionally the server end
  std::unique_ptr<Transport> b;  ///< conventionally the worker end
};

/// Creates two connected endpoints. Either may be moved to another thread;
/// each endpoint is internally synchronized (one sender + one receiver per
/// endpoint at a time).
LoopbackPair make_loopback_pair(const LoopbackOptions& options = {});

}  // namespace haccs::net
