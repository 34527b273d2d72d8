// Model checkpointing: binary save/load of flat parameter vectors.
//
// A checkpoint is one net wire frame (frame.hpp): the "HNET" header with
// type MessageType::Checkpoint and a CRC-32 over the payload, whose body is
// a length-prefixed float32 array. Sharing the frame format with the
// transport layer means checkpoints get the same integrity checking as
// network traffic — truncation, header damage, and payload corruption each
// fail loudly at load with a distinct message. A file that does not open
// with the frame magic, such as one in the retired pre-frame "HCCS" v1
// format, is "not a HACCS checkpoint".
//
// The architecture itself is code (model factories are deterministic in
// their seed), so checkpoints store only the parameters — the caller pairs
// a checkpoint with the factory that produced the model, and mismatched
// sizes fail loudly at load/set time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/model.hpp"

namespace haccs::nn {

/// Writes the model's parameters to `path`. Throws std::runtime_error on
/// I/O failure.
void save_parameters(const Sequential& model, const std::string& path);

/// Reads a parameter vector written by save_parameters. Throws
/// std::runtime_error on I/O failure or a malformed file.
std::vector<float> load_parameters(const std::string& path);

/// Convenience: load + set in one step (size-checked by set_parameters).
void load_into(Sequential& model, const std::string& path);

}  // namespace haccs::nn
