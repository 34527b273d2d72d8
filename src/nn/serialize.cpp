#include "src/nn/serialize.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "src/net/frame.hpp"
#include "src/net/wire.hpp"

namespace haccs::nn {

void save_parameters(const Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_parameters: cannot open " + path);
  net::WireWriter w;
  w.f32_array(model.get_parameters());
  const auto encoded =
      net::encode_frame(net::Frame{net::MessageType::Checkpoint, w.take()});
  out.write(reinterpret_cast<const char*>(encoded.data()),
            static_cast<std::streamsize>(encoded.size()));
  if (!out) throw std::runtime_error("save_parameters: write failed: " + path);
}

std::vector<float> load_parameters(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_parameters: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  net::Frame frame;
  switch (net::decode_frame(bytes, &frame)) {
    case net::FrameStatus::Ok:
      break;
    case net::FrameStatus::NeedMore:
      throw std::runtime_error("load_parameters: truncated checkpoint: " +
                               path);
    case net::FrameStatus::BadChecksum:
      throw std::runtime_error(
          "load_parameters: checkpoint CRC mismatch (corrupt file): " + path);
    default:
      throw std::runtime_error("load_parameters: not a HACCS checkpoint: " +
                               path);
  }
  if (frame.type != net::MessageType::Checkpoint) {
    throw std::runtime_error("load_parameters: frame is not a checkpoint: " +
                             path);
  }
  try {
    net::WireReader r(frame.payload);
    auto params = r.f32_array();
    r.expect_exhausted();
    return params;
  } catch (const net::WireError& e) {
    throw std::runtime_error(std::string("load_parameters: malformed "
                                         "checkpoint payload: ") +
                             e.what());
  }
}

void load_into(Sequential& model, const std::string& path) {
  model.set_parameters(load_parameters(path));
}

}  // namespace haccs::nn
