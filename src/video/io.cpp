#include "video/io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace w4k::video {
namespace {

void check_codec_dims(int width, int height) {
  if (width <= 0 || height <= 0 || width % 16 != 0 || height % 16 != 0)
    throw std::runtime_error(
        "video io: dimensions must be positive multiples of 16 "
        "(layered-codec requirement)");
}

/// Reads exactly `plane.size()` bytes into the plane.
bool read_plane(std::istream& is, Plane& plane) {
  is.read(reinterpret_cast<char*>(plane.pix.data()),
          static_cast<std::streamsize>(plane.pix.size()));
  return static_cast<std::size_t>(is.gcount()) == plane.pix.size();
}

}  // namespace

struct Y4mReader::Impl {
  std::ifstream file;
};

Y4mReader::Y4mReader(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->file.open(path, std::ios::binary);
  if (!impl_->file)
    throw std::runtime_error("Y4mReader: cannot open " + path);
  std::string line;
  if (!std::getline(impl_->file, line) || line.rfind("YUV4MPEG2", 0) != 0)
    throw std::runtime_error("Y4mReader: not a YUV4MPEG2 stream: " + path);
  // Header tags: space-separated, first letter selects the parameter.
  std::istringstream tags(line.substr(9));
  std::string tag;
  while (tags >> tag) {
    if (tag.empty()) continue;
    switch (tag[0]) {
      case 'W': header_.width = std::stoi(tag.substr(1)); break;
      case 'H': header_.height = std::stoi(tag.substr(1)); break;
      case 'F': {
        const auto colon = tag.find(':');
        if (colon != std::string::npos) {
          header_.fps_num = std::stoi(tag.substr(1, colon - 1));
          header_.fps_den = std::stoi(tag.substr(colon + 1));
        }
        break;
      }
      case 'C': header_.colorspace = tag.substr(1); break;
      default: break;  // interlacing/aspect tags are irrelevant here
    }
  }
  if (header_.colorspace.rfind("420", 0) != 0)
    throw std::runtime_error("Y4mReader: unsupported colorspace C" +
                             header_.colorspace +
                             " (only C420* is supported)");
  check_codec_dims(header_.width, header_.height);
}

Y4mReader::~Y4mReader() = default;

std::optional<Frame> Y4mReader::next() {
  std::string line;
  if (!std::getline(impl_->file, line)) return std::nullopt;  // clean EOF
  if (line.rfind("FRAME", 0) != 0)
    throw std::runtime_error("Y4mReader: malformed frame marker");
  Frame f(header_.width, header_.height);
  if (!read_plane(impl_->file, f.y) || !read_plane(impl_->file, f.u) ||
      !read_plane(impl_->file, f.v))
    throw std::runtime_error("Y4mReader: truncated frame");
  return f;
}

struct Y4mWriter::Impl {
  std::ofstream file;
};

Y4mWriter::Y4mWriter(const std::string& path, int width, int height,
                     int fps_num, int fps_den)
    : impl_(std::make_unique<Impl>()), width_(width), height_(height) {
  check_codec_dims(width, height);
  impl_->file.open(path, std::ios::binary);
  if (!impl_->file)
    throw std::runtime_error("Y4mWriter: cannot create " + path);
  char header[128];
  std::snprintf(header, sizeof(header),
                "YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 C420\n", width, height,
                fps_num, fps_den);
  impl_->file << header;
}

Y4mWriter::~Y4mWriter() = default;

void Y4mWriter::write(const Frame& frame) {
  if (frame.width() != width_ || frame.height() != height_)
    throw std::invalid_argument("Y4mWriter: frame dimension mismatch");
  impl_->file << "FRAME\n";
  impl_->file.write(reinterpret_cast<const char*>(frame.y.pix.data()),
                    static_cast<std::streamsize>(frame.y.pix.size()));
  impl_->file.write(reinterpret_cast<const char*>(frame.u.pix.data()),
                    static_cast<std::streamsize>(frame.u.pix.size()));
  impl_->file.write(reinterpret_cast<const char*>(frame.v.pix.data()),
                    static_cast<std::streamsize>(frame.v.pix.size()));
  if (!impl_->file) throw std::runtime_error("Y4mWriter: write failed");
  ++count_;
}

}  // namespace w4k::video
