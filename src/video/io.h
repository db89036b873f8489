// Uncompressed video file I/O.
//
// Lets the library run on real footage (e.g. the paper's Derf/Xiph 4K
// clips) instead of the synthetic generator:
//   * Y4M (YUV4MPEG2): the standard container Derf clips ship in, with a
//     plain-text stream header and per-frame FRAME markers; only the
//     C420 family is supported (the codec is YUV420).
#pragma once

#include "video/frame.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace w4k::video {

/// Parsed Y4M stream parameters.
struct Y4mHeader {
  int width = 0;
  int height = 0;
  int fps_num = 30;
  int fps_den = 1;
  std::string colorspace = "420";  // from the C tag, e.g. "420mpeg2"
};

/// Streaming Y4M reader. Frames are decoded on demand; the file is kept
/// open. Dimensions must be positive multiples of 16 (the layered codec's
/// requirement) — reject others early rather than failing mid-pipeline.
class Y4mReader {
 public:
  /// Opens and parses the stream header.
  /// Throws std::runtime_error on I/O errors or unsupported formats.
  explicit Y4mReader(const std::string& path);
  ~Y4mReader();

  Y4mReader(const Y4mReader&) = delete;
  Y4mReader& operator=(const Y4mReader&) = delete;

  const Y4mHeader& header() const { return header_; }

  /// Reads the next frame; std::nullopt at end of stream.
  /// Throws std::runtime_error on a truncated or malformed frame.
  std::optional<Frame> next();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  Y4mHeader header_;
};

/// Writes frames as a Y4M stream (C420, progressive).
class Y4mWriter {
 public:
  /// Throws std::runtime_error if the file cannot be created.
  Y4mWriter(const std::string& path, int width, int height, int fps_num = 30,
            int fps_den = 1);
  ~Y4mWriter();

  Y4mWriter(const Y4mWriter&) = delete;
  Y4mWriter& operator=(const Y4mWriter&) = delete;

  /// Appends one frame. Throws std::invalid_argument on dimension
  /// mismatch, std::runtime_error on write failure.
  void write(const Frame& frame);

  std::size_t frames_written() const { return count_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int width_;
  int height_;
  std::size_t count_ = 0;
};

}  // namespace w4k::video
