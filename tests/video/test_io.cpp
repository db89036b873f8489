#include "video/io.h"

#include "video/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

namespace w4k::video {
namespace {

Frame test_frame(int w = 64, int h = 64, std::uint64_t seed = 5) {
  VideoSpec spec;
  spec.width = w;
  spec.height = h;
  spec.frames = 1;
  spec.seed = seed;
  return SyntheticVideo(spec).frame(0);
}

/// Temp file that cleans up after itself.
struct TempPath {
  std::string path;
  explicit TempPath(const char* name) : path(std::string("w4k_io_test_") + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(Y4m, WriteReadRoundTrip) {
  TempPath tmp("roundtrip.y4m");
  const Frame f0 = test_frame(64, 64, 1);
  const Frame f1 = test_frame(64, 64, 2);
  {
    Y4mWriter writer(tmp.path, 64, 64, 30, 1);
    writer.write(f0);
    writer.write(f1);
    EXPECT_EQ(writer.frames_written(), 2u);
  }
  Y4mReader reader(tmp.path);
  EXPECT_EQ(reader.header().width, 64);
  EXPECT_EQ(reader.header().height, 64);
  EXPECT_EQ(reader.header().fps_num, 30);
  EXPECT_EQ(reader.header().fps_den, 1);
  const auto r0 = reader.next();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->y.pix, f0.y.pix);
  EXPECT_EQ(r0->u.pix, f0.u.pix);
  EXPECT_EQ(r0->v.pix, f0.v.pix);
  const auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->y.pix, f1.y.pix);
  EXPECT_FALSE(reader.next().has_value());  // clean EOF
}

TEST(Y4m, ReaderRejectsMissingFile) {
  EXPECT_THROW(Y4mReader("/nonexistent/clip.y4m"), std::runtime_error);
}

TEST(Y4m, ReaderRejectsGarbage) {
  TempPath tmp("garbage.y4m");
  std::ofstream(tmp.path) << "NOT A Y4M FILE\n";
  EXPECT_THROW(Y4mReader{tmp.path}, std::runtime_error);
}

TEST(Y4m, ReaderRejectsUnsupportedColorspace) {
  TempPath tmp("c444.y4m");
  std::ofstream(tmp.path) << "YUV4MPEG2 W64 H64 F30:1 C444\n";
  EXPECT_THROW(Y4mReader{tmp.path}, std::runtime_error);
}

TEST(Y4m, ReaderRejectsNonCodecDimensions) {
  TempPath tmp("odd.y4m");
  std::ofstream(tmp.path) << "YUV4MPEG2 W100 H64 F30:1 C420\n";
  EXPECT_THROW(Y4mReader{tmp.path}, std::runtime_error);
}

TEST(Y4m, ReaderDetectsTruncatedFrame) {
  TempPath tmp("short.y4m");
  {
    std::ofstream os(tmp.path, std::ios::binary);
    os << "YUV4MPEG2 W64 H64 F30:1 C420\nFRAME\n";
    os << "short payload";
  }
  Y4mReader reader(tmp.path);
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(Y4m, AcceptsC420VariantTags) {
  TempPath tmp("mpeg2.y4m");
  const Frame f = test_frame();
  {
    std::ofstream os(tmp.path, std::ios::binary);
    os << "YUV4MPEG2 W64 H64 F25:1 Ip A1:1 C420mpeg2\nFRAME\n";
    os.write(reinterpret_cast<const char*>(f.y.pix.data()),
             static_cast<std::streamsize>(f.y.pix.size()));
    os.write(reinterpret_cast<const char*>(f.u.pix.data()),
             static_cast<std::streamsize>(f.u.pix.size()));
    os.write(reinterpret_cast<const char*>(f.v.pix.data()),
             static_cast<std::streamsize>(f.v.pix.size()));
  }
  Y4mReader reader(tmp.path);
  EXPECT_EQ(reader.header().colorspace, "420mpeg2");
  EXPECT_EQ(reader.header().fps_num, 25);
  const auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->y.pix, f.y.pix);
}

TEST(Y4m, WriterRejectsMismatchedFrame) {
  TempPath tmp("mismatch.y4m");
  Y4mWriter writer(tmp.path, 64, 64);
  EXPECT_THROW(writer.write(test_frame(128, 64)), std::invalid_argument);
}

TEST(Y4m, WriterRejectsBadDimensions) {
  TempPath tmp("bad.y4m");
  EXPECT_THROW(Y4mWriter(tmp.path, 100, 64), std::runtime_error);
}

}  // namespace
}  // namespace w4k::video
