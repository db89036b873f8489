// Fuzz target: the w4kd status endpoint's request-line parser
// (serve::parse_request_line). The endpoint reads whatever a local client
// sends; the parser must never read outside the request bytes (the
// sanitizer builds check that) and must split method and path exactly as
// the endpoint has always routed them: the C-string view of the request
// (up to its first NUL) cut at its first two spaces.
#include "serve/http_status.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // An exact-size copy, so any read past the request is out of bounds.
  const std::vector<char> bytes(data, data + size);
  const auto line = w4k::serve::parse_request_line(
      std::string_view(bytes.data(), bytes.size()));

  // Reference: the strchr split over a NUL-terminated copy.
  const std::string cstr(bytes.begin(), bytes.end());
  const char* sp1 = std::strchr(cstr.c_str(), ' ');
  const char* sp2 = sp1 != nullptr ? std::strchr(sp1 + 1, ' ') : nullptr;
  if (sp2 == nullptr) {
    if (line) __builtin_trap();
    return 0;
  }
  if (!line) __builtin_trap();
  const char* begin = cstr.c_str();
  if (line->method !=
      std::string_view(begin, static_cast<std::size_t>(sp1 - begin)))
    __builtin_trap();
  if (line->path !=
      std::string_view(sp1 + 1, static_cast<std::size_t>(sp2 - sp1 - 1)))
    __builtin_trap();
  // Both views lie inside the request.
  const char* lo = bytes.data();
  const char* hi = lo + bytes.size();
  for (const std::string_view v : {line->method, line->path})
    if (v.data() < lo || v.data() + v.size() > hi) __builtin_trap();
  return 0;
}
