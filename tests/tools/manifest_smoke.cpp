// bench_smoke driver: runs one bench binary with W4K_MANIFEST_DIR pointed
// at the working directory, then validates that the run-manifest JSON it
// emits parses and carries the required sections (config echo,
// environment with the CPU dispatch tier and pool size, per-stage span
// summary). Exercises the same BenchMain path every bench binary uses, so
// a broken manifest writer fails tier-1 instead of silently producing
// unreadable BENCH_* artifacts.
//
// Usage: manifest_smoke <path-to-bench-binary> <manifest-name> [bench-args...]
// (any further arguments are passed to the bench).
#include "obs/jsonlite.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

int fail(const std::string& msg) {
  std::fprintf(stderr, "manifest_smoke: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3)
    return fail(
        "usage: manifest_smoke <bench-binary> <manifest-name> "
        "[bench-args...]");
  const std::string binary = argv[1];
  const std::string manifest = std::string(argv[2]) + ".manifest.json";
  const std::string log = std::string(argv[2]) + "_smoke.log";

  // Write the manifest into the ctest working directory.
  if (setenv("W4K_MANIFEST_DIR", ".", /*overwrite=*/1) != 0)
    return fail("setenv failed");
  std::remove(manifest.c_str());

  std::string cmd = "\"" + binary + "\"";
  for (int i = 3; i < argc; ++i) cmd += std::string(" \"") + argv[i] + "\"";
  cmd += " > \"" + log + "\" 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc != 0)
    return fail("bench exited with status " + std::to_string(rc) +
                " (see " + log + ")");

  std::ifstream in(manifest);
  if (!in) return fail("bench did not write " + manifest);
  std::stringstream buf;
  buf << in.rdbuf();

  std::string err;
  const auto doc = w4k::obs::json::parse(buf.str(), &err);
  if (!doc) return fail(manifest + " is not valid JSON: " + err);
  if (!doc->is_object()) return fail("manifest root is not an object");

  const auto* name = doc->find("name");
  if (name == nullptr || !name->is_string() || name->str != argv[2])
    return fail("manifest \"name\" missing or wrong");

  const auto* env = doc->find("environment");
  if (env == nullptr || !env->is_object())
    return fail("manifest \"environment\" missing");
  for (const char* key : {"gf256_tier", "pool_threads", "telemetry"})
    if (env->find(key) == nullptr)
      return fail(std::string("environment.") + key + " missing");

  const auto* config = doc->find("config");
  if (config == nullptr || !config->is_object())
    return fail("manifest \"config\" missing");

  const auto* stages = doc->find("stages");
  if (stages == nullptr || !stages->is_object())
    return fail("manifest \"stages\" missing");

  std::printf("manifest_smoke: %s OK (%zu stages)\n", manifest.c_str(),
              stages->obj.size());
  return 0;
}
