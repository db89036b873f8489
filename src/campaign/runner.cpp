#include "campaign/runner.h"

#include "campaign/stats_gate.h"

#include "beamforming/codebook.h"
#include "channel/mobility.h"
#include "core/frame_context.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "core/session.h"
#include "fault/injector.h"
#include "obs/manifest.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace w4k::campaign {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::SessionReport stream_cell(const ScenarioSpec& spec,
                                model::QualityModel& quality,
                                ContextCache& contexts,
                                const CampaignOptions& opts) {
  core::SessionConfig cfg = make_config(spec);
  if (opts.stale_csi_backoff_db >= 0.0) {
    cfg.stale_csi_backoff_db = opts.stale_csi_backoff_db;
    cfg.validate();
  }
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const std::vector<core::FrameContext>& ctx =
      contexts.get(spec.richness, spec.video_seed);
  const fault::FaultInjector injector(make_fault_plan(spec), spec.n_users,
                                      spec.n_aps);
  switch (spec.kind) {
    case CellKind::kStatic:
    case CellKind::kMultiAp: {
      const channel::MultiApGeometry geo = make_geometry(spec);
      Rng rng(spec.placement_seed);
      const auto users = core::place_users_fixed(
          spec.n_users, spec.distance_m, spec.mas_rad, rng);
      return core::run_static(session, channel::ap_channel_stacks(geo, users),
                              ctx, spec.frames(), &injector,
                              channel::ap_user_azimuths(geo, users));
    }
    case CellKind::kMobile: {
      channel::MovingReceiverConfig mc;
      mc.prop.room.length = spec.room_length_m;
      mc.prop.room.width = spec.room_width_m;
      mc.n_users = spec.n_users;
      // +0.5 beacon so float truncation cannot drop the final snapshot.
      mc.duration = (spec.n_beacons + 0.5) * channel::kBeaconInterval;
      mc.walk_speed = spec.walk_speed_mps;
      mc.seed = spec.placement_seed;
      return core::run_trace(session, channel::moving_receiver_trace(mc),
                             ctx, 3, &injector);
    }
  }
  throw std::logic_error("unreachable cell kind");
}

struct SpawnedWorker {
  pid_t pid = -1;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string shard;
};

std::string shard_name(int worker) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04d.jsonl", worker);
  return buf;
}

pid_t spawn_worker(const std::string& self_exe, const CampaignOptions& opts,
                   std::uint64_t begin, std::uint64_t end,
                   const std::string& shard_path) {
  std::vector<std::string> args = {
      self_exe,
      "worker",
      "--seed=" + std::to_string(opts.campaign_seed),
      "--cells=" + std::to_string(opts.n_cells),
      "--begin=" + std::to_string(begin),
      "--end=" + std::to_string(end),
      "--out=" + shard_path,
  };
  if (!opts.model_cache.empty())
    args.push_back("--model-cache=" + opts.model_cache);
  if (opts.stale_csi_backoff_db >= 0.0)
    args.push_back("--stale-csi-backoff=" +
                   std::to_string(opts.stale_csi_backoff_db));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, self_exe.c_str(), nullptr, nullptr,
                               argv.data(), environ);
  if (rc != 0)
    throw std::runtime_error("campaign: posix_spawn failed for " + self_exe +
                             ": " + std::string(std::strerror(rc)));
  return pid;
}

/// Waits for `pid`; returns true when it exited cleanly with status 0.
bool wait_clean(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("campaign: cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_timing(const std::string& path, const CampaignResult& result,
                  int n_workers) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("campaign: cannot create " + path);
  char num[64];
  std::snprintf(num, sizeof(num), "%.3f", result.wall_ms);
  os << "{\"total_wall_ms\":" << num << ",\"workers\":" << n_workers
     << ",\"workers_failed\":" << result.workers_failed
     << ",\"cells_retried\":" << result.cells_retried
     << ",\"cells_crashed\":" << result.cells_crashed << ",\"cells\":[";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const CellRow& row = result.rows[i];
    std::snprintf(num, sizeof(num), "%.3f", row.wall_ms);
    os << (i ? "," : "") << "{\"cell\":" << row.cell << ",\"status\":\""
       << to_string(row.status) << "\",\"wall_ms\":" << num << '}';
  }
  os << "]}\n";
}

}  // namespace

std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 ? argv0 : "";
}

const std::vector<core::FrameContext>& ContextCache::get(
    video::Richness richness, std::uint64_t video_seed) {
  const auto key = std::make_pair(static_cast<int>(richness), video_seed);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  video::VideoSpec spec;
  spec.width = kCellWidth;
  spec.height = kCellHeight;
  spec.frames = 4;
  spec.richness = richness;
  spec.seed = video_seed;
  auto ctx = core::make_contexts(video::SyntheticVideo(spec), 3,
                                 core::scaled_symbol_size(kCellWidth,
                                                          kCellHeight));
  return cache_.emplace(key, std::move(ctx)).first->second;
}

CellRow run_cell(const ScenarioSpec& spec, model::QualityModel& quality,
                 ContextCache& contexts, const CampaignOptions& opts) {
  CellRow row;
  row.cell = spec.cell_index;
  row.kind = spec.kind;
  const double t0 = now_ms();
  try {
    const core::SessionReport report =
        stream_cell(spec, quality, contexts, opts);
    row.metrics = metrics_from_report(report);
    row.status = CellRow::Status::kOk;
  } catch (const std::exception& e) {
    row.status = CellRow::Status::kFailed;
    row.error = e.what();
  }
  row.wall_ms = now_ms() - t0;
  return row;
}

int run_worker(const CampaignOptions& opts, std::uint64_t begin,
               std::uint64_t end, const std::string& shard_path) {
  std::ofstream shard(shard_path, std::ios::binary);
  if (!shard) {
    std::fprintf(stderr, "campaign worker: cannot create %s\n",
                 shard_path.c_str());
    return 1;
  }
  std::int64_t crash_cell = -1;
  if (const char* env = std::getenv(kCrashCellEnv))
    crash_cell = std::atoll(env);

  model::QualityModel quality(42);
  core::PretrainedOptions popts;
  popts.cache_path = opts.model_cache;
  core::ensure_trained(quality, popts);

  ContextCache contexts;
  for (std::uint64_t i = begin; i < end; ++i) {
    const ScenarioSpec spec = ScenarioGen::cell(opts.campaign_seed, i);
    if (crash_cell >= 0 && static_cast<std::uint64_t>(crash_cell) == i)
      std::abort();  // crash-isolation hook; see kCrashCellEnv
    const CellRow row = run_cell(spec, quality, contexts, opts);
    shard << to_jsonl(row) << '\n';
    shard.flush();  // a crash later loses at most the in-flight cell
  }
  return shard ? 0 : 1;
}

CampaignResult run_campaign(const CampaignOptions& opts,
                            const std::string& self_exe) {
  if (opts.n_cells == 0) throw std::invalid_argument("campaign: 0 cells");
  if (opts.n_workers < 1)
    throw std::invalid_argument("campaign: need at least 1 worker");
  if (self_exe.empty())
    throw std::runtime_error("campaign: cannot resolve own executable");
  std::filesystem::create_directories(opts.out_dir);

  const double t0 = now_ms();
  // Train (or load) the shared model once before fan-out so the workers
  // all hit a warm cache instead of racing to train it.
  if (!opts.model_cache.empty()) {
    model::QualityModel quality(42);
    core::PretrainedOptions popts;
    popts.cache_path = opts.model_cache;
    core::ensure_trained(quality, popts);
  }

  // Contiguous partition: worker k gets cells [k*per + min(k, extra), ...).
  const int n_workers =
      static_cast<int>(std::min<std::uint64_t>(
          static_cast<std::uint64_t>(opts.n_workers), opts.n_cells));
  const std::uint64_t per = opts.n_cells / static_cast<std::uint64_t>(n_workers);
  const std::uint64_t extra = opts.n_cells % static_cast<std::uint64_t>(n_workers);
  std::vector<SpawnedWorker> workers;
  std::uint64_t next = 0;
  for (int k = 0; k < n_workers; ++k) {
    SpawnedWorker w;
    w.begin = next;
    w.end = next + per + (static_cast<std::uint64_t>(k) < extra ? 1 : 0);
    next = w.end;
    w.shard = opts.out_dir + "/" + shard_name(k);
    w.pid = spawn_worker(self_exe, opts, w.begin, w.end, w.shard);
    workers.push_back(std::move(w));
  }

  CampaignResult result;
  for (const SpawnedWorker& w : workers)
    if (!wait_clean(w.pid)) ++result.workers_failed;

  // Merge: first well-formed row per cell wins; torn lines were already
  // dropped by read_shard.
  std::map<std::uint64_t, CellRow> by_cell;
  for (const SpawnedWorker& w : workers)
    for (CellRow& row : read_shard(w.shard))
      by_cell.emplace(row.cell, std::move(row));

  // Re-run each missing cell once in its own process: a deterministic
  // abort crashes again and becomes a synthetic row; a transient failure
  // (e.g. a worker that died between cells) recovers.
  for (std::uint64_t i = 0; i < opts.n_cells; ++i) {
    if (by_cell.count(i)) continue;
    ++result.cells_retried;
    const std::string retry_shard =
        opts.out_dir + "/retry-" + std::to_string(i) + ".jsonl";
    wait_clean(spawn_worker(self_exe, opts, i, i + 1, retry_shard));
    for (CellRow& row : read_shard(retry_shard))
      by_cell.emplace(row.cell, std::move(row));
    if (!by_cell.count(i)) {
      CellRow crashed;
      crashed.cell = i;
      crashed.kind = ScenarioGen::cell(opts.campaign_seed, i).kind;
      crashed.status = CellRow::Status::kCrashed;
      by_cell.emplace(i, std::move(crashed));
      ++result.cells_crashed;
    }
  }

  result.rows.reserve(by_cell.size());
  for (auto& [cell, row] : by_cell) result.rows.push_back(std::move(row));
  result.summary =
      summarize_rows(opts.campaign_seed, opts.n_cells, result.rows);
  result.wall_ms = now_ms() - t0;

  {
    std::ofstream cells(opts.out_dir + "/cells.jsonl", std::ios::binary);
    if (!cells)
      throw std::runtime_error("campaign: cannot create cells.jsonl");
    for (const CellRow& row : result.rows) cells << to_jsonl(row) << '\n';
  }
  write_summary_file(opts.out_dir + "/summary.json", result.summary);
  write_timing(opts.out_dir + "/timing.json", result, n_workers);

  obs::Manifest manifest("campaign");
  manifest.set("campaign_seed",
               static_cast<std::int64_t>(opts.campaign_seed));
  manifest.set("cells", static_cast<std::int64_t>(opts.n_cells));
  manifest.set("workers", n_workers);
  manifest.set("ok", static_cast<std::int64_t>(result.summary.ok));
  manifest.set("failed", static_cast<std::int64_t>(result.summary.failed));
  manifest.set("cells_retried", result.cells_retried);
  manifest.set("cells_crashed", result.cells_crashed);
  manifest.set("stale_csi_backoff_override", opts.stale_csi_backoff_db);
  if (const char* threads = std::getenv("W4K_THREADS"))
    manifest.set_env("W4K_THREADS", threads);
  manifest.write_file(opts.out_dir + "/manifest.json");
  return result;
}

int run_selftest(const CampaignOptions& base, const std::string& self_exe) {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("selftest: %-55s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  };

  CampaignOptions multi = base;
  multi.out_dir = base.out_dir + "/clean-multi";
  const CampaignResult a = run_campaign(multi, self_exe);
  check(a.summary.ok + a.summary.failed == multi.n_cells,
        "multi-worker campaign covered every cell");

  // Same campaign, one worker, single-threaded sessions: the merged
  // summary must not move by a byte.
  CampaignOptions single = base;
  single.out_dir = base.out_dir + "/clean-single";
  single.n_workers = 1;
  std::string saved_threads;
  bool had_threads = false;
  if (const char* t = std::getenv("W4K_THREADS")) {
    saved_threads = t;
    had_threads = true;
  }
  ::setenv("W4K_THREADS", "1", 1);
  const CampaignResult b = run_campaign(single, self_exe);
  if (had_threads)
    ::setenv("W4K_THREADS", saved_threads.c_str(), 1);
  else
    ::unsetenv("W4K_THREADS");
  check(read_file(multi.out_dir + "/summary.json") ==
            read_file(single.out_dir + "/summary.json"),
        "summary byte-stable across workers=N/1 and W4K_THREADS=1");

  const GateReport clean = compare(b.summary, a.summary);
  check(clean.pass, "gate passes on an unchanged configuration");

  // The injected regression: a mis-tuned stale-CSI backoff. 30 dB of
  // over-backoff collapses the MCS choice on every held-CSI frame, so
  // CSI-faulted cells lose base-layer delivery and quality.
  CampaignOptions regressed = base;
  regressed.out_dir = base.out_dir + "/regressed";
  regressed.stale_csi_backoff_db = 30.0;
  const CampaignResult c = run_campaign(regressed, self_exe);
  const GateReport gate = compare(c.summary, a.summary);
  print_gate_report(std::cout, gate);
  check(!gate.pass, "gate flags the injected stale-CSI regression");

  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace w4k::campaign
