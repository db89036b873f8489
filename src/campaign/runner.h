// Sharded campaign execution: a parent process partitions the cell range
// across worker processes (fork/exec of the campaign binary itself), each
// worker streams its cells and appends one JSONL row per cell to its own
// shard with a flush after every row, and the parent merges the shards
// into the canonical summary. Crash isolation is structural: an aborting
// cell kills only its worker process; the parent re-runs the missing
// cells one per process and records a synthetic "crashed" row for any
// cell that dies again — the campaign always completes.
#pragma once

#include "campaign/scenario.h"
#include "campaign/shard.h"
#include "model/quality_model.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace w4k::core {
struct FrameContext;
}

namespace w4k::campaign {

/// Abort hook for the crash-isolation tests: when the environment variable
/// W4K_CAMPAIGN_CRASH_CELL names a cell index, the worker that reaches it
/// calls std::abort() mid-cell — deterministically, so crash handling is
/// itself byte-stable across worker partitions.
inline constexpr const char* kCrashCellEnv = "W4K_CAMPAIGN_CRASH_CELL";

struct CampaignOptions {
  std::uint64_t campaign_seed = 1;
  std::uint64_t n_cells = 500;
  int n_workers = 4;
  std::string out_dir;      ///< shards + merged outputs land here
  std::string model_cache;  ///< shared quality-model cache (empty: retrain)
  /// Config override for the gate's regression self-test: >= 0 replaces
  /// SessionConfig::stale_csi_backoff_db in every cell. A large value
  /// over-backs-off every held-CSI decision, degrading MCS and SSIM on
  /// all CSI-faulted cells — a realistic "mis-tuned knob" regression.
  double stale_csi_backoff_db = -1.0;
};

/// Per-worker cache of the expensive encoded-frame contexts, keyed by the
/// cell's (richness, video_seed) palette entry.
class ContextCache {
 public:
  const std::vector<core::FrameContext>& get(video::Richness richness,
                                             std::uint64_t video_seed);

 private:
  std::map<std::pair<int, std::uint64_t>, std::vector<core::FrameContext>>
      cache_;
};

/// Executes one cell end-to-end (generate spec, materialize, stream,
/// extract metrics). Exceptions become a kFailed row with the message in
/// `error`; never throws.
CellRow run_cell(const ScenarioSpec& spec, model::QualityModel& quality,
                 ContextCache& contexts, const CampaignOptions& opts);

/// Worker entry point: streams cells [begin, end) of the campaign and
/// appends one JSONL row per cell to `shard_path`, flushing after each row
/// so a crash loses at most the in-flight cell. Returns a process exit
/// code (0 on success).
int run_worker(const CampaignOptions& opts, std::uint64_t begin,
               std::uint64_t end, const std::string& shard_path);

struct CampaignResult {
  CampaignSummary summary;
  std::vector<CellRow> rows;  ///< one per cell, sorted by cell index
  int workers_failed = 0;     ///< worker processes with nonzero exit
  int cells_retried = 0;      ///< missing cells re-run in isolation
  int cells_crashed = 0;      ///< cells recorded via synthetic rows
  double wall_ms = 0.0;
};

/// Orchestrates a full campaign: spawns `n_workers` processes of
/// `self_exe` over a contiguous partition of the cell range, waits,
/// re-runs missing cells, merges, and writes `cells.jsonl`,
/// `summary.json`, `timing.json`, and `manifest.json` into
/// opts.out_dir. The summary (file and return value) is byte-stable
/// across worker counts; the timing sidecar carries all wall-clock data.
/// Throws std::runtime_error on orchestration failures (cannot spawn,
/// cannot write).
CampaignResult run_campaign(const CampaignOptions& opts,
                            const std::string& self_exe);

/// End-to-end self-test of the campaign + gate machinery:
///  1. runs a campaign with `n_workers` workers, and again with one
///     worker under W4K_THREADS=1 — the two summary.json files must be
///     byte-identical;
///  2. the statistical gate comparing the two must PASS;
///  3. a third campaign with stale_csi_backoff_db mis-set to 30 dB must
///     FAIL the gate against the first.
/// Returns 0 when all three hold; prints a verdict trail to stdout.
int run_selftest(const CampaignOptions& base, const std::string& self_exe);

/// Resolves /proc/self/exe (fallback: argv0) for worker respawning.
std::string self_executable(const char* argv0);

}  // namespace w4k::campaign
