#include "sched/planner.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "obs/span.h"
#include "verify/invariants.h"

#include <algorithm>
#include <bit>
#include <string>

namespace w4k::sched {
namespace {

/// The verify layer's checks on the emitted groups.
void check_groups(const std::vector<GroupSpec>& groups, const Membership& who) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const int lead = std::countr_zero(groups[g].mask);
    for (std::size_t u : SetBits{groups[g].mask}) {
      // One stale cache entry would leak traffic to a silent user.
      verify::check(u < who.exclude.size() && who.exclude[u] == 0,
                    "session.excluded-user-scheduled", [&] {
                      return "group " + std::to_string(g) +
                             " contains excluded user " + std::to_string(u);
                    });
      // One radio serves one beam: a member attached elsewhere would hear
      // nothing while dragging the group MCS.
      const auto& ap = who.partition;
      verify::check(ap.empty() || (u < ap.size() && ap[u] == ap[lead]),
                    "session.group-spans-aps", [&] {
                      return "group " + std::to_string(g) + " mixes AP " +
                             std::to_string(ap[lead]) + " and AP " +
                             std::to_string(ap[u]) + " (user " +
                             std::to_string(u) + ")";
                    });
    }
  }
}

}  // namespace

Planner::Planner(const Settings& settings)
    : settings_(settings),
      cache_(settings.scheme, settings.beam_seed, settings.rate_scale) {}

void Planner::forget_plan() {
  prev_.clear();
  prev_pass_ = 0;
  prev_total_ = 0.0;
  prev_users_ = 0;
}

void Planner::clear() {
  cache_.clear();
  forget_plan();
  measured_.clear();
  measured_pass_ = 0;
}

void Planner::note_measured(const Decision& d, std::span<const Mbps> rates) {
  measured_.clear();
  for (std::size_t g = 0; g < d.groups.size() && g < rates.size(); ++g)
    measured_.push_back({d.groups[g].mask, rates[g]});
  measured_pass_ = d.pass;
}

Mbps Planner::measured_rate(const Decision& d, std::size_t g) const {
  // The same pass is the same group list: entry g is group g's own.
  if (d.pass != 0 && d.pass == measured_pass_)
    return g < measured_.size() ? measured_[g].rate : Mbps{0.0};
  const MeasuredGroup* e = find_mask(measured_, d.groups[g].mask);
  return e ? e->rate : Mbps{0.0};
}

void Planner::decide_into(const std::vector<linalg::CVector>& channels,
                          const FrameContent& content,
                          const std::vector<UnitSpec>& units,
                          const Membership& who,
                          const beamforming::Codebook& codebook,
                          model::QualityModel& quality, Decision& d) {
  // A zero budget arms nothing: the decision stays a pure function.
  Deadline beam_deadline;
  AllocProblem problem;
  if (settings_.deadline_ms > 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto budget =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(settings_.deadline_ms));
    beam_deadline = t0 + budget * 45 / 100;
    problem.deadline = t0 + budget * 90 / 100;
  }
  {
    // Each subset's beam is seeded by its member mask, so the cache and the
    // parallel misses are bit-identical to sched::enumerate_groups.
    static obs::Stage& st = obs::stage("session.beamform");
    obs::StageSpan span(st);
    // The cache scales Table 2 rates to the frame resolution as it emits.
    d.pass = cache_.enumerate_into(channels, codebook, settings_.group_enum,
                                   who, beam_deadline, &ThreadPool::shared(),
                                   d.groups, d.pass);
  }
  if (verify::enabled()) check_groups(d.groups, who);

  if (d.groups.empty()) {
    // Deep outage. A reused decision must not leak the previous plan;
    // row-wise clears keep the row buffers for the next schedulable frame.
    d.allocation.reset(0, 0);
    d.unit_map.assignments.clear();
    for (auto& row : d.unit_map.user_symbols) row.clear();
    for (auto& row : d.unit_map.user_decodes) row.clear();
    d.unit_map.leftover_symbols = 0;
    return;
  }

  problem.groups = d.groups;
  problem.n_users = channels.size();
  problem.content = content;
  problem.time_budget = settings_.time_budget;
  {
    static obs::Stage& st = obs::stage("session.allocate");
    obs::StageSpan span(st);
    if (settings_.optimized) {
      optimize_allocation_into(problem, quality, alloc_scratch_, d.allocation,
                               {}, warm_start(d, channels.size()));
      forget_plan();  // this plan warm-starts the next frame
      prev_pass_ = d.pass;
      prev_users_ = channels.size();
      for (std::size_t g = 0; g < d.groups.size(); ++g) {
        prev_.push_back({d.groups[g].mask, d.allocation.time(g)});
        for (double v : d.allocation.time(g)) prev_total_ += v;
      }
    } else {
      round_robin_allocation_into(problem, quality, alloc_scratch_,
                                  d.allocation);
    }
  }
  {
    static obs::Stage& st = obs::stage("session.unitmap");
    obs::StageSpan span(st);
    map_to_units_into(d.groups, d.allocation.bytes_rows(), units,
                      channels.size(), settings_.symbol_size, unit_scratch_,
                      d.unit_map);
  }
}

const std::vector<double>* Planner::warm_start(const Decision& d,
                                               std::size_t n_users) {
  if (prev_total_ <= 0.0 || prev_users_ != n_users) return nullptr;
  const std::vector<GroupSpec>& groups = d.groups;
  warm_.assign(groups.size() * video::kNumLayers, 0.0);
  // The same pass is the same group list: entry g is group g's own plan.
  const bool aligned = d.pass != 0 && d.pass == prev_pass_;
  double covered = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const PlannedGroup* e =
        aligned ? (g < prev_.size() ? &prev_[g] : nullptr)
                : find_mask(prev_, groups[g].mask);
    if (!e) continue;
    for (std::size_t j = 0; j < video::kNumLayers; ++j) {
      warm_[g * video::kNumLayers + j] = e->t[j];
      covered += e->t[j];
    }
  }
  return covered >= 0.5 * prev_total_ ? &warm_ : nullptr;
}

}  // namespace w4k::sched
