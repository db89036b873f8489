#include "fault/plan.h"

#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace w4k::fault {
namespace {

[[noreturn]] void bad(const std::string& field, const std::string& msg) {
  throw std::invalid_argument("FaultPlan." + field + ": " + msg);
}

std::string idx(const char* name, std::size_t i) {
  return std::string(name) + "[" + std::to_string(i) + "]";
}

}  // namespace

void FaultPlan::validate(std::size_t n_users, std::size_t n_aps) const {
  const auto check_user = [&](const std::string& field, std::size_t user) {
    if (n_users > 0 && user >= n_users)
      bad(field + ".user",
          "user " + std::to_string(user) + " out of range (" +
              std::to_string(n_users) + " users)");
  };
  const auto check_ap = [&](const std::string& field, std::size_t ap) {
    if (n_aps > 0 && ap >= n_aps)
      bad(field + ".ap", "ap " + std::to_string(ap) + " out of range (" +
                             std::to_string(n_aps) + " aps)");
  };
  for (std::size_t i = 0; i < feedback.size(); ++i) {
    check_user(idx("feedback", i), feedback[i].user);
    if (feedback[i].delay_frames == 0)
      bad(idx("feedback", i) + ".delay_frames",
          "must be < 0 (lost) or > 0 (delayed), not 0");
  }
  for (std::size_t i = 0; i < blockage.size(); ++i) {
    check_user(idx("blockage", i), blockage[i].user);
    if (blockage[i].n_frames == 0)
      bad(idx("blockage", i) + ".n_frames", "must be > 0");
    if (!std::isfinite(blockage[i].extra_loss_db) ||
        blockage[i].extra_loss_db < 0.0)
      bad(idx("blockage", i) + ".extra_loss_db",
          "must be finite and >= 0 dB (got " +
              std::to_string(blockage[i].extra_loss_db) + ")");
    if (blockage[i].ap >= 0)
      check_ap(idx("blockage", i),
               static_cast<std::size_t>(blockage[i].ap));
  }
  for (std::size_t i = 0; i < budget.size(); ++i) {
    if (budget[i].n_frames == 0)
      bad(idx("budget", i) + ".n_frames", "must be > 0");
    if (!(budget[i].budget_scale > 0.0 && budget[i].budget_scale <= 1.0))
      bad(idx("budget", i) + ".budget_scale",
          "must be in (0, 1] (got " +
              std::to_string(budget[i].budget_scale) + ")");
  }
  for (std::size_t i = 0; i < churn.size(); ++i)
    check_user(idx("churn", i), churn[i].user);
  for (std::size_t i = 0; i < ap_outage.size(); ++i) {
    check_ap(idx("ap_outage", i), ap_outage[i].ap);
    if (ap_outage[i].n_frames == 0)
      bad(idx("ap_outage", i) + ".n_frames", "must be > 0");
    if (!ap_outage[i].total) {
      if (!std::isfinite(ap_outage[i].sector_center_deg))
        bad(idx("ap_outage", i) + ".sector_center_deg", "must be finite");
      if (!std::isfinite(ap_outage[i].sector_width_deg) ||
          !(ap_outage[i].sector_width_deg > 0.0 &&
            ap_outage[i].sector_width_deg <= 360.0))
        bad(idx("ap_outage", i) + ".sector_width_deg",
            "must be in (0, 360] degrees (got " +
                std::to_string(ap_outage[i].sector_width_deg) + ")");
    }
  }
  for (std::size_t i = 0; i < relay_churn.size(); ++i) {
    check_user(idx("relay_churn", i), relay_churn[i].user);
    if (relay_churn[i].n_frames == 0)
      bad(idx("relay_churn", i) + ".n_frames", "must be > 0");
  }
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::uint32_t n_frames,
                            std::size_t n_users,
                            const RandomPlanConfig& cfg) {
  if (n_frames == 0)
    throw std::invalid_argument("FaultPlan::random: n_frames == 0");
  if (n_users == 0)
    throw std::invalid_argument("FaultPlan::random: n_users == 0");
  Rng rng(seed);
  FaultPlan plan;
  const auto frame = [&] {
    return static_cast<std::uint32_t>(rng.below(n_frames));
  };
  const auto user = [&] { return static_cast<std::size_t>(rng.below(n_users)); };
  const auto burst_len = [&] {
    return 1 + static_cast<std::uint32_t>(
                   rng.below(std::max<std::uint32_t>(1, cfg.max_burst_frames)));
  };

  for (int i = 0; i < cfg.feedback_events; ++i) {
    FeedbackFault f;
    f.frame = frame();
    f.user = user();
    f.delay_frames = rng.chance(0.3) ? 1 + static_cast<int>(rng.below(3)) : -1;
    plan.feedback.push_back(f);
  }
  for (int i = 0; i < cfg.csi_events; ++i)
    plan.csi.push_back(CsiFault{frame(), rng.chance(0.4)});
  for (int i = 0; i < cfg.blockage_bursts; ++i) {
    BlockageBurst b;
    b.start_frame = frame();
    b.n_frames = burst_len();
    b.user = user();
    b.extra_loss_db = rng.uniform(cfg.min_blockage_db, cfg.max_blockage_db);
    plan.blockage.push_back(b);
  }
  for (int i = 0; i < cfg.budget_collapses; ++i) {
    BudgetCollapse b;
    b.start_frame = frame();
    b.n_frames = burst_len();
    b.budget_scale = rng.uniform(cfg.min_budget_scale, 1.0);
    plan.budget.push_back(b);
  }
  // Churn in leave/rejoin pairs so the plan never drains the session of
  // every user: user 0 is exempt, and each leave schedules a rejoin.
  for (int i = 0; i < cfg.churn_events && n_users > 1; ++i) {
    const std::size_t u = 1 + static_cast<std::size_t>(rng.below(n_users - 1));
    const std::uint32_t leave = frame();
    const std::uint32_t back =
        std::min<std::uint32_t>(n_frames, leave + burst_len());
    plan.churn.push_back(ChurnEvent{leave, u, /*join=*/false});
    if (back < n_frames) plan.churn.push_back(ChurnEvent{back, u, /*join=*/true});
  }
  // The multi-AP fault classes are drawn strictly after everything above
  // and default to 0 events, so a default-config call consumes exactly the
  // same RNG stream it always did (the `faulted` golden depends on that).
  for (int i = 0; i < cfg.ap_outages && cfg.n_aps > 0; ++i) {
    ApOutage o;
    o.start_frame = frame();
    o.n_frames = burst_len();
    o.ap = static_cast<std::size_t>(rng.below(cfg.n_aps));
    o.total = !rng.chance(0.35);
    if (!o.total) {
      o.sector_center_deg = rng.uniform(-90.0, 90.0);
      o.sector_width_deg = rng.uniform(30.0, 120.0);
    }
    plan.ap_outage.push_back(o);
  }
  for (int i = 0; i < cfg.handoff_beacon_losses; ++i)
    plan.handoff_beacon.push_back(HandoffBeaconLoss{frame()});
  for (int i = 0; i < cfg.relay_churns; ++i) {
    RelayChurn r;
    r.start_frame = frame();
    r.n_frames = burst_len();
    r.user = user();
    plan.relay_churn.push_back(r);
  }
  plan.validate(n_users, cfg.n_aps);
  return plan;
}

namespace {

[[noreturn]] void line_err(int line, const std::string& msg) {
  throw std::runtime_error("fault-plan:" + std::to_string(line) + ": " + msg);
}

}  // namespace

FaultPlan parse_fault_plan(std::istream& is) {
  FaultPlan plan;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank / comment-only line

    const auto want = [&](auto& v, const char* what) {
      if (!(ls >> v)) line_err(lineno, std::string("expected ") + what);
    };
    if (kind == "feedback") {
      FeedbackFault f;
      std::string mode;
      want(f.frame, "<frame>");
      want(f.user, "<user>");
      want(mode, "lost|delay");
      if (mode == "lost") {
        f.delay_frames = -1;
      } else if (mode == "delay") {
        want(f.delay_frames, "<frames> after 'delay'");
        if (f.delay_frames <= 0)
          line_err(lineno, "feedback delay must be > 0 frames");
      } else {
        line_err(lineno, "feedback mode must be 'lost' or 'delay'");
      }
      plan.feedback.push_back(f);
    } else if (kind == "csi") {
      CsiFault c;
      std::string mode;
      want(c.frame, "<frame>");
      want(mode, "stale|corrupt");
      if (mode == "corrupt") c.corrupt = true;
      else if (mode != "stale")
        line_err(lineno, "csi mode must be 'stale' or 'corrupt'");
      plan.csi.push_back(c);
    } else if (kind == "blockage") {
      BlockageBurst b;
      want(b.start_frame, "<start_frame>");
      want(b.n_frames, "<n_frames>");
      want(b.user, "<user>");
      want(b.extra_loss_db, "<extra_db>");
      if (b.n_frames == 0) line_err(lineno, "blockage n_frames must be > 0");
      if (!std::isfinite(b.extra_loss_db) || b.extra_loss_db < 0.0)
        line_err(lineno, "blockage extra_db must be finite and >= 0");
      std::string ap_kw;
      if (ls >> ap_kw) {
        if (ap_kw != "ap")
          line_err(lineno, "expected 'ap <ap>' after extra_db, got '" +
                               ap_kw + "'");
        want(b.ap, "<ap> after 'ap'");
        if (b.ap < 0) line_err(lineno, "blockage ap must be >= 0");
      }
      plan.blockage.push_back(b);
    } else if (kind == "ap_outage") {
      ApOutage o;
      std::string mode;
      want(o.start_frame, "<start_frame>");
      want(o.n_frames, "<n_frames>");
      want(o.ap, "<ap>");
      want(mode, "total|sector");
      if (o.n_frames == 0) line_err(lineno, "ap_outage n_frames must be > 0");
      if (mode == "sector") {
        o.total = false;
        want(o.sector_center_deg, "<center_deg> after 'sector'");
        want(o.sector_width_deg, "<width_deg> after 'sector'");
        if (!std::isfinite(o.sector_center_deg))
          line_err(lineno, "ap_outage sector center must be finite");
        if (!std::isfinite(o.sector_width_deg) ||
            !(o.sector_width_deg > 0.0 && o.sector_width_deg <= 360.0))
          line_err(lineno, "ap_outage sector width must be in (0, 360]");
      } else if (mode != "total") {
        line_err(lineno, "ap_outage mode must be 'total' or 'sector'");
      }
      plan.ap_outage.push_back(o);
    } else if (kind == "handoff_beacon") {
      HandoffBeaconLoss h;
      want(h.frame, "<frame>");
      plan.handoff_beacon.push_back(h);
    } else if (kind == "relay_churn") {
      RelayChurn r;
      want(r.start_frame, "<start_frame>");
      want(r.n_frames, "<n_frames>");
      want(r.user, "<user>");
      if (r.n_frames == 0) line_err(lineno, "relay_churn n_frames must be > 0");
      plan.relay_churn.push_back(r);
    } else if (kind == "budget") {
      BudgetCollapse b;
      want(b.start_frame, "<start_frame>");
      want(b.n_frames, "<n_frames>");
      want(b.budget_scale, "<scale>");
      if (b.n_frames == 0) line_err(lineno, "budget n_frames must be > 0");
      if (!(b.budget_scale > 0.0 && b.budget_scale <= 1.0))
        line_err(lineno, "budget scale must be in (0, 1]");
      plan.budget.push_back(b);
    } else if (kind == "churn") {
      ChurnEvent c;
      std::string mode;
      want(c.frame, "<frame>");
      want(c.user, "<user>");
      want(mode, "join|leave");
      if (mode == "join") c.join = true;
      else if (mode != "leave")
        line_err(lineno, "churn mode must be 'join' or 'leave'");
      plan.churn.push_back(c);
    } else {
      line_err(lineno, "unknown event kind '" + kind + "'");
    }
    std::string extra;
    if (ls >> extra)
      line_err(lineno, "trailing tokens starting at '" + extra + "'");
  }
  return plan;
}

std::string to_text(const FaultPlan& plan) {
  std::ostringstream os;
  for (const auto& f : plan.feedback) {
    os << "feedback " << f.frame << ' ' << f.user;
    if (f.delay_frames < 0) os << " lost\n";
    else os << " delay " << f.delay_frames << '\n';
  }
  for (const auto& c : plan.csi)
    os << "csi " << c.frame << ' ' << (c.corrupt ? "corrupt" : "stale")
       << '\n';
  for (const auto& b : plan.blockage) {
    os << "blockage " << b.start_frame << ' ' << b.n_frames << ' ' << b.user
       << ' ' << obs::number_text(b.extra_loss_db);
    if (b.ap >= 0) os << " ap " << b.ap;
    os << '\n';
  }
  for (const auto& b : plan.budget)
    os << "budget " << b.start_frame << ' ' << b.n_frames << ' '
       << obs::number_text(b.budget_scale) << '\n';
  for (const auto& c : plan.churn)
    os << "churn " << c.frame << ' ' << c.user << ' '
       << (c.join ? "join" : "leave") << '\n';
  for (const auto& o : plan.ap_outage) {
    os << "ap_outage " << o.start_frame << ' ' << o.n_frames << ' ' << o.ap;
    if (o.total)
      os << " total\n";
    else
      os << " sector " << obs::number_text(o.sector_center_deg) << ' '
         << obs::number_text(o.sector_width_deg) << '\n';
  }
  for (const auto& h : plan.handoff_beacon)
    os << "handoff_beacon " << h.frame << '\n';
  for (const auto& r : plan.relay_churn)
    os << "relay_churn " << r.start_frame << ' ' << r.n_frames << ' '
       << r.user << '\n';
  return os.str();
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream is(path);
  if (!is)
    throw std::runtime_error("load_fault_plan: cannot open " + path);
  try {
    return parse_fault_plan(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace w4k::fault
