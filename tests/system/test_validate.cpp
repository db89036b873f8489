// SessionConfig::validate() rejection matrix: every malformed field must
// throw std::invalid_argument naming the offending field, and the checks
// must fire at session construction (not first frame) wherever the
// information exists that early.
#include "core/session.h"

#include "channel/array.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

SessionConfig good_config() { return SessionConfig::scaled(kW, kH); }

// Runs validate() and returns the exception message ("" = accepted).
std::string rejection(const SessionConfig& cfg,
                      std::size_t codebook_beams = SessionConfig::kUnknown) {
  try {
    cfg.validate(codebook_beams);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(SessionConfigValidate, AcceptsDefaults) {
  EXPECT_EQ(rejection(good_config()), "");
  EXPECT_EQ(rejection(SessionConfig{}), "");
}

TEST(SessionConfigValidate, RejectsNonPositiveRateScale) {
  auto cfg = good_config();
  cfg.rate_scale = 0.0;
  EXPECT_NE(rejection(cfg).find("SessionConfig.rate_scale"),
            std::string::npos);
  cfg.rate_scale = -1.0;
  EXPECT_NE(rejection(cfg).find("rate_scale"), std::string::npos);
  cfg.rate_scale = std::nan("");
  EXPECT_NE(rejection(cfg).find("rate_scale"), std::string::npos);
}

TEST(SessionConfigValidate, RejectsMakeupMarginOutsideUnitInterval) {
  auto cfg = good_config();
  cfg.makeup_margin = 1.0;  // reserve must leave some airtime
  EXPECT_NE(rejection(cfg).find("SessionConfig.makeup_margin"),
            std::string::npos);
  cfg.makeup_margin = -0.01;
  EXPECT_NE(rejection(cfg).find("makeup_margin"), std::string::npos);
  cfg.makeup_margin = 0.999;  // inside [0, 1): fine
  EXPECT_EQ(rejection(cfg), "");
}

TEST(SessionConfigValidate, RejectsZeroSymbolSizeAndQueue) {
  auto cfg = good_config();
  cfg.engine.symbol_size = 0;
  EXPECT_NE(rejection(cfg).find("engine.symbol_size"), std::string::npos);
  cfg = good_config();
  cfg.engine.queue_capacity_bytes = 0;
  EXPECT_NE(rejection(cfg).find("engine.queue_capacity_bytes"),
            std::string::npos);
}

TEST(SessionConfigValidate, RejectsNegativeNoise) {
  auto cfg = good_config();
  cfg.sls_noise_db = -0.5;
  EXPECT_NE(rejection(cfg).find("sls_noise_db"), std::string::npos);
}

TEST(SessionConfigValidate, RejectsUndersizedCodebookOnlyWithEstimation) {
  auto cfg = good_config();
  cfg.use_estimated_csi = true;
  const std::size_t small = channel::kDefaultApAntennas - 1;
  EXPECT_NE(rejection(cfg, small).find("use_estimated_csi"),
            std::string::npos);
  // Unknown codebook size: defer (the step-time check still guards).
  EXPECT_EQ(rejection(cfg), "");
  // Perfect CSI never needs the codebook.
  cfg.use_estimated_csi = false;
  EXPECT_EQ(rejection(cfg, small), "");
}

TEST(SessionConfigValidate, RejectsBadDegradationKnobs) {
  auto cfg = good_config();
  cfg.stale_csi_backoff_db = -1.0;
  EXPECT_NE(rejection(cfg).find("stale_csi_backoff_db"), std::string::npos);
  cfg = good_config();
  cfg.stale_csi_backoff_db = std::nan("");
  EXPECT_NE(rejection(cfg).find("stale_csi_backoff_db"), std::string::npos);

  cfg = good_config();
  cfg.quarantine_reprobe_period = 0;  // would never re-probe
  EXPECT_NE(rejection(cfg).find("quarantine_reprobe_period"),
            std::string::npos);
  cfg = good_config();
  cfg.quarantine_after = 0;  // 0 = quarantine disabled: fine
  EXPECT_EQ(rejection(cfg), "");
}

TEST(SessionConfigValidate, FirstFailingFieldIsNamed) {
  auto cfg = good_config();
  cfg.rate_scale = 0.0;
  cfg.makeup_margin = 2.0;
  const std::string msg = rejection(cfg);
  EXPECT_NE(msg.find("rate_scale"), std::string::npos);
  EXPECT_EQ(msg.find("makeup_margin"), std::string::npos);
}

}  // namespace
}  // namespace w4k::core
