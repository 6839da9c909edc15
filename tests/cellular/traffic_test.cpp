#include "cellular/traffic.hpp"

#include <gtest/gtest.h>

namespace facs::cellular {
namespace {

TEST(ServiceProfiles, PaperBandwidthDemands) {
  // Section 4: "The requested size was 1, 5 and 10 BU for text, voice and
  // video, respectively."
  EXPECT_EQ(profileFor(ServiceClass::Text).demand_bu, 1);
  EXPECT_EQ(profileFor(ServiceClass::Voice).demand_bu, 5);
  EXPECT_EQ(profileFor(ServiceClass::Video).demand_bu, 10);
}

TEST(ServiceProfiles, RealTimeSplitMatchesDsCounters) {
  // Voice and video feed the Real-Time Counter; text the Non-Real-Time one.
  EXPECT_FALSE(profileFor(ServiceClass::Text).real_time);
  EXPECT_TRUE(profileFor(ServiceClass::Voice).real_time);
  EXPECT_TRUE(profileFor(ServiceClass::Video).real_time);
}

TEST(ServiceProfiles, Names) {
  EXPECT_EQ(toString(ServiceClass::Text), "text");
  EXPECT_EQ(toString(ServiceClass::Voice), "voice");
  EXPECT_EQ(toString(ServiceClass::Video), "video");
}

TEST(TrafficMix, PaperDefaultFractions) {
  const TrafficMix mix = TrafficMix::paperDefault();
  EXPECT_DOUBLE_EQ(mix.fraction(ServiceClass::Text), 0.60);
  EXPECT_DOUBLE_EQ(mix.fraction(ServiceClass::Voice), 0.30);
  EXPECT_DOUBLE_EQ(mix.fraction(ServiceClass::Video), 0.10);
}

TEST(TrafficMix, MeanDemand) {
  // 0.6*1 + 0.3*5 + 0.1*10 = 3.1 BU.
  EXPECT_NEAR(TrafficMix::paperDefault().meanDemandBu(), 3.1, 1e-12);
  EXPECT_NEAR(TrafficMix(1.0, 0.0, 0.0).meanDemandBu(), 1.0, 1e-12);
  EXPECT_NEAR(TrafficMix(0.0, 0.0, 1.0).meanDemandBu(), 10.0, 1e-12);
}

TEST(TrafficMix, Validation) {
  EXPECT_THROW(TrafficMix(0.5, 0.5, 0.5), std::invalid_argument);
  EXPECT_THROW(TrafficMix(-0.1, 0.6, 0.5), std::invalid_argument);
  EXPECT_THROW(TrafficMix(0.3, 0.3, 0.3), std::invalid_argument);
  EXPECT_NO_THROW(TrafficMix(0.0, 0.0, 1.0));
}

TEST(TrafficMix, SamplingMatchesFractions) {
  const TrafficMix mix = TrafficMix::paperDefault();
  sim::Rng rng{12345};
  std::array<int, kServiceClassCount> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<std::size_t>(mix.sample(rng))]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.60, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.30, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.10, 0.01);
}

TEST(TrafficMix, DegenerateMixAlwaysSamplesThatClass) {
  const TrafficMix video_only{0.0, 0.0, 1.0};
  sim::Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(video_only.sample(rng), ServiceClass::Video);
  }
}

}  // namespace
}  // namespace facs::cellular
