#include "common/params.h"

#include <gtest/gtest.h>

namespace hdk {
namespace {

TEST(HdkParamsTest, DefaultsAreValidAndMatchTable2) {
  HdkParams p;
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.df_max, 400u);
  EXPECT_EQ(p.very_frequent_threshold, 100000u);
  EXPECT_EQ(p.window, 20u);
  EXPECT_EQ(p.s_max, 3u);
}

TEST(HdkParamsTest, NdkTruncationDefaultsToDfMax) {
  HdkParams p;
  p.df_max = 500;
  EXPECT_EQ(p.EffectiveNdkTruncation(), 500u);
  p.ndk_truncation = 123;
  EXPECT_EQ(p.EffectiveNdkTruncation(), 123u);
}

TEST(HdkParamsTest, RejectsZeroDfMax) {
  HdkParams p;
  p.df_max = 0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(HdkParamsTest, RejectsTinyWindow) {
  HdkParams p;
  p.window = 1;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(HdkParamsTest, RejectsZeroSmax) {
  HdkParams p;
  p.s_max = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(HdkParamsTest, RejectsSmaxBeyondWindow) {
  HdkParams p;
  p.window = 3;
  p.s_max = 4;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(HdkParamsTest, RejectsZeroFf) {
  HdkParams p;
  p.very_frequent_threshold = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(HdkParamsTest, ToStringMentionsEveryKnob) {
  HdkParams p;
  std::string s = p.ToString();
  EXPECT_NE(s.find("df_max=400"), std::string::npos);
  EXPECT_NE(s.find("w=20"), std::string::npos);
  EXPECT_NE(s.find("s_max=3"), std::string::npos);
}

}  // namespace
}  // namespace hdk
