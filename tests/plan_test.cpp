#include <gtest/gtest.h>

#include "core/plan.h"

namespace h2p {
namespace {

TEST(Slice, EmptyAndSize) {
  EXPECT_TRUE((Slice{3, 3}).empty());
  EXPECT_TRUE((Slice{5, 2}).empty());
  EXPECT_FALSE((Slice{0, 1}).empty());
  EXPECT_EQ((Slice{2, 7}).size(), 5u);
  EXPECT_EQ((Slice{7, 2}).size(), 0u);
}

TEST(ModelPlan, CoversFullTiling) {
  ModelPlan mp;
  mp.slices = {{0, 3}, {3, 3}, {3, 8}, {8, 10}};
  EXPECT_TRUE(mp.covers(10));
}

TEST(ModelPlan, CoversRejectsGap) {
  ModelPlan mp;
  mp.slices = {{0, 3}, {4, 10}};
  EXPECT_FALSE(mp.covers(10));
}

TEST(ModelPlan, CoversRejectsOverlap) {
  ModelPlan mp;
  mp.slices = {{0, 5}, {4, 10}};
  EXPECT_FALSE(mp.covers(10));
}

TEST(ModelPlan, CoversRejectsShort) {
  ModelPlan mp;
  mp.slices = {{0, 5}};
  EXPECT_FALSE(mp.covers(10));
}

TEST(ModelPlan, CoversRejectsBackwardsSlice) {
  // Slice::empty() calls [12, 5) empty, but a backwards range is malformed,
  // not a skipped processor.
  ModelPlan mp;
  mp.slices = {{0, 10}, {12, 5}};
  EXPECT_FALSE(mp.covers(10));
  mp.slices = {{0, 10}, {10, 10}};
  EXPECT_TRUE(mp.covers(10));
}

TEST(ModelPlan, AllEmptyCoversZeroLayers) {
  ModelPlan mp;
  mp.slices = {{0, 0}, {0, 0}};
  EXPECT_TRUE(mp.covers(0));
  EXPECT_FALSE(mp.covers(1));
}

TEST(PipelinePlan, ToStringShowsSlicesAndLabels) {
  PipelinePlan plan;
  plan.num_stages = 2;
  ModelPlan mp;
  mp.model_index = 3;
  mp.high_contention = true;
  mp.slices = {{0, 2}, {2, 5}};
  plan.models.push_back(mp);
  const std::string s = plan.to_string();
  EXPECT_NE(s.find("request 3"), std::string::npos);
  EXPECT_NE(s.find("[H]"), std::string::npos);
  EXPECT_NE(s.find("[0,2)"), std::string::npos);
}

}  // namespace
}  // namespace h2p
