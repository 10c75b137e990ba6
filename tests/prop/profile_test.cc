#include "prop/profile.h"

#include <gtest/gtest.h>

#include <vector>

namespace distinct {
namespace {

TEST(NeighborProfileTest, SortsEntriesByTuple) {
  NeighborProfile profile({{5, 0.2, 0.1}, {1, 0.3, 0.2}, {3, 0.5, 0.7}});
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile.entries()[0].tuple, 1);
  EXPECT_EQ(profile.entries()[1].tuple, 3);
  EXPECT_EQ(profile.entries()[2].tuple, 5);
  // Each entry keeps its own probabilities through the sort.
  EXPECT_EQ(profile.entries()[0].forward, 0.3);
  EXPECT_EQ(profile.entries()[2].reverse, 0.1);
}

TEST(NeighborProfileTest, AscendingInputIsKeptAsIs) {
  const std::vector<ProfileEntry> ascending = {
      {2, 0.5, 0.25}, {4, 0.125, 1.0}, {9, 0.375, 0.5}};
  NeighborProfile profile(ascending);
  ASSERT_EQ(profile.size(), ascending.size());
  for (size_t i = 0; i < ascending.size(); ++i) {
    EXPECT_EQ(profile.entries()[i].tuple, ascending[i].tuple);
    EXPECT_EQ(profile.entries()[i].forward, ascending[i].forward);
    EXPECT_EQ(profile.entries()[i].reverse, ascending[i].reverse);
  }
}

TEST(NeighborProfileTest, ForwardSum) {
  NeighborProfile profile({{0, 0.25, 0.0}, {1, 0.75, 0.0}});
  EXPECT_DOUBLE_EQ(profile.ForwardSum(), 1.0);
  EXPECT_DOUBLE_EQ(NeighborProfile().ForwardSum(), 0.0);
}

TEST(NeighborProfileTest, ForwardOfBinarySearch) {
  NeighborProfile profile({{2, 0.1, 0.0}, {7, 0.4, 0.0}, {9, 0.5, 0.0}});
  EXPECT_DOUBLE_EQ(profile.ForwardOf(2), 0.1);
  EXPECT_DOUBLE_EQ(profile.ForwardOf(7), 0.4);
  EXPECT_DOUBLE_EQ(profile.ForwardOf(9), 0.5);
  EXPECT_DOUBLE_EQ(profile.ForwardOf(3), 0.0);
  EXPECT_DOUBLE_EQ(profile.ForwardOf(100), 0.0);
  EXPECT_DOUBLE_EQ(profile.ForwardOf(-1), 0.0);
}

TEST(NeighborProfileTest, EmptyProfile) {
  NeighborProfile profile;
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.size(), 0u);
  EXPECT_FALSE(profile.truncated());
}

TEST(NeighborProfileTest, TruncatedFlag) {
  NeighborProfile profile;
  profile.set_truncated(true);
  EXPECT_TRUE(profile.truncated());
}

}  // namespace
}  // namespace distinct
