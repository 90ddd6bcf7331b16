#include "wse/inline_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "wse/types.hpp"

namespace wss::wse {
namespace {

Flit flit(std::uint32_t payload, bool wide) {
  Flit f;
  f.payload = payload;
  f.wide = wide;
  return f;
}

std::vector<std::uint32_t> contents(const InlineRing<std::uint32_t, 4>& q) {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t v : q) out.push_back(v);
  return out;
}

TEST(InlineRing, FullAndEmpty) {
  InlineRing<std::uint32_t, 4> q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) q.push_back(i);
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(InlineRing, WrapsAroundInFifoOrder) {
  // Interleaved pushes and pops walk the head past the end of the storage
  // many times; order and iteration must follow the logical queue.
  InlineRing<std::uint32_t, 4> q;
  std::vector<std::uint32_t> model;
  std::uint32_t next = 0;
  for (int round = 0; round < 50; ++round) {
    const int pushes = 1 + round % 3;
    for (int k = 0; k < pushes && !q.full(); ++k) {
      q.push_back(next);
      model.push_back(next);
      ++next;
    }
    ASSERT_EQ(contents(q), model) << "round " << round;
    const int pops = 1 + (round + 1) % 3;
    for (int k = 0; k < pops && !q.empty(); ++k) {
      ASSERT_EQ(q.front(), model.front());
      q.pop_front();
      model.erase(model.begin());
    }
    ASSERT_EQ(q.size(), model.size());
  }
}

TEST(InlineRing, PushPastCapacityThrows) {
  InlineRing<std::uint32_t, 2> q;
  q.push_back(1);
  q.push_back(2);
  EXPECT_THROW(q.push_back(3), std::length_error);
  // The failed push left the ring intact.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front(), 1u);
  q.pop_front();
  q.push_back(3); // wrapped slot
  EXPECT_THROW(q.push_back(4), std::length_error);
}

TEST(InlineRing, HalfwordCountTracksWideFlits) {
  InlineRing<Flit, 4> q;
  EXPECT_EQ(q.halfwords(), 0);
  q.push_back(flit(1, false));
  q.push_back(flit(2, true));
  q.push_back(flit(3, true));
  EXPECT_EQ(q.halfwords(), 5);
  q.pop_front(); // narrow
  EXPECT_EQ(q.halfwords(), 4);
  q.push_back(flit(4, false));
  q.push_back(flit(5, true)); // wraps
  EXPECT_EQ(q.halfwords(), 7);
  int walked = 0;
  for (const Flit& f : q) walked += f.wide ? 2 : 1;
  EXPECT_EQ(walked, q.halfwords());
  q.pop_front(); // wide
  EXPECT_EQ(q.front().payload, 3u);
  EXPECT_EQ(q.halfwords(), 5);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.halfwords(), 0);
  q.push_back(flit(6, true));
  EXPECT_EQ(q.halfwords(), 2);
  EXPECT_EQ(q.front().payload, 6u);
}

} // namespace
} // namespace wss::wse
