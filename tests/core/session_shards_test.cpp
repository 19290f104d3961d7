// The controller's sharded session table (DESIGN.md §15): both endpoints
// of a connection share a shard, lookups and agent views see every shard,
// and the conn-id hash spreads sessions across shards.
#include "core/session_shards.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace naplet::nsock {
namespace {

SessionPtr make_session(std::uint64_t conn_id, const std::string& local,
                        const std::string& peer, bool initiator) {
  return std::make_shared<Session>(conn_id, 1, initiator,
                                   agent::AgentId(local),
                                   agent::AgentId(peer));
}

TEST(SessionShard, BothEndpointsOfAConnShareAShard) {
  SessionShardMap map;
  // Same conn_id, two local endpoints (loopback connection): the shard is
  // keyed on conn_id alone, so the pair must land together — that is what
  // keeps the erase-time "last endpoint gone" check shard-local.
  map.insert(make_session(42, "alice", "bob", true));
  map.insert(make_session(42, "bob", "alice", false));
  const std::vector<std::size_t> sizes = map.shard_sizes();
  std::size_t occupied = 0;
  for (std::size_t s : sizes) {
    if (s > 0) {
      ++occupied;
      EXPECT_EQ(s, 2u);
    }
  }
  EXPECT_EQ(occupied, 1u);

  EXPECT_FALSE(map.erase(42, "alice"));  // bob's endpoint remains
  EXPECT_TRUE(map.erase(42, "bob"));     // conn fully gone now
  EXPECT_EQ(map.size(), 0u);
}

TEST(SessionShard, LookupsAndAgentViews) {
  SessionShardMap map;
  map.insert(make_session(1, "alice", "bob", true));
  map.insert(make_session(2, "alice", "carol", true));
  map.insert(make_session(3, "dave", "alice", false));

  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(map.find(2)->conn_id(), 2u);
  EXPECT_EQ(map.find(99), nullptr);
  EXPECT_TRUE(map.contains_conn(3));

  ASSERT_NE(map.find_from(3, "alice"), nullptr);  // matched by sender
  EXPECT_EQ(map.find_from(3, "alice")->local_agent().name(), "dave");

  EXPECT_EQ(map.of_agent(agent::AgentId("alice")).size(), 2u);
  EXPECT_EQ(map.size(), 3u);
  const auto moved = map.extract_agent(agent::AgentId("alice"));
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SessionShard, HashSpreadsAcrossShards) {
  SessionShardMap map;
  const int kSessions = 4096;
  util::Rng rng(7);
  for (int i = 0; i < kSessions; ++i) {
    map.insert(make_session(rng.next_u64() | 1, "a" + std::to_string(i),
                            "peer", true));
  }
  const std::vector<std::size_t> sizes = map.shard_sizes();
  ASSERT_EQ(sizes.size(), SessionShardMap::kShards);
  const double mean =
      static_cast<double>(map.size()) / static_cast<double>(sizes.size());
  for (std::size_t s : sizes) {
    EXPECT_GT(s, 0u);
    EXPECT_LT(static_cast<double>(s), 2.0 * mean);
  }
}

}  // namespace
}  // namespace naplet::nsock
