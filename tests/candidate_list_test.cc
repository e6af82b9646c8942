// CandidateList on its own: the owner queue (one entry per queued owner,
// LIFO, re-queued after a pop), member relinking, and the two drop paths
// DySwap uses when a vertex id is deleted and may be recycled.

#include "src/core/candidate_list.h"

#include <vector>

#include "gtest/gtest.h"

namespace dynmis {
namespace {

std::vector<VertexId> Members(CandidateList* list, int32_t owner) {
  std::vector<VertexId> out;
  list->Consume(owner, [&](VertexId u) { out.push_back(u); });
  return out;
}

CandidateList Sized(size_t members, size_t owners) {
  CandidateList list;
  list.GrowMembers(members);
  list.GrowOwners(owners);
  return list;
}

TEST(CandidateListTest, OwnerQueuedOnceHoweverManyMembersArrive) {
  CandidateList list = Sized(8, 8);
  EXPECT_TRUE(list.Empty());
  for (VertexId u : {1, 2, 3, 4}) EXPECT_TRUE(list.Enqueue(5, u));
  EXPECT_EQ(list.PopOwner(), 5);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(Members(&list, 5), (std::vector<VertexId>{4, 3, 2, 1}));
  for (VertexId u : {1, 2, 3, 4}) EXPECT_EQ(list.OwnerOf(u), -1);
}

TEST(CandidateListTest, PopOwnerIsLifoAndClearsTheMark) {
  CandidateList list = Sized(8, 8);
  list.Enqueue(1, 4);
  list.Enqueue(2, 5);
  list.Enqueue(3, 6);
  list.Enqueue(1, 7);  // Already queued: no second entry.
  EXPECT_EQ(list.PopOwner(), 3);
  EXPECT_EQ(list.PopOwner(), 2);
  // The pop cleared 3's mark: a later Enqueue queues it again, on top.
  list.Enqueue(3, 5);
  EXPECT_EQ(list.PopOwner(), 3);
  EXPECT_EQ(list.PopOwner(), 1);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(Members(&list, 1), (std::vector<VertexId>{7, 4}));
  EXPECT_EQ(Members(&list, 3), (std::vector<VertexId>{5, 6}));
  EXPECT_TRUE(Members(&list, 2).empty());  // 5 moved from 2 to 3.
}

TEST(CandidateListTest, EnqueueUnderSameOwnerIsANoOpAndAnotherRelinks) {
  CandidateList list = Sized(8, 8);
  EXPECT_TRUE(list.Enqueue(1, 3));
  EXPECT_TRUE(list.Enqueue(1, 4));
  EXPECT_FALSE(list.Enqueue(1, 3));  // Order stays 4, 3.
  EXPECT_EQ(list.OwnerOf(3), 1);
  EXPECT_TRUE(list.Enqueue(2, 3));
  EXPECT_EQ(list.OwnerOf(3), 2);
  EXPECT_EQ(list.PopOwner(), 2);
  EXPECT_EQ(list.PopOwner(), 1);
  EXPECT_EQ(Members(&list, 1), (std::vector<VertexId>{4}));
  EXPECT_EQ(Members(&list, 2), (std::vector<VertexId>{3}));
}

TEST(CandidateListTest, DropOwnerEmptiesTheListButLeavesTheQueueEntry) {
  CandidateList list = Sized(8, 8);
  list.Enqueue(6, 1);
  list.Enqueue(6, 2);
  list.DropOwner(6);
  EXPECT_EQ(list.OwnerOf(1), -1);
  EXPECT_EQ(list.OwnerOf(2), -1);
  EXPECT_FALSE(list.Empty());
  EXPECT_EQ(list.PopOwner(), 6);
  EXPECT_TRUE(Members(&list, 6).empty());
  EXPECT_TRUE(list.Empty());

  // The drop cleared the mark, so a recycled owner is queued afresh on top
  // of its stale entry: the fresh entry pops first with the new members,
  // the stale one pops empty.
  list.Enqueue(6, 1);
  list.DropOwner(6);
  list.Enqueue(6, 3);
  EXPECT_EQ(list.PopOwner(), 6);
  EXPECT_EQ(Members(&list, 6), (std::vector<VertexId>{3}));
  EXPECT_EQ(list.PopOwner(), 6);
  EXPECT_TRUE(Members(&list, 6).empty());
  EXPECT_TRUE(list.Empty());
}

TEST(CandidateListTest, DropMemberUnlinksHeadMiddleAndTail) {
  CandidateList list = Sized(8, 8);
  for (VertexId u : {1, 2, 3, 4, 5}) list.Enqueue(0, u);  // List: 5..1.
  list.DropMember(5);  // Head.
  list.DropMember(3);  // Middle.
  list.DropMember(1);  // Tail.
  list.DropMember(7);  // Not a member: no-op.
  for (VertexId u : {1, 3, 5}) EXPECT_EQ(list.OwnerOf(u), -1);
  EXPECT_EQ(list.PopOwner(), 0);
  EXPECT_EQ(Members(&list, 0), (std::vector<VertexId>{4, 2}));
  // A dropped member re-enqueues under its old owner.
  EXPECT_TRUE(list.Enqueue(0, 3));
  EXPECT_EQ(list.PopOwner(), 0);
  EXPECT_EQ(Members(&list, 0), (std::vector<VertexId>{3}));
}

TEST(CandidateListTest, OwnerIndicesPastTheMemberCapacity) {
  // Owners index a pool that may outgrow the members (C2's pair buckets).
  CandidateList list = Sized(4, 2);
  list.GrowOwners(100);
  list.Enqueue(99, 0);
  list.Enqueue(64, 1);
  list.Enqueue(99, 2);
  list.Enqueue(64, 0);
  list.GrowOwners(50);  // Never shrinks.
  list.GrowMembers(2);
  EXPECT_EQ(list.PopOwner(), 64);
  EXPECT_EQ(list.PopOwner(), 99);
  EXPECT_EQ(Members(&list, 64), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(Members(&list, 99), (std::vector<VertexId>{2}));
  EXPECT_GE(list.MemoryUsageBytes(), 100 * (sizeof(VertexId) + 1));
}

}  // namespace
}  // namespace dynmis
