#include "congest/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "par/thread_pool.hpp"
#include "testing_graphs.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dasm {
namespace {

Graph triangle() { return testing::complete_graph(3); }

std::vector<NodeId> row(const Graph& g, NodeId v) {
  const auto nb = g.neighbors(v);
  return {nb.begin(), nb.end()};
}

std::vector<NodeId> senders(InboxView inbox) {
  std::vector<NodeId> out;
  for (const Envelope& e : inbox) out.push_back(e.from);
  return out;
}

TEST(MessageTest, EncodedBitsGrowWithPayload) {
  EXPECT_EQ((Message{MsgType::kPropose}).encoded_bits(), 8);
  EXPECT_GT((Message{MsgType::kPropose, 5}).encoded_bits(), 8);
  EXPECT_GT((Message{MsgType::kPropose, 1 << 20}).encoded_bits(),
            (Message{MsgType::kPropose, 5}).encoded_bits());
  // Negative payloads cost the same as their magnitude plus the sign bit.
  EXPECT_EQ((Message{MsgType::kPropose, -5}).encoded_bits(),
            (Message{MsgType::kPropose, 5}).encoded_bits());
}

TEST(MessageTest, DebugStrings) {
  EXPECT_STREQ(to_string(MsgType::kAccept), "ACCEPT");
  EXPECT_STREQ(to_string(MsgType::kMmPick), "MM_PICK");
  EXPECT_EQ(to_debug_string(Message{MsgType::kReject, 3, 4}), "REJECT(3,4)");
}

TEST(NetworkTest, DeliversAfterEndRound) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_TRUE(net.inbox(1).empty());  // not yet delivered
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].msg.type, MsgType::kPropose);
  EXPECT_TRUE(net.inbox(0).empty());
  EXPECT_TRUE(net.inbox(2).empty());
}

TEST(NetworkTest, InboxReplacedEachRound) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.end_round();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(NetworkTest, RejectsNonEdgeSend) {
  const Graph g(3, {{0, 1}});  // node 2 isolated
  Network net(g);
  net.begin_round();
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose}), CheckError);
}

TEST(NetworkTest, RejectsDoubleSendOnDirectedEdge) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kAccept}), CheckError);
  // The reverse direction and the next round are both fine.
  net.send(1, 0, Message{MsgType::kAccept});
  net.end_round();
  net.begin_round();
  EXPECT_NO_THROW(net.send(0, 1, Message{MsgType::kPropose}));
  net.end_round();
}

TEST(NetworkTest, RejectsSendOutsideRound) {
  const Graph g = triangle();
  Network net(g);
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kPropose}), CheckError);
}

TEST(NetworkTest, RejectsUnbalancedRoundCalls) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  EXPECT_THROW(net.begin_round(), CheckError);
  net.end_round();
  EXPECT_THROW(net.end_round(), CheckError);
}

TEST(NetworkTest, EnforcesBitBudget) {
  const Graph g = triangle();
  Network net(g, /*message_bit_budget=*/16);
  net.begin_round();
  EXPECT_NO_THROW(net.send(0, 1, Message{MsgType::kPropose, 3}));
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose, 1LL << 40}),
               CheckError);
}

TEST(NetworkTest, DefaultBudgetScalesLogarithmically) {
  const Graph g = triangle();
  Network small(g);
  std::vector<Edge> pairs;
  for (NodeId v = 0; v + 1 < (1 << 16); v += 2) pairs.push_back(Edge{v, v + 1});
  const Graph big(1 << 16, pairs);
  Network large(big);
  EXPECT_GT(large.message_bit_budget(), small.message_bit_budget());
  EXPECT_LE(large.message_bit_budget(), 8 * 17);
}

TEST(NetworkTest, StatsAccumulate) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(2, 1, Message{MsgType::kAccept, 9});
  net.end_round();
  const auto& s = net.stats();
  EXPECT_EQ(s.executed_rounds, 1);
  EXPECT_EQ(s.scheduled_rounds, 1);
  EXPECT_EQ(s.messages, 2);
  EXPECT_GT(s.bits, 16);
  EXPECT_GE(s.max_message_bits, 8);
}

TEST(NetworkTest, PerTypeTrafficBreakdown) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.send(0, 2, Message{MsgType::kPropose});
  net.send(1, 0, Message{MsgType::kReject});
  net.end_round();
  EXPECT_EQ(net.stats().count_of(MsgType::kPropose), 2);
  EXPECT_EQ(net.stats().count_of(MsgType::kReject), 1);
  EXPECT_EQ(net.stats().count_of(MsgType::kAccept), 0);
}

TEST(NetworkTest, InboxPreservesSendOrder) {
  // Protocol determinism relies on envelopes arriving in the order the
  // senders were stepped within the round.
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.send(0, 2, Message{MsgType::kPropose, 1});
  net.send(1, 2, Message{MsgType::kPropose, 2});
  net.end_round();
  ASSERT_EQ(net.inbox(2).size(), 2u);
  EXPECT_EQ(net.inbox(2)[0].from, 0);
  EXPECT_EQ(net.inbox(2)[1].from, 1);
}

TEST(NetworkTest, InterleavedSendersKeepSendCallOrderPerInbox) {
  // Sends to one receiver interleave with sends to others, and its
  // senders call in non-id order: the counting sort by receiver must keep
  // each inbox in send-call order.
  const Graph g = testing::complete_graph(5);
  Network net(g);
  const std::vector<std::pair<NodeId, NodeId>> script{
      {3, 2}, {0, 4}, {4, 2}, {1, 0}, {0, 2}, {2, 4}, {1, 2}, {3, 4}};
  net.begin_round();
  for (std::size_t i = 0; i < script.size(); ++i) {
    net.send(script[i].first, script[i].second,
             Message{MsgType::kPropose, static_cast<std::int64_t>(i)});
  }
  net.end_round();
  EXPECT_EQ(senders(net.inbox(2)), (std::vector<NodeId>{3, 4, 0, 1}));
  EXPECT_EQ(senders(net.inbox(4)), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(senders(net.inbox(0)), (std::vector<NodeId>{1}));
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_TRUE(net.inbox(3).empty());
  std::vector<std::int64_t> payloads;
  for (const Envelope& e : net.inbox(2)) payloads.push_back(e.msg.a);
  EXPECT_EQ(payloads, (std::vector<std::int64_t>{0, 2, 4, 6}));
}

TEST(NetworkTest, PooledInterleavedSendsMatchSerialInboxes) {
  // Every node sends to a round-dependent subset of the others, in a
  // scrambled receiver order, so each inbox collects sends from every
  // worker's lane. Inboxes must equal a serial execution's, slot for slot.
  const NodeId n = 16;
  const int threads = 4;
  const Graph g = testing::complete_graph(n);
  Network serial(g);
  Network laned(g);
  laned.set_send_lanes(threads);
  par::ThreadPool pool(threads);
  auto script = [&](Network& net, NodeId v, int round) {
    for (NodeId k = 0; k < n; ++k) {
      // 5 is coprime to 16, so the receivers of one sender are distinct.
      const NodeId to = (v * 7 + k * 5 + round) % n;
      if (to == v || (k + round + v) % 3 == 0) continue;
      net.send(v, to, Message{MsgType::kPropose, v * 100 + k, round});
    }
  };
  for (int round = 0; round < 3; ++round) {
    serial.begin_round();
    for (NodeId v = 0; v < n; ++v) script(serial, v, round);
    serial.end_round();
    laned.begin_round();
    pool.parallel_for(0, n, [&](std::int64_t v) {
      script(laned, static_cast<NodeId>(v), round);
    });
    laned.end_round();
    for (NodeId v = 0; v < n; ++v) {
      const InboxView want = serial.inbox(v);
      const InboxView got = laned.inbox(v);
      ASSERT_EQ(got.size(), want.size()) << "round " << round << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "round " << round << " node " << v;
      }
    }
  }
  EXPECT_EQ(laned.stats(), serial.stats());
}

TEST(NetworkTest, DuplicateSendThrowsAtTheCallAfterManyRounds) {
  // The send guard is one byte per directed edge. A byte that wrapped
  // without being cleared would alias a send one period back, so every
  // directed edge is used in round 0 and three of them again in rounds
  // 255, 256 and 257 (periods of 255, 256 and 257 rounds); the duplicate
  // is tried in round 300. Direct sends and lanes alike.
  const std::vector<std::pair<NodeId, NodeId>> edges{
      {0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}};
  for (const int lanes : {1, 2}) {
    const Graph g = triangle();
    Network net(g);
    net.set_send_lanes(lanes);
    par::ThreadPool pool(2);
    auto on_worker = [&](auto&& f) {
      if (lanes == 1) {
        f();
      } else {
        pool.parallel_for(0, 1, [&](std::int64_t) { f(); });
      }
    };
    std::int64_t sent = 0;
    for (int round = 0; round < 300; ++round) {
      net.begin_round();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (round == 0 || (i < 3 && round == 255 + static_cast<int>(i))) {
          EXPECT_NO_THROW(on_worker([&] {
            net.send(edges[i].first, edges[i].second,
                     Message{MsgType::kPropose, round});
          })) << "lanes " << lanes << " round " << round << " edge " << i;
          ++sent;
        }
      }
      net.end_round();
    }
    net.begin_round();
    on_worker([&] { net.send(2, 1, Message{MsgType::kPropose, 300}); });
    EXPECT_THROW(
        on_worker([&] { net.send(2, 1, Message{MsgType::kReject}); }),
        CheckError)
        << "lanes " << lanes;
    net.end_round();
    ASSERT_EQ(net.inbox(1).size(), 1u);
    EXPECT_EQ(net.inbox(1)[0], (Envelope{2, Message{MsgType::kPropose, 300}}));
    // The rejected send was never committed.
    EXPECT_EQ(net.stats().messages, sent + 1);
  }
}

TEST(NetworkTest, SaturatedSilentAndSingleRoundsReuseBuffers) {
  // A saturating round on K_32,32 (every directed edge carries a message),
  // a silent round, and a one-message round, three times over: each must
  // deliver exactly its own traffic, and after the first saturating round
  // the delivery buffers never grow again.
  const NodeId half = 32;
  const Graph g = testing::complete_bipartite_graph(half);
  Network net(g);
  auto saturate = [&](int round) {
    net.begin_round();
    for (NodeId u = 0; u < 2 * half; ++u) {
      for (const NodeId v : g.neighbors(u)) {
        net.send(u, v, Message{MsgType::kPropose, u, round});
      }
    }
    net.end_round();
    EXPECT_FALSE(net.last_round_was_silent());
    for (NodeId v = 0; v < 2 * half; ++v) {
      const InboxView box = net.inbox(v);
      ASSERT_EQ(senders(box), row(g, v)) << "node " << v;
      for (const Envelope& e : box) {
        EXPECT_EQ(e.msg, (Message{MsgType::kPropose, e.from, round}));
      }
    }
  };
  saturate(0);
  const std::size_t warm = net.delivery_buffer_bytes();
  EXPECT_GT(warm, 0u);
  for (int cycle = 1; cycle <= 3; ++cycle) {
    saturate(cycle);
    net.begin_round();
    net.end_round();
    EXPECT_TRUE(net.last_round_was_silent());
    for (NodeId v = 0; v < 2 * half; ++v) EXPECT_TRUE(net.inbox(v).empty());
    net.begin_round();
    net.send(5, half + 7, Message{MsgType::kAccept, cycle});
    net.end_round();
    EXPECT_FALSE(net.last_round_was_silent());
    for (NodeId v = 0; v < 2 * half; ++v) {
      if (v == half + 7) {
        ASSERT_EQ(net.inbox(v).size(), 1u);
        EXPECT_EQ(net.inbox(v)[0], (Envelope{5, Message{MsgType::kAccept,
                                                        cycle}}));
      } else {
        EXPECT_TRUE(net.inbox(v).empty()) << "node " << v;
      }
    }
  }
  EXPECT_EQ(net.delivery_buffer_bytes(), warm);
}

TEST(NetworkTest, GraphConstructorBorrowsTheGraphRows) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  Network net(g);
  EXPECT_EQ(net.node_count(), 4);
  // One CSR: every row is a slice of one array, and the network's send
  // guard indexes directed edges by those same positions.
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(g.neighbors(v).data(), g.neighbors(0).data() + g.row_offset(v));
  }
  net.begin_round();
  net.send(3, 0, Message{MsgType::kPropose});
  EXPECT_THROW(net.send(0, 2, Message{MsgType::kPropose}), CheckError);
  net.end_round();
  EXPECT_EQ(senders(net.inbox(0)), (std::vector<NodeId>{3}));
}

TEST(NetworkTest, HighVolumeStress) {
  // A complete bipartite 40+40 network for 50 all-pairs rounds: 160k
  // messages with the per-edge discipline enforced throughout.
  const NodeId half = 40;
  const Graph g = testing::complete_bipartite_graph(half);
  Network net(g);
  for (int r = 0; r < 50; ++r) {
    net.begin_round();
    for (NodeId u = 0; u < half; ++u) {
      for (NodeId v = 0; v < half; ++v) {
        net.send(u, half + v, Message{MsgType::kPropose, r});
      }
    }
    net.end_round();
    for (NodeId v = 0; v < half; ++v) {
      ASSERT_EQ(net.inbox(half + v).size(), static_cast<std::size_t>(half));
    }
  }
  EXPECT_EQ(net.stats().messages, 50LL * half * half);
  EXPECT_EQ(net.stats().executed_rounds, 50);
}

TEST(NetworkTest, TraceRecordsTransmissions) {
  const Graph g = triangle();
  Network net(g);
  net.enable_trace(8);
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.send(1, 0, Message{MsgType::kAccept});
  net.end_round();
  ASSERT_EQ(net.trace().size(), 2u);
  EXPECT_EQ(net.trace()[0], (TraceEvent{0, 0, 1, Message{MsgType::kPropose}}));
  EXPECT_EQ(net.trace()[1], (TraceEvent{1, 1, 0, Message{MsgType::kAccept}}));
  EXPECT_EQ(net.dropped_trace_events(), 0);
}

TEST(NetworkTest, TraceCapDropsOldest) {
  const Graph g = triangle();
  Network net(g);
  net.enable_trace(2);
  for (int i = 0; i < 3; ++i) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, i});
    net.end_round();
  }
  ASSERT_EQ(net.trace().size(), 2u);
  EXPECT_EQ(net.dropped_trace_events(), 1);
  EXPECT_EQ(net.trace()[0].msg.a, 1);  // event 0 was dropped
  net.enable_trace(0);
  EXPECT_TRUE(net.trace().empty());
}

TEST(NetworkTest, TraceFiveTimesOverCapKeepsNewest) {
  // Regression for the O(cap) erase-from-front eviction: a 5x over-cap
  // trace must retain exactly the newest `cap` events (ring-buffer
  // semantics) and account for every dropped one.
  const std::size_t cap = 4;
  const int total = static_cast<int>(cap) * 5;
  const Graph g = triangle();
  Network net(g);
  net.enable_trace(cap);
  for (int i = 0; i < total; ++i) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, i});
    net.end_round();
  }
  const auto events = net.trace();
  ASSERT_EQ(events.size(), cap);
  EXPECT_EQ(net.dropped_trace_events(),
            static_cast<std::int64_t>(total - static_cast<int>(cap)));
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_EQ(events[i].msg.a,
              static_cast<std::int64_t>(total - static_cast<int>(cap) + i));
    EXPECT_EQ(events[i].round,
              static_cast<Round>(total - static_cast<int>(cap) + i));
  }
}

TEST(NetworkTest, StatsAndInboxesMatchReferenceModelOnRandomSchedule) {
  // Drives the network with a randomized message schedule and checks
  // it against a straightforward vector-of-vectors reference model:
  // inbox contents (values and order), last_round_was_silent(), and every
  // NetStats field must agree at each round.
  Xoshiro256 rng(20260806);
  const std::size_t n = 24;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    for (NodeId v = u + 1; v < static_cast<NodeId>(n); ++v) {
      if (rng.bernoulli(0.35)) edges.push_back(Edge{u, v});
    }
  }
  const Graph g(static_cast<NodeId>(n), edges);
  Network net(g);

  NetStats expected;
  for (int round = 0; round < 40; ++round) {
    std::vector<std::vector<Envelope>> ref_inbox(n);
    bool any = false;
    net.begin_round();
    for (std::size_t u = 0; u < n; ++u) {
      for (NodeId v : g.neighbors(static_cast<NodeId>(u))) {
        if (!rng.bernoulli(0.4)) continue;
        const auto type = static_cast<MsgType>(rng.below(4));
        const Message msg{type, rng.range(-64, 1 << 16),
                          rng.range(0, 1 << 10)};
        net.send(static_cast<NodeId>(u), v, msg);
        ref_inbox[static_cast<std::size_t>(v)].push_back(
            Envelope{static_cast<NodeId>(u), msg});
        any = true;
        ++expected.messages;
        ++expected.messages_by_type[static_cast<std::size_t>(type)];
        expected.bits += msg.encoded_bits();
        expected.max_message_bits =
            std::max(expected.max_message_bits, msg.encoded_bits());
      }
    }
    net.end_round();
    ++expected.executed_rounds;
    ++expected.scheduled_rounds;

    EXPECT_EQ(net.last_round_was_silent(), !any) << "round " << round;
    for (std::size_t v = 0; v < n; ++v) {
      const InboxView got = net.inbox(static_cast<NodeId>(v));
      ASSERT_EQ(got.size(), ref_inbox[v].size())
          << "round " << round << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], ref_inbox[v][i])
            << "round " << round << " node " << v << " slot " << i;
      }
    }
    const NetStats& s = net.stats();
    EXPECT_EQ(s.executed_rounds, expected.executed_rounds);
    EXPECT_EQ(s.scheduled_rounds, expected.scheduled_rounds);
    EXPECT_EQ(s.messages, expected.messages);
    EXPECT_EQ(s.bits, expected.bits);
    EXPECT_EQ(s.max_message_bits, expected.max_message_bits);
    EXPECT_EQ(s.messages_by_type, expected.messages_by_type);
  }
  EXPECT_GT(net.stats().messages, 0);
}

TEST(NetworkTest, ChargeScheduledRounds) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.end_round();
  net.charge_scheduled_rounds(10);
  EXPECT_EQ(net.stats().executed_rounds, 1);
  EXPECT_EQ(net.stats().scheduled_rounds, 11);
  EXPECT_THROW(net.charge_scheduled_rounds(-1), CheckError);
}

TEST(NetworkTest, SilentRoundFlag) {
  const Graph g = triangle();
  Network net(g);
  net.begin_round();
  net.end_round();
  EXPECT_TRUE(net.last_round_was_silent());
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_FALSE(net.last_round_was_silent());
}

TEST(NetworkTest, FaultFreeAccountingDeliveredEqualsSent) {
  // On the fault-free path every committed send is delivered the same
  // round; the fault-layer counters must reflect that exactly.
  const Graph g = triangle();
  Network net(g);
  for (int round = 0; round < 3; ++round) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose});
    net.send(1, 2, Message{MsgType::kAccept});
    net.end_round();
  }
  EXPECT_EQ(net.stats().messages, 6);
  EXPECT_EQ(net.stats().delivered, 6);
  EXPECT_EQ(net.stats().dropped, 0);
  EXPECT_EQ(net.stats().duplicated, 0);
  EXPECT_EQ(net.stats().retransmitted, 0);
  EXPECT_EQ(net.stats().filtered, 0);
  EXPECT_EQ(net.pending_wire_copies(), 0);
}

TEST(NetworkTest, LossOnlyFaultsConserveSentEqualsDeliveredPlusDropped) {
  // With loss as the only fault (no duplication, no delay, no
  // retransmission) and no copies in flight, the conservation law
  // collapses to: sent == delivered + dropped.
  const Graph g = triangle();
  Network net(g);
  FaultPlan plan;
  plan.seed = 12;
  plan.drop = 0.4;
  net.set_fault_plan(plan);
  net.enable_trace(1 << 10);
  for (int round = 0; round < 100; ++round) {
    net.begin_round();
    net.send(0, 1, Message{MsgType::kPropose, round});
    net.send(1, 0, Message{MsgType::kAccept});
    net.send(2, 0, Message{MsgType::kReject});
    net.end_round();
    // Drops must surface as silence, never as stale inbox contents: an
    // all-dropped round reads exactly like a round with no traffic.
    const bool any_delivered =
        !net.inbox(0).empty() || !net.inbox(1).empty() || !net.inbox(2).empty();
    EXPECT_EQ(net.last_round_was_silent(), !any_delivered);
    EXPECT_EQ(net.pending_wire_copies(), 0);  // loss-only: nothing in flight
    EXPECT_EQ(net.stats().messages, net.stats().delivered + net.stats().dropped)
        << "round " << round;
  }
  EXPECT_EQ(net.stats().messages, 300);
  EXPECT_GT(net.stats().dropped, 0);
  EXPECT_GT(net.stats().delivered, 0);
  // The transmission trace saw every offered message; dropped_trace_events()
  // stays a ring-eviction counter and is untouched by wire losses.
  EXPECT_EQ(net.trace().size(), 300u);
  EXPECT_EQ(net.dropped_trace_events(), 0);
}

TEST(NetStatsTest, PlusEqualsMergesCounters) {
  NetStats a;
  a.executed_rounds = 3;
  a.scheduled_rounds = 5;
  a.messages = 10;
  a.bits = 200;
  a.max_message_bits = 16;
  a.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 7;
  a.messages_by_type[static_cast<std::size_t>(MsgType::kReject)] = 3;
  a.delivered = 8;
  a.dropped = 2;
  a.duplicated = 1;

  NetStats b;
  b.executed_rounds = 2;
  b.scheduled_rounds = 4;
  b.messages = 6;
  b.bits = 90;
  b.max_message_bits = 24;
  b.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 1;
  b.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] = 5;
  b.delivered = 5;
  b.dropped = 1;
  b.retransmitted = 4;
  b.filtered = 2;

  NetStats& ref = (a += b);
  EXPECT_EQ(&ref, &a);  // returns *this for chaining
  EXPECT_EQ(a.executed_rounds, 5);
  EXPECT_EQ(a.scheduled_rounds, 9);
  EXPECT_EQ(a.messages, 16);
  EXPECT_EQ(a.bits, 290);
  EXPECT_EQ(a.max_message_bits, 24);  // max, not sum
  EXPECT_EQ(a.count_of(MsgType::kPropose), 8);
  EXPECT_EQ(a.count_of(MsgType::kReject), 3);
  EXPECT_EQ(a.count_of(MsgType::kAccept), 5);
  EXPECT_EQ(a.delivered, 13);  // fault-layer counters merge additively too
  EXPECT_EQ(a.dropped, 3);
  EXPECT_EQ(a.duplicated, 1);
  EXPECT_EQ(a.retransmitted, 4);
  EXPECT_EQ(a.filtered, 2);
}

TEST(NetStatsTest, PlusEqualsIdentityAndEquality) {
  NetStats a;
  a.messages = 4;
  a.bits = 33;
  a.max_message_bits = 12;
  const NetStats before = a;
  a += NetStats{};  // default stats are the additive identity
  EXPECT_EQ(a, before);
  NetStats c = before;
  EXPECT_EQ(c, before);
  c.messages_by_type[2] += 1;  // per-type array participates in ==
  EXPECT_FALSE(c == before);
}

TEST(NetStatsTest, ResetThenPlusEqualsMatchesFreshStruct) {
  NetStats delta;
  delta.executed_rounds = 2;
  delta.scheduled_rounds = 3;
  delta.messages = 11;
  delta.bits = 170;
  delta.max_message_bits = 20;
  delta.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] = 11;

  // A window accumulator reused across iterations (mm::Runner's
  // per_iteration_net series): after reset(), merging a delta must leave
  // exactly the state a freshly-constructed struct would reach.
  NetStats window;
  window.executed_rounds = 99;
  window.scheduled_rounds = 120;
  window.messages = 5000;
  window.bits = 123456;
  window.max_message_bits = 64;
  window.messages_by_type[static_cast<std::size_t>(MsgType::kReject)] = 5000;

  window.reset();
  EXPECT_EQ(window, NetStats{});
  window += delta;

  NetStats fresh;
  fresh += delta;
  EXPECT_EQ(window, fresh);
  // reset() cleared max_message_bits too: the merged max is delta's, not
  // the stale 64 from before the reset.
  EXPECT_EQ(window.max_message_bits, 20);
}

TEST(NetStatsTest, DeltaSinceSubtractsCounters) {
  NetStats base;
  base.executed_rounds = 4;
  base.scheduled_rounds = 6;
  base.messages = 30;
  base.bits = 500;
  base.max_message_bits = 16;
  base.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] = 30;

  NetStats later = base;
  later.executed_rounds += 3;
  later.scheduled_rounds += 3;
  later.messages += 12;
  later.bits += 200;
  later.messages_by_type[static_cast<std::size_t>(MsgType::kPropose)] += 5;
  later.messages_by_type[static_cast<std::size_t>(MsgType::kAccept)] += 7;

  later.delivered += 9;
  later.dropped += 3;

  const NetStats d = later.delta_since(base);
  EXPECT_EQ(d.executed_rounds, 3);
  EXPECT_EQ(d.scheduled_rounds, 3);
  EXPECT_EQ(d.messages, 12);
  EXPECT_EQ(d.delivered, 9);
  EXPECT_EQ(d.dropped, 3);
  EXPECT_EQ(d.bits, 200);
  EXPECT_EQ(d.max_message_bits, 16);  // carries, no windowed inverse
  EXPECT_EQ(d.count_of(MsgType::kPropose), 5);
  EXPECT_EQ(d.count_of(MsgType::kAccept), 7);

  // A zero-width window has empty counters; only max_message_bits remains.
  NetStats self = later.delta_since(later);
  EXPECT_EQ(self.max_message_bits, 16);
  self.max_message_bits = 0;
  EXPECT_EQ(self, NetStats{});
}

TEST(NetworkTest, RoundHookFiresAfterEachEndRound) {
  const Graph g = triangle();
  Network net(g);
  std::vector<std::int64_t> rounds_seen;
  std::vector<std::int64_t> messages_seen;
  net.set_round_hook([&](const NetStats& s) {
    rounds_seen.push_back(s.executed_rounds);
    messages_seen.push_back(s.messages);
  });
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  net.begin_round();
  net.end_round();
  EXPECT_EQ(rounds_seen, (std::vector<std::int64_t>{1, 2}));
  // The hook sees final stats: lane flush and counting precede it.
  EXPECT_EQ(messages_seen, (std::vector<std::int64_t>{1, 1}));
  net.set_round_hook({});
  net.begin_round();
  net.end_round();
  EXPECT_EQ(rounds_seen.size(), 2u);  // cleared hooks no longer fire
}

#ifndef NDEBUG
TEST(NetStatsTest, CountOfOutOfRangeTypeFailsLoudlyInDebug) {
  // DASM_DCHECK compiles out under NDEBUG, so the bounds assertion is only
  // observable in debug builds.
  const NetStats s;
  EXPECT_THROW((void)s.count_of(static_cast<MsgType>(99)), CheckError);
}
#endif

TEST(NetworkTest, LaneStagedSendsMatchSequentialDelivery) {
  // Drives the same two-round script through a serial network and through
  // a laned network whose sends are issued from pool workers; inboxes,
  // stats, trace, and the silent flag must be bit-identical.
  const int threads = 4;
  const Graph g = triangle();
  Network serial(g);
  Network laned(g);
  serial.enable_trace(16);
  laned.enable_trace(16);
  laned.set_send_lanes(threads);
  EXPECT_EQ(laned.send_lanes(), threads);
  par::ThreadPool pool(threads);

  auto script = [&g](Network& net, NodeId v, Round round) {
    if (round == 0) {
      // Every node messages both neighbours in the triangle.
      for (const NodeId to : g.neighbors(v)) {
        net.send(v, to, Message{MsgType::kPropose, v, to});
      }
    } else if (v == 1) {
      net.send(1, 0, Message{MsgType::kAccept});
    }
  };

  for (Round round = 0; round < 2; ++round) {
    serial.begin_round();
    for (NodeId v = 0; v < 3; ++v) script(serial, v, round);
    serial.end_round();

    laned.begin_round();
    pool.parallel_for(0, 3, [&](std::int64_t v) {
      script(laned, static_cast<NodeId>(v), round);
    });
    laned.end_round();

    for (NodeId v = 0; v < 3; ++v) {
      const InboxView want = serial.inbox(v);
      const InboxView got = laned.inbox(v);
      ASSERT_EQ(got.size(), want.size()) << "round " << round << " node " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "round " << round << " node " << v;
      }
    }
    EXPECT_EQ(laned.last_round_was_silent(), serial.last_round_was_silent());
  }
  EXPECT_EQ(laned.stats(), serial.stats());
  EXPECT_EQ(laned.trace(), serial.trace());
}

TEST(NetworkTest, FlushLanesPreservesSubPhaseOrder) {
  // Two sub-loops inside one round (all of side A, then all of side B):
  // flushing between them must keep every A-send ahead of every B-send in
  // the inbox, exactly as the serial engine interleaves them.
  const Graph g = triangle();
  Network net(g);
  net.set_send_lanes(2);
  par::ThreadPool pool(2);
  net.begin_round();
  pool.parallel_for(0, 2, [&](std::int64_t v) {
    net.send(static_cast<NodeId>(v), 2, Message{MsgType::kPropose, v});
  });
  net.flush_lanes();
  pool.parallel_for(0, 1, [&](std::int64_t) {
    net.send(2, 0, Message{MsgType::kAccept});
    net.send(2, 1, Message{MsgType::kAccept});
  });
  net.end_round();
  ASSERT_EQ(net.inbox(2).size(), 2u);
  EXPECT_EQ(net.inbox(2)[0].from, 0);  // node-id-major within the sub-phase
  EXPECT_EQ(net.inbox(2)[1].from, 1);
  ASSERT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(0)[0].msg.type, MsgType::kAccept);
}

TEST(NetworkTest, LanedSendsStillEnforceModelChecks) {
  // The CONGEST model checks fire at send() time even when the commit is
  // deferred to a lane: double-send on a directed edge and non-edge sends
  // must throw from inside the pool job (and propagate out of it).
  const Graph g(3, {{0, 1}});  // node 2 isolated
  Network net(g);
  net.set_send_lanes(2);
  par::ThreadPool pool(2);
  net.begin_round();
  EXPECT_THROW(pool.parallel_for(0, 2, [&](std::int64_t) {
    net.send(0, 2, Message{MsgType::kPropose});
  }),
               CheckError);
  net.send(0, 1, Message{MsgType::kPropose});
  EXPECT_THROW(net.send(0, 1, Message{MsgType::kAccept}), CheckError);
  net.end_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.stats().messages, 1);
}

TEST(NetworkTest, SetSendLanesOnlyBetweenRounds) {
  const Graph g = triangle();
  Network net(g);
  EXPECT_THROW(net.set_send_lanes(0), CheckError);
  net.begin_round();
  EXPECT_THROW(net.set_send_lanes(2), CheckError);
  net.end_round();
  net.set_send_lanes(2);
  net.set_send_lanes(1);  // back to direct sends
  net.begin_round();
  net.send(0, 1, Message{MsgType::kPropose});
  net.end_round();
  EXPECT_EQ(net.inbox(1).size(), 1u);
}

}  // namespace
}  // namespace dasm
