#include "mm/color_matching.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dasm::mm {

namespace {

// Lowest bit position at which two distinct values differ.
int lowest_differing_bit(std::int64_t a, std::int64_t b) {
  DASM_DCHECK(a != b);
  return std::countr_zero(static_cast<std::uint64_t>(a ^ b));
}

// One Cole–Vishkin step: recolor `own` against the parent's color.
std::int64_t cv_step(std::int64_t own, std::int64_t parent_color) {
  const int i = lowest_differing_bit(own, parent_color);
  const std::int64_t bit = (own >> i) & 1;
  return 2 * static_cast<std::int64_t>(i) + bit;
}

int bits_of(std::int64_t v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return std::max(bits, 1);
}

}  // namespace

int cole_vishkin_iterations(NodeId n) {
  DASM_CHECK(n >= 1);
  // Colors start in [0, n); each step maps colors < cap into
  // [0, 2 * bits(cap - 1)). Iterate the cap until it reaches 6.
  std::int64_t cap = std::max<std::int64_t>(n, 2);
  int iters = 0;
  while (cap > 6) {
    cap = 2 * bits_of(cap - 1);
    ++iters;
  }
  return iters;
}

RunResult run_color_matching(const Graph& g, bool trim_empty_classes) {
  const NodeId n = g.node_count();
  Network net(g);
  RunResult result;
  result.matching = Matching(n);

  if (n == 0) {
    result.maximal = true;
    return result;
  }

  // Local per-vertex state. neighbor indexing follows g.neighbors(v),
  // whose position IS the vertex's port number for that edge.
  std::vector<bool> alive(static_cast<std::size_t>(n));
  std::vector<NodeId> partner(static_cast<std::size_t>(n), kNoNode);
  std::vector<std::vector<NodeId>> peer_port(static_cast<std::size_t>(n));
  std::vector<std::vector<bool>> nbr_alive(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const auto deg = g.neighbors(v).size();
    alive[static_cast<std::size_t>(v)] = deg > 0;
    peer_port[static_cast<std::size_t>(v)].assign(deg, kNoNode);
    nbr_alive[static_cast<std::size_t>(v)].assign(deg, true);
  }

  auto nbr_index = [&](NodeId v, NodeId u) {
    const auto& nb = g.neighbors(v);
    return static_cast<std::size_t>(
        std::lower_bound(nb.begin(), nb.end(), u) - nb.begin());
  };
  auto process_withdrawals = [&](NodeId v) {
    for (const Envelope& e : net.inbox(v)) {
      if (e.msg.type == MsgType::kMmMatched) {
        nbr_alive[static_cast<std::size_t>(v)][nbr_index(v, e.from)] = false;
      }
    }
  };
  auto withdraw = [&](NodeId v) {
    const auto& nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (nbr_alive[static_cast<std::size_t>(v)][i] && nb[i] != partner[static_cast<std::size_t>(v)]) {
        net.send(v, nb[i], Message{MsgType::kMmMatched});
      }
    }
  };

  // Round 0: port exchange — v tells u "you sit on my port i".
  net.begin_round();
  for (NodeId v = 0; v < n; ++v) {
    const auto& nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      net.send(v, nb[i], Message{MsgType::kPort, static_cast<std::int64_t>(i)});
    }
  }
  net.end_round();
  for (NodeId v = 0; v < n; ++v) {
    for (const Envelope& e : net.inbox(v)) {
      if (e.msg.type == MsgType::kPort) {
        peer_port[static_cast<std::size_t>(v)][nbr_index(v, e.from)] =
            static_cast<NodeId>(e.msg.a);
      }
    }
  }

  const NodeId delta = g.max_degree();
  const int cv_iters = cole_vishkin_iterations(n);
  // Rounds a class pass costs in the fixed schedule: parent exchange +
  // Cole–Vishkin + 3 sweeps x 6 colors x 3 rounds.
  const std::int64_t rounds_per_class = 1 + cv_iters + 3 * 6 * 3;

  // Scratch per class pass.
  std::vector<std::vector<NodeId>> class_nbrs(static_cast<std::size_t>(n));
  std::vector<NodeId> parent(static_cast<std::size_t>(n));
  std::vector<NodeId> parent_of_nbr0(static_cast<std::size_t>(n));
  std::vector<std::int64_t> color(static_cast<std::size_t>(n));

  for (NodeId a = 0; a < delta; ++a) {
    for (NodeId b = 0; b < delta; ++b) {
      // Drain withdrawals still sitting in the inboxes from the previous
      // class pass so membership below sees up-to-date liveness (the
      // in-round processing is idempotent, so re-reading them is safe).
      for (NodeId v = 0; v < n; ++v) process_withdrawals(v);

      // Class membership: edge {v, w} with v < w is in class (a, b) iff
      // port_v(w) == a and port_w(v) == b. Each vertex has at most one
      // class edge as the lower and one as the higher endpoint.
      bool any_member = false;
      for (NodeId v = 0; v < n; ++v) {
        auto& mine = class_nbrs[static_cast<std::size_t>(v)];
        mine.clear();
        if (!alive[static_cast<std::size_t>(v)]) continue;
        const auto& nb = g.neighbors(v);
        const auto sv = static_cast<std::size_t>(v);
        if (static_cast<std::size_t>(a) < nb.size()) {
          const NodeId w = nb[static_cast<std::size_t>(a)];
          if (w > v && peer_port[sv][static_cast<std::size_t>(a)] == b &&
              nbr_alive[sv][static_cast<std::size_t>(a)]) {
            mine.push_back(w);
          }
        }
        if (static_cast<std::size_t>(b) < nb.size()) {
          const NodeId w = nb[static_cast<std::size_t>(b)];
          if (w < v && peer_port[sv][static_cast<std::size_t>(b)] == a &&
              nbr_alive[sv][static_cast<std::size_t>(b)]) {
            mine.push_back(w);
          }
        }
        any_member = any_member || !mine.empty();
      }
      if (!any_member && trim_empty_classes) {
        net.charge_scheduled_rounds(rounds_per_class);
        continue;
      }

      auto in_class = [&](NodeId v) {
        return !class_nbrs[static_cast<std::size_t>(v)].empty();
      };

      // Parent exchange: parent = highest-id class-neighbour; everyone
      // announces their choice so mutual pairs can root themselves.
      net.begin_round();
      for (NodeId v = 0; v < n; ++v) {
        process_withdrawals(v);
        if (!in_class(v)) continue;
        const auto& mine = class_nbrs[static_cast<std::size_t>(v)];
        parent[static_cast<std::size_t>(v)] =
            *std::max_element(mine.begin(), mine.end());
        for (NodeId w : mine) {
          net.send(v, w,
                   Message{MsgType::kParent,
                           parent[static_cast<std::size_t>(v)]});
        }
      }
      net.end_round();
      for (NodeId v = 0; v < n; ++v) {
        if (!in_class(v)) continue;
        bool is_root = false;
        for (const Envelope& e : net.inbox(v)) {
          if (e.msg.type == MsgType::kParent &&
              e.from == parent[static_cast<std::size_t>(v)] &&
              static_cast<NodeId>(e.msg.a) == v && v > e.from) {
            is_root = true;  // mutual pair, higher id roots itself
          }
        }
        if (is_root) parent[static_cast<std::size_t>(v)] = v;
        color[static_cast<std::size_t>(v)] = v;
      }

      // Cole–Vishkin until every class member's color is < 6.
      int cv_done = 0;
      for (; cv_done < cv_iters; ++cv_done) {
        bool all_small = true;
        for (NodeId v = 0; v < n; ++v) {
          if (in_class(v) && color[static_cast<std::size_t>(v)] >= 6) {
            all_small = false;
            break;
          }
        }
        if (all_small && trim_empty_classes) break;
        net.begin_round();
        for (NodeId v = 0; v < n; ++v) {
          process_withdrawals(v);
          if (!in_class(v)) continue;
          for (NodeId w : class_nbrs[static_cast<std::size_t>(v)]) {
            net.send(v, w, Message{MsgType::kColor,
                                   color[static_cast<std::size_t>(v)]});
          }
        }
        net.end_round();
        for (NodeId v = 0; v < n; ++v) {
          if (!in_class(v)) continue;
          const auto sv = static_cast<std::size_t>(v);
          std::int64_t parent_color;
          if (parent[sv] == v) {
            parent_color = color[sv] ^ 1;  // rooted: virtual parent
          } else {
            parent_color = -1;
            for (const Envelope& e : net.inbox(v)) {
              if (e.msg.type == MsgType::kColor && e.from == parent[sv]) {
                parent_color = e.msg.a;
              }
            }
            DASM_CHECK_MSG(parent_color >= 0,
                           "vertex " << v << " missed its parent's color");
          }
          color[sv] = cv_step(color[sv], parent_color);
        }
      }
      net.charge_scheduled_rounds(cv_iters - cv_done);

      // Three sweeps over the color phases match the class maximally.
      for (int sweep = 0; sweep < 3; ++sweep) {
        for (std::int64_t c = 0; c < 6; ++c) {
          // Round P: color-c vertices propose to their smallest-id live
          // class-neighbour.
          net.begin_round();
          for (NodeId v = 0; v < n; ++v) {
            process_withdrawals(v);
            const auto sv = static_cast<std::size_t>(v);
            if (!alive[sv] || !in_class(v) || color[sv] != c) continue;
            NodeId target = kNoNode;
            for (NodeId w : class_nbrs[sv]) {
              if (nbr_alive[sv][nbr_index(v, w)] &&
                  (target == kNoNode || w < target)) {
                target = w;
              }
            }
            if (target != kNoNode) {
              net.send(v, target, Message{MsgType::kMmPropose});
            }
          }
          net.end_round();
          // Round A: receivers accept their smallest-id proposer and
          // withdraw from the rest of the graph.
          net.begin_round();
          for (NodeId v = 0; v < n; ++v) {
            process_withdrawals(v);
            const auto sv = static_cast<std::size_t>(v);
            if (!alive[sv]) continue;
            NodeId best = kNoNode;
            for (const Envelope& e : net.inbox(v)) {
              if (e.msg.type == MsgType::kMmPropose &&
                  (best == kNoNode || e.from < best)) {
                best = e.from;
              }
            }
            if (best != kNoNode) {
              partner[sv] = best;
              alive[sv] = false;
              net.send(v, best, Message{MsgType::kMmAcceptP});
              withdraw(v);
            }
          }
          net.end_round();
          // Round R: accepted proposers finalize and withdraw.
          net.begin_round();
          for (NodeId v = 0; v < n; ++v) {
            process_withdrawals(v);
            const auto sv = static_cast<std::size_t>(v);
            if (!alive[sv]) continue;
            for (const Envelope& e : net.inbox(v)) {
              if (e.msg.type == MsgType::kMmAcceptP) {
                partner[sv] = e.from;
                alive[sv] = false;
                withdraw(v);
                break;
              }
            }
          }
          net.end_round();
        }
      }
      ++result.iterations_executed;  // one class pass
      std::int64_t live = 0;
      for (NodeId v = 0; v < n; ++v) live += alive[static_cast<std::size_t>(v)] ? 1 : 0;
      result.live_after_iteration.push_back(live);
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    const NodeId p = partner[static_cast<std::size_t>(v)];
    if (p != kNoNode && v < p) {
      DASM_CHECK_MSG(partner[static_cast<std::size_t>(p)] == v,
                     "inconsistent partners " << v << " and " << p);
      result.matching.add(v, p);
    }
  }
  result.net = net.stats();
  result.maximal = result.matching.is_maximal(g);
  return result;
}

}  // namespace dasm::mm
