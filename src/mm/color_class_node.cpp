#include "mm/color_class_node.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dasm::mm {

namespace {

// One Cole–Vishkin step: recolor `own` against the parent's color, keyed
// on the lowest bit position at which the two (distinct) colors differ.
std::int64_t cv_step(std::int64_t own, std::int64_t parent_color) {
  DASM_DCHECK(own != parent_color);
  const int i =
      std::countr_zero(static_cast<std::uint64_t>(own ^ parent_color));
  return 2 * static_cast<std::int64_t>(i) + ((own >> i) & 1);
}

}  // namespace

int cole_vishkin_iterations(NodeId n) {
  DASM_CHECK(n >= 1);
  // Colors start in [0, n); each step maps colors < cap into
  // [0, 2 * bits(cap - 1)). Iterate the cap until it reaches 6.
  std::int64_t cap = std::max<std::int64_t>(n, 2);
  int iters = 0;
  while (cap > 6) {
    cap = 2 * static_cast<std::int64_t>(
                  std::bit_width(static_cast<std::uint64_t>(cap - 1)));
    ++iters;
  }
  return iters;
}

ColorClassNode::ColorClassNode(NodeId delta_bound, NodeId n_bound)
    : delta_(delta_bound),
      cv_iters_(cole_vishkin_iterations(n_bound)),
      // Parent exchange + initial color + Cole–Vishkin + 3 sweeps x 6
      // colors x (propose, accept, resolve).
      per_class_(1 + (cv_iters_ + 1) + 3 * 6 * 3) {
  DASM_CHECK(delta_bound >= 1);
}

void ColorClassNode::reset(NodeId self, bool /*is_left*/,
                           std::vector<NodeId> neighbors) {
  DASM_CHECK_MSG(static_cast<NodeId>(neighbors.size()) <= delta_,
                 "node " << self << " has degree " << neighbors.size()
                         << " above the declared bound " << delta_);
  self_ = self;
  neighbors_ = std::move(neighbors);
  neighbor_alive_.assign(neighbors_.size(), true);
  peer_port_.assign(neighbors_.size(), kNoNode);
  alive_ = !neighbors_.empty();
  partner_ = kNoNode;
  round_ = 0;
  class_ports_.clear();
  parent_ = kNoNode;
}

void ColorClassNode::mark_dead(NodeId v) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbors_[i] == v) neighbor_alive_[i] = false;
  }
}

bool ColorClassNode::any_live_neighbor() const {
  return std::find(neighbor_alive_.begin(), neighbor_alive_.end(), true) !=
         neighbor_alive_.end();
}

void ColorClassNode::process_withdrawals(InboxView inbox) {
  for (const Envelope& e : inbox) {
    if (e.msg.type == MsgType::kMmMatched) mark_dead(e.from);
  }
}

void ColorClassNode::withdraw(Network& net) {
  for (std::size_t i = 0; i < neighbors_.size(); ++i) {
    if (neighbor_alive_[i] && neighbors_[i] != partner_) {
      net.send(self_, neighbors_[i], Message{MsgType::kMmMatched});
    }
  }
}

void ColorClassNode::send_color(Network& net) {
  for (const std::size_t p : class_ports_) {
    if (neighbor_alive_[p]) {
      net.send(self_, neighbors_[p], Message{MsgType::kColor, color_});
    }
  }
}

void ColorClassNode::on_round(InboxView inbox, Network& net) {
  process_withdrawals(inbox);
  const std::int64_t r = round_++;

  if (r == 0) {
    if (alive_) {
      for (std::size_t i = 0; i < neighbors_.size(); ++i) {
        net.send(self_, neighbors_[i],
                 Message{MsgType::kPort, static_cast<std::int64_t>(i)});
      }
    }
    return;
  }
  if (r == 1) {
    for (const Envelope& e : inbox) {
      if (e.msg.type != MsgType::kPort) continue;
      for (std::size_t i = 0; i < neighbors_.size(); ++i) {
        if (neighbors_[i] == e.from) {
          peer_port_[i] = static_cast<NodeId>(e.msg.a);
        }
      }
    }
  }

  const std::int64_t rel = r - 1;
  const std::int64_t cls = rel / per_class_;
  if (cls >= static_cast<std::int64_t>(delta_) * delta_) {
    alive_ = false;  // schedule exhausted: the matching is maximal
    return;
  }
  if (!alive_) return;
  if (!any_live_neighbor()) {
    alive_ = false;  // isolated: every acceptable partner is matched
    return;
  }

  const auto a = static_cast<NodeId>(cls / delta_);
  const auto b = static_cast<NodeId>(cls % delta_);
  const std::int64_t within = rel % per_class_;

  if (within == 0) {
    // Membership: my class edge as lower endpoint has my port a and peer
    // port b; as higher endpoint my port b and peer port a.
    class_ports_.clear();
    const auto pa = static_cast<std::size_t>(a);
    const auto pb = static_cast<std::size_t>(b);
    if (pa < neighbors_.size() && neighbor_alive_[pa] &&
        neighbors_[pa] > self_ && peer_port_[pa] == b) {
      class_ports_.push_back(pa);
    }
    if (pb < neighbors_.size() && neighbor_alive_[pb] &&
        neighbors_[pb] < self_ && peer_port_[pb] == a) {
      class_ports_.push_back(pb);
    }
    if (in_class()) {
      parent_ = kNoNode;
      for (const std::size_t p : class_ports_) {
        parent_ = std::max(parent_, neighbors_[p]);
      }
      rooted_ = false;
      color_ = self_;
      for (const std::size_t p : class_ports_) {
        net.send(self_, neighbors_[p], Message{MsgType::kParent, parent_});
      }
    }
    return;
  }
  if (within == 1) {
    // Root detection, then announce the initial color.
    if (!in_class()) return;
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kParent && e.from == parent_ &&
          static_cast<NodeId>(e.msg.a) == self_ && self_ > e.from) {
        rooted_ = true;
      }
    }
    send_color(net);
    return;
  }
  if (within <= 1 + cv_iters_) {
    // Cole–Vishkin update against the parent's last announced color.
    if (!in_class()) return;
    std::int64_t parent_color = -1;
    if (rooted_) {
      parent_color = color_ ^ 1;
    } else {
      for (const Envelope& e : inbox) {
        if (e.msg.type == MsgType::kColor && e.from == parent_) {
          parent_color = e.msg.a;
        }
      }
      DASM_CHECK_MSG(parent_color >= 0,
                     "node " << self_ << " missed its parent's color");
    }
    color_ = cv_step(color_, parent_color);
    send_color(net);
    return;
  }

  // Matching sweeps: 3 sweeps x 6 color phases x (propose, accept,
  // resolve).
  const std::int64_t idx = within - (2 + cv_iters_);
  const std::int64_t phase = idx % 3;
  const std::int64_t color_phase = (idx / 3) % 6;
  if (phase == 0) {
    if (!in_class() || color_ != color_phase) return;
    NodeId target = kNoNode;
    for (const std::size_t p : class_ports_) {
      if (neighbor_alive_[p] && (target == kNoNode || neighbors_[p] < target)) {
        target = neighbors_[p];
      }
    }
    if (target != kNoNode) {
      net.send(self_, target, Message{MsgType::kMmPropose});
    }
  } else if (phase == 1) {
    NodeId best = kNoNode;
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kMmPropose &&
          (best == kNoNode || e.from < best)) {
        best = e.from;
      }
    }
    if (best != kNoNode) {
      partner_ = best;
      alive_ = false;
      net.send(self_, best, Message{MsgType::kMmAcceptP});
      withdraw(net);
    }
  } else {
    for (const Envelope& e : inbox) {
      if (e.msg.type == MsgType::kMmAcceptP) {
        partner_ = e.from;
        alive_ = false;
        withdraw(net);
        break;
      }
    }
  }
}

}  // namespace dasm::mm
