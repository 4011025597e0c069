#include "stable/instance.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dasm {

Instance::Instance(std::vector<Ranking> men, std::vector<Ranking> women) {
  const NodeId nm = static_cast<NodeId>(men.size());
  const NodeId nw = static_cast<NodeId>(women.size());
  // The arenas validate ids (non-negative, in range, distinct) while
  // building the flat layout; symmetry needs both sides and is checked
  // against the finished arenas below.
  men_ = PrefArena(std::move(men), nw, "man");
  women_ = PrefArena(std::move(women), nm, "woman");

  // The symmetry loops also scatter the graph's CSR: men's rows, then
  // women's, sized by the arena degrees. Each loop walks one side in
  // ascending id order, so every row comes out sorted with no sort. An
  // entry is written only once it is known to be mutual, so even
  // asymmetric input cannot overflow a row.
  const std::int64_t men_side = men_.total_degree();
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(nm) + nw + 1);
  offsets.assign(men_.offsets().begin(), men_.offsets().end() - 1);
  for (const std::int64_t at : women_.offsets()) {
    offsets.push_back(men_side + at);
  }
  std::vector<NodeId> neighbours(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId m = 0; m < nm; ++m) {
    for (NodeId w : men_.list(m).ranked()) {
      DASM_CHECK_MSG(women_.list(w).contains(m),
                     "asymmetric preferences: man " << m << " ranks woman "
                                                    << w << " but not back");
      neighbours[static_cast<std::size_t>(cursor[nm + w]++)] = m;
    }
  }
  for (NodeId w = 0; w < nw; ++w) {
    for (NodeId m : women_.list(w).ranked()) {
      DASM_CHECK_MSG(men_.list(m).contains(w),
                     "asymmetric preferences: woman " << w << " ranks man "
                                                      << m << " but not back");
      neighbours[static_cast<std::size_t>(cursor[m]++)] = nm + w;
    }
  }
  graph_ = std::make_unique<BipartiteGraph>(
      nm, nw, Graph(std::move(offsets), std::move(neighbours)));
}

bool Instance::is_complete() const {
  for (NodeId m = 0; m < n_men(); ++m) {
    if (men_.list(m).degree() != n_women()) return false;
  }
  for (NodeId w = 0; w < n_women(); ++w) {
    if (women_.list(w).degree() != n_men()) return false;
  }
  return true;
}

double Instance::regularity_alpha() const {
  NodeId lo = 0;
  NodeId hi = 0;
  bool any = false;
  for (NodeId m = 0; m < n_men(); ++m) {
    const NodeId deg = men_.list(m).degree();
    if (deg == 0) continue;
    if (!any) {
      lo = hi = deg;
      any = true;
    } else {
      lo = std::min(lo, deg);
      hi = std::max(hi, deg);
    }
  }
  if (!any) return 1.0;
  return static_cast<double>(hi) / static_cast<double>(lo);
}

}  // namespace dasm
