#include "core/almost_regular_asm.hpp"

#include <algorithm>
#include <cmath>

#include "mm/amm.hpp"
#include "util/check.hpp"

namespace dasm::core {

namespace {

double effective_alpha(const Instance& inst,
                       const AlmostRegularAsmParams& params) {
  const double alpha =
      params.alpha > 0.0 ? params.alpha : inst.regularity_alpha();
  DASM_CHECK_MSG(alpha >= 1.0, "regularity ratio must be >= 1");
  return alpha;
}

AsmParams to_asm_params(const Instance& inst,
                        const AlmostRegularAsmParams& params) {
  const double alpha = effective_alpha(inst, params);
  AsmParams p;
  p.epsilon = params.epsilon;
  p.mm_backend = mm::Backend::kIsraeliItai;
  p.seed = params.seed;
  p.gate_by_degree = false;
  p.outer_iterations = 1;
  p.drop_unsatisfied_men = true;
  p.record_trace = params.record_trace;
  p.trim_quiescent_phases = params.trim_quiescent_phases;
  // Lemma 6 with delta' = eps / (4 alpha): after l = 2 delta'^-1 k
  // QuantileMatch calls at most an eps/(4 alpha) fraction of men is bad.
  const auto k = static_cast<NodeId>(std::ceil(8.0 / params.epsilon));
  p.inner_iterations = static_cast<std::int64_t>(
      std::ceil(2.0 * (4.0 * alpha / params.epsilon))) * k;
  // delta (Lemma 5) is irrelevant without the outer loop, but the
  // schedule resolver still validates it; keep the paper default.
  return p;
}

}  // namespace

int almost_regular_mm_budget(const Instance& inst,
                             const AlmostRegularAsmParams& params) {
  DASM_CHECK(params.failure_prob > 0.0 && params.failure_prob < 1.0);
  const double alpha = effective_alpha(inst, params);
  const Schedule sched =
      resolve_schedule(to_asm_params(inst, params),
                       std::max(inst.n_men(), inst.n_women()),
                       inst.graph().node_count());
  const auto calls =
      std::max<std::int64_t>(1, sched.scheduled_proposal_rounds());
  // Across all subcalls, the unsatisfied (dropped) men must stay within an
  // eps/(4 alpha) fraction, and the failure probability within
  // failure_prob — both union-bounded over the schedule (Theorem 6).
  const double eta =
      (params.epsilon / (4.0 * alpha)) / static_cast<double>(calls);
  const double delta_prime =
      params.failure_prob / static_cast<double>(calls);
  return mm::amm_iterations(eta, delta_prime, params.decay);
}

AsmResult run_almost_regular_asm(const Instance& inst,
                                 const AlmostRegularAsmParams& params) {
  AsmParams p = to_asm_params(inst, params);
  p.mm_iteration_budget = almost_regular_mm_budget(inst, params);
  return run_asm(inst, p);
}

}  // namespace dasm::core
