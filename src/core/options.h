#pragma once

#include "cost/evaluator.h"
#include "engine/backend.h"
#include "rules/rule.h"
#include "search/search_common.h"
#include "widgets/widget.h"

namespace ifgen {

/// \brief Which generator to run.
enum class Algorithm : uint8_t {
  kMcts = 0,   ///< the paper's approach
  kRandom,     ///< random-walk baseline (Figure 6d-style output)
  kGreedy,     ///< hill climbing baseline
  kBeam,       ///< beam search baseline
  kExhaustive, ///< bounded exhaustive search (tiny inputs only)
  kBottomUp,   ///< Zhang et al. 2017 bottom-up baseline (no search)
};

std::string_view AlgorithmName(Algorithm a);

/// \brief All knobs of the end-to-end generator, with paper defaults —
/// except the PR-2 search/evaluation refinements, which default on and are
/// individually ablatable:
///  - `search.priors` (PriorOptions): log-derived action priors (PUCT) and
///    progressive widening; `use_priors`/`progressive_widening` false
///    recovers the paper's uniform expand-all search.
///  - `delta_cost_eval`: per-subtree delta-cost evaluation; false forces
///    full re-evaluation per state (bit-identical costs, more recomputes).
struct GeneratorOptions {
  Screen screen{100, 40};
  Algorithm algorithm = Algorithm::kMcts;
  SearchOptions search;
  /// Parallel runtime: with kMcts, `parallel.num_threads` root-parallel
  /// trees (see ParallelOptions).
  ParallelOptions parallel;
  RuleSetOptions rules;
  CostConstants constants;
  /// Execution backend the generated interface's queries run against
  /// (InterfaceSession::ExecuteCurrent, GenerationService::BackendFor).
  /// Does not affect the generated widgets, but it is part of the served
  /// contract (API requests select it per job, and sessions execute on it),
  /// so it participates in the service's result-cache key.
  BackendKind backend = BackendKind::kColumnar;
  /// Delta-cost evaluation ablation flag (EvalOptions::delta_eval).
  bool delta_cost_eval = true;
  /// k random widget assignments per state during search (paper's k).
  size_t k_assignments = 8;
  /// Persistent-experience ablation flag (src/learn/): makes this job
  /// eligible to warm-start from the service's ExperienceStore (root-action
  /// virtual visits + cost-memo/delta-cache seeding) and to record its
  /// discoveries back. Turns on state-keyed sampling (EvalOptions) so
  /// sampled costs are pure functions of (state, options, seed) — seeded
  /// entries then change the amount of work, never the values or the RNG
  /// streams; a warm run is bit-identical to a cold run with the same flag.
  /// Changes which costs the k random assignments produce vs. the default
  /// caller-stream sampling, so it participates in cache keys and
  /// fingerprints; the runtime store/bridge wiring does not.
  bool experience = false;
  /// Cross-job delta-cost cache shared by the service for same-cost-identity
  /// experience jobs (cost/delta.h documents why sharing is bit-safe).
  /// Runtime wiring — never part of any key or fingerprint.
  std::shared_ptr<DeltaCostCache> shared_delta_cache;

  EvalOptions MakeEvalOptions() const {
    EvalOptions e;
    e.screen = screen;
    e.constants = constants;
    e.k_assignments = k_assignments;
    e.delta_eval = delta_cost_eval;
    e.state_keyed_sampling = experience;
    e.sampling_seed = search.seed;
    e.shared_delta = shared_delta_cache;
    return e;
  }
};

}  // namespace ifgen
