/**
 * @file
 * Hardware-efficient ansatz (HEA) baseline [28].
 *
 * Kandala-style circuit: an initial RY+RZ rotation layer, then L blocks of
 * a CX-chain entangler followed by another RY+RZ layer. Per the paper's
 * setup, the objective is penalty-modified so outputs satisfy constraints
 * "as much as possible"; the circuit structure itself is problem-agnostic,
 * which is why it rarely converges to the constrained optimum (Table II).
 */

#ifndef CHOCOQ_SOLVERS_HEA_HPP
#define CHOCOQ_SOLVERS_HEA_HPP

#include "core/solver.hpp"

namespace chocoq::solvers
{

/** HEA configuration. */
struct HeaOptions
{
    /** Entangler blocks L; parameters = 2 n (L + 1). */
    int layers = 2;
    /** Penalty weight lambda. */
    double lambda = 10.0;
    /** Seed for the random initial angles. */
    std::uint64_t seed = 11;
    core::EngineOptions engine;
};

/** Hardware-efficient variational baseline (non-QAOA). */
class HeaSolver : public core::Solver
{
  public:
    explicit HeaSolver(HeaOptions opts = {});

    std::string name() const override { return "hea"; }

    core::SolverOutcome solve(const model::Problem &p) const override;

    /** The ansatz as the engine runs it: build(), the functional
     * evolve() (unitarily equivalent, a tested property) and the
     * penalty cost table. */
    core::SubRun ansatz(const model::Problem &p) const;

  private:
    HeaOptions opts_;
};

} // namespace chocoq::solvers

#endif // CHOCOQ_SOLVERS_HEA_HPP
