#include "solvers/penalty.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/circuits.hpp"
#include "core/layer_fusion.hpp"

namespace chocoq::solvers
{

namespace
{

using core::SubRun;

/** Variables sorted by how many penalty monomials they appear in. */
std::vector<int>
hotspotOrder(const model::Polynomial &poly, int n)
{
    std::vector<int> count(n, 0);
    for (const auto &[vars, c] : poly.terms())
        for (int v : vars)
            ++count[v];
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return count[a] > count[b]; });
    return order;
}

/** Precompute poly values over k qubits. */
std::shared_ptr<std::vector<double>>
tabulate(const model::Polynomial &f, int k)
{
    auto table = std::make_shared<std::vector<double>>(std::size_t{1} << k);
    for (std::size_t i = 0; i < table->size(); ++i)
        (*table)[i] = f.evaluate(i);
    return table;
}

} // namespace

PenaltyQaoaSolver::PenaltyQaoaSolver(PenaltyOptions opts)
    : opts_(std::move(opts))
{
    CHOCOQ_ASSERT(opts_.layers >= 1, "penalty QAOA needs >= 1 layer");
    CHOCOQ_ASSERT(opts_.freeze >= 0, "negative freeze count");
}

core::SolverOutcome
PenaltyQaoaSolver::solve(const model::Problem &p) const
{
    Timer compile_timer;
    const model::Polynomial penalty = p.penaltyPolynomial(opts_.lambda);
    const int n = p.numVars();
    const int freeze = std::min(opts_.freeze, n - 1);

    // FrozenQubits: fix the most-connected (hotspot) variables and run one
    // sub-circuit per assignment.
    const std::vector<int> order = hotspotOrder(penalty, n);
    std::vector<int> frozen(order.begin(), order.begin() + freeze);
    std::sort(frozen.begin(), frozen.end());
    std::vector<int> kept;
    std::vector<int> new_of(n, -1);
    for (int i = 0; i < n; ++i) {
        if (!std::binary_search(frozen.begin(), frozen.end(), i)) {
            new_of[i] = static_cast<int>(kept.size());
            kept.push_back(i);
        }
    }
    const int k = static_cast<int>(kept.size());

    std::vector<SubRun> runs;
    for (Basis assign = 0; assign < (Basis{1} << freeze); ++assign) {
        model::Polynomial sub = penalty;
        for (int j = 0; j < freeze; ++j)
            sub = sub.substitute(frozen[j], getBit(assign, j));
        auto f = std::make_shared<model::Polynomial>(sub.remapped(new_of));
        auto table = tabulate(*f, k);

        SubRun run;
        run.numQubits = k;
        run.init = 0;
        run.costTable = table;
        const auto plan = core::attachObjectivePlan(run, opts_.engine.fusion);
        auto phase_scratch = std::make_shared<std::vector<sim::Cplx>>();
        run.build = [k, f](const std::vector<double> &theta) {
            circuit::Circuit c(k);
            for (int q = 0; q < k; ++q)
                c.h(q);
            const std::size_t layers = theta.size() / 2;
            for (std::size_t l = 0; l < layers; ++l) {
                core::appendObjectivePhase(c, *f, theta[2 * l]);
                for (int q = 0; q < k; ++q)
                    c.rx(q, 2.0 * theta[2 * l + 1]);
            }
            return c;
        };
        run.evolve = [k, table, plan,
                      phase_scratch](sim::StateVector &state,
                                     const std::vector<double> &theta) {
            state.reset(0);
            constexpr double kInvSqrt2 = 0.70710678118654752440;
            for (int q = 0; q < k; ++q)
                state.apply1q(q, kInvSqrt2, kInvSqrt2, kInvSqrt2,
                              -kInvSqrt2);
            const std::size_t layers = theta.size() / 2;
            for (std::size_t l = 0; l < layers; ++l) {
                core::applyFusedObjectivePhase(state, *plan, *table,
                                               theta[2 * l], *phase_scratch);
                const double b = theta[2 * l + 1];
                const sim::Cplx cc{std::cos(b), 0.0};
                const sim::Cplx ms{0.0, -std::sin(b)};
                for (int q = 0; q < k; ++q)
                    state.apply1q(q, cc, ms, ms, cc);
            }
        };
        const std::vector<int> kept_copy = kept;
        const std::vector<int> frozen_copy = frozen;
        run.lift = [kept_copy, frozen_copy, assign](Basis x) {
            Basis full = 0;
            for (std::size_t j = 0; j < kept_copy.size(); ++j)
                if (getBit(x, static_cast<int>(j)))
                    full |= Basis{1} << kept_copy[j];
            for (std::size_t j = 0; j < frozen_copy.size(); ++j)
                if (getBit(assign, static_cast<int>(j)))
                    full |= Basis{1} << frozen_copy[j];
            return full;
        };
        runs.push_back(std::move(run));
    }
    const double plan_seconds = compile_timer.seconds();

    core::EngineOptions engine = opts_.engine;
    double warm_seconds = 0.0;
    if (engine.theta0.empty()) {
        double g0 = 0.1, b0 = 0.6;
        if (opts_.warmStart) {
            // Red-QAOA-style warm start: coarse single-layer grid search.
            // It runs on the job's scratch state and kernel sink, and its
            // time is simulator time, like the engine's evaluations.
            Timer warm_timer;
            double best = 0.0;
            bool first = true;
            std::optional<sim::StateVector> local_state;
            sim::StateVector &state =
                engine.scratch ? *engine.scratch : local_state.emplace(k);
            struct SinkGuard
            {
                sim::StateVector &s;
                ~SinkGuard() { s.setCounterSink(nullptr); }
            } sink_guard{state};
            state.setCounterSink(engine.kernelCounters);
            for (double g : {0.05, 0.1, 0.2, 0.4}) {
                for (double b : {0.2, 0.4, 0.6, 0.9}) {
                    double acc = 0.0;
                    for (const auto &run : runs) {
                        state.resizeScratch(run.numQubits);
                        run.evolve(state, {g, b});
                        acc += core::tableExpectation(state, run);
                    }
                    if (first || acc < best) {
                        first = false;
                        best = acc;
                        g0 = g;
                        b0 = b;
                    }
                }
            }
            warm_seconds = warm_timer.seconds();
        }
        for (int l = 0; l < opts_.layers; ++l) {
            engine.theta0.push_back(g0);
            engine.theta0.push_back(b0);
        }
    }

    const core::EngineResult res = core::runQaoa(
        runs,
        [&](Basis x) {
            double v = p.minimizedObjectiveOf(x);
            return v + opts_.lambda * p.violation(x);
        },
        engine);

    core::SolverOutcome out;
    out.distribution = res.distribution;
    out.iterations = res.opt.iterations;
    out.evaluations = res.opt.evaluations;
    out.bestCost = res.opt.bestValue;
    out.trace = res.opt.trace;
    out.logicalDepth = res.logicalDepth;
    out.basisDepth = res.basisDepth;
    out.basisGateCount = res.basisGateCount;
    out.basisTwoQubitCount = res.basisTwoQubitCount;
    out.qubitsUsed = res.qubitsUsed;
    out.circuitsPerIteration = static_cast<int>(runs.size());
    out.compileSeconds = plan_seconds + res.compileSeconds;
    out.simSeconds = warm_seconds + res.simSeconds;
    out.classicalSeconds = res.classicalSeconds;
    return out;
}

} // namespace chocoq::solvers
