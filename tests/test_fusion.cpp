/**
 * @file
 * Fusion equivalence suite.
 *
 * Two different contracts are pinned down here (see docs/simulator.md,
 * "Gate fusion"):
 *  - the functional-path fusion (compressed objective phase, grouped
 *    commute sweeps, the solver's fused evolve closures) must be
 *    BIT-IDENTICAL to the unfused kernels — the service's determinism
 *    guarantees ride on it;
 *  - the circuit-path fusion (FusedDiagonal blocks) accumulates each
 *    run's factors into one product per amplitude and is equivalent
 *    within floating-point reassociation, checked at 1e-12 on
 *    randomized circuits across register widths k = 1..8.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "circuit/fusion.hpp"
#include "common/rng.hpp"
#include "core/chocoq_solver.hpp"
#include "core/commute.hpp"
#include "core/layer_fusion.hpp"
#include "problems/suite.hpp"
#include "service/compile_cache.hpp"
#include "sim/executor.hpp"
#include "sim/parallel.hpp"
#include "sim/statevector.hpp"
#include "solvers/cyclic.hpp"
#include "solvers/hea.hpp"
#include "solvers/penalty.hpp"

using namespace chocoq;
using circuit::Circuit;
using circuit::FusionOptions;
using circuit::GateType;
using linalg::Cplx;
using linalg::CVec;
using sim::StateVector;

namespace
{

constexpr double kTol = 1e-12;

CVec
randomState(Rng &rng, int n)
{
    CVec psi(std::size_t{1} << n);
    double norm2 = 0;
    for (auto &a : psi) {
        a = Cplx{rng.normal(), rng.normal()};
        norm2 += std::norm(a);
    }
    for (auto &a : psi)
        a /= std::sqrt(norm2);
    return psi;
}

void
expectNearState(const CVec &got, const CVec &want, double tol = kTol)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].real(), want[i].real(), tol) << "index " << i;
        ASSERT_NEAR(got[i].imag(), want[i].imag(), tol) << "index " << i;
    }
}

void
expectBitwiseState(const CVec &got, const CVec &want)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(Cplx)),
              0);
}

/** Random circuit mixing every diagonal gate with non-diagonal ones. */
Circuit
randomMixedCircuit(Rng &rng, int n, int gates)
{
    Circuit c(n);
    for (int g = 0; g < gates; ++g) {
        const int q = rng.intIn(0, n - 1);
        int q2 = n > 1 ? rng.intIn(0, n - 2) : 0;
        if (n > 1 && q2 >= q)
            ++q2;
        const double theta = rng.uniform() * 6.0 - 3.0;
        switch (rng.intIn(0, 12)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.rx(q, theta); break;
          case 3: c.ry(q, theta); break;
          case 4: c.rz(q, theta); break;
          case 5: c.p(q, theta); break;
          case 6: c.s(q); break;
          case 7: c.t(q); break;
          case 8:
            if (n > 1)
                c.cx(q, q2);
            else
                c.z(q);
            break;
          case 9:
            if (n > 1)
                c.cp(q, q2, theta);
            else
                c.sdg(q);
            break;
          case 10:
            if (n > 1)
                c.rzz(q, q2, theta);
            else
                c.tdg(q);
            break;
          case 11:
            if (n > 2) {
                c.mcp({0, 1, 2}, theta);
                break;
            }
            c.z(q);
            break;
          default:
            if (n > 1)
                c.cz(q, q2);
            else
                c.p(q, theta);
            break;
        }
    }
    return c;
}

} // namespace

// ---- circuit-level fusion pass ----

TEST(FusionPass, FoldsDiagonalRunsAndPassesOthersThrough)
{
    Circuit c(3);
    c.h(0);
    c.rz(0, 0.3);
    c.rzz(0, 1, 0.7); // run of 2 gates, fraction 1 + 1 >= 1 -> fused
    c.cx(0, 2);
    c.p(2, 0.5); // run of 1 -> below minGates, passthrough
    const auto fused = circuit::fuseDiagonals(c);
    ASSERT_EQ(fused.sourceGates, 5u);
    ASSERT_EQ(fused.fusedGates, 2u);
    ASSERT_EQ(fused.diagonalBlocks, 1u);
    ASSERT_EQ(fused.ops.size(), 4u); // h, block, cx, p
    EXPECT_FALSE(fused.ops[0].diagonal);
    EXPECT_TRUE(fused.ops[1].diagonal);
    EXPECT_EQ(fused.ops[1].diag.gateCount, 2u);
    // rz contributes 1 term, rzz contributes 3.
    EXPECT_EQ(fused.ops[1].diag.terms.size(), 4u);
    EXPECT_FALSE(fused.ops[2].diagonal);
    EXPECT_FALSE(fused.ops[3].diagonal);
}

TEST(FusionPass, CostModelKeepsSparseRunsUnfused)
{
    // Two CZ gates touch half a state in total: cheaper unfused.
    Circuit c(4);
    c.cz(0, 1);
    c.cz(2, 3);
    const auto fused = circuit::fuseDiagonals(c);
    EXPECT_EQ(fused.diagonalBlocks, 0u);
    EXPECT_EQ(fused.fusedGates, 0u);
    ASSERT_EQ(fused.ops.size(), 2u);

    // Opting the threshold down forces the fusion.
    FusionOptions opts;
    opts.minSweepFraction = 0.0;
    const auto forced = circuit::fuseDiagonals(c, opts);
    EXPECT_EQ(forced.diagonalBlocks, 1u);
    EXPECT_EQ(forced.fusedGates, 2u);
}

TEST(FusionPass, BarrierEndsARun)
{
    Circuit c(2);
    c.rz(0, 0.4);
    c.barrier();
    c.rz(1, 0.6);
    const auto fused = circuit::fuseDiagonals(c);
    // Each side of the barrier is a run of one gate: no block.
    EXPECT_EQ(fused.diagonalBlocks, 0u);
    ASSERT_EQ(fused.ops.size(), 3u);
}

TEST(FusionPass, RandomCircuitsMatchUnfusedExecution)
{
    Rng rng(20250727);
    for (int n = 1; n <= 8; ++n) {
        for (int rep = 0; rep < 8; ++rep) {
            const Circuit c = randomMixedCircuit(rng, n, 24);
            const CVec psi = randomState(rng, n);

            StateVector plain(n), fused(n);
            plain.amplitudes() = psi;
            fused.amplitudes() = psi;
            sim::execute(plain, c);

            FusionOptions opts;
            opts.minSweepFraction = rep % 2 == 0 ? 1.0 : 0.0;
            sim::execute(fused, circuit::fuseDiagonals(c, opts));
            expectNearState(fused.amplitudes(), plain.amplitudes());
        }
    }
}

TEST(FusionPass, MaskPhaseProductMatchesSequentialGates)
{
    Rng rng(7);
    const int n = 6;
    for (int rep = 0; rep < 16; ++rep) {
        Circuit c(n);
        const int gates = rng.intIn(2, 6);
        for (int g = 0; g < gates; ++g) {
            const double theta = rng.uniform() * 6.0 - 3.0;
            const int a = rng.intIn(0, n - 1);
            int b = rng.intIn(0, n - 2);
            if (b >= a)
                ++b;
            if (rng.chance(0.5))
                c.rz(a, theta);
            else
                c.cp(a, b, theta);
        }
        const CVec psi = randomState(rng, n);
        StateVector plain(n), fused(n);
        plain.amplitudes() = psi;
        fused.amplitudes() = psi;
        sim::execute(plain, c);
        FusionOptions opts;
        opts.minSweepFraction = 0.0;
        const auto fc = circuit::fuseDiagonals(c, opts);
        ASSERT_EQ(fc.diagonalBlocks, 1u);
        sim::execute(fused, fc);
        expectNearState(fused.amplitudes(), plain.amplitudes());
    }
}

// ---- functional-path fusion: bit-identical contracts ----

TEST(FusedLayer, CompressedPhaseIsBitIdentical)
{
    Rng rng(11);
    for (int n : {4, 8, 10}) {
        const std::size_t dim = std::size_t{1} << n;
        // Few distinct values (the objective-table shape).
        std::vector<double> table(dim);
        for (auto &v : table)
            v = static_cast<double>(rng.intIn(-5, 6));
        const auto plan = core::buildFusedLayerPlan(table, {});
        ASSERT_TRUE(plan.compressedPhase);
        EXPECT_LE(plan.distinctValues.size(), 12u);

        for (const double gamma : {0.0, 0.37, -2.25, 14.0}) {
            const CVec psi = randomState(rng, n);
            StateVector plain(n), fused(n);
            plain.amplitudes() = psi;
            fused.amplitudes() = psi;
            plain.applyPhaseTable(table, gamma);
            std::vector<Cplx> scratch;
            core::applyFusedObjectivePhase(fused, plan, table, gamma,
                                           scratch);
            expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        }
    }
}

TEST(FusedLayer, CompressionCoversAllDistinctTables)
{
    // Every entry distinct: still compressible up to the uint16 range.
    Rng rng(12);
    const int n = 8;
    std::vector<double> table(std::size_t{1} << n);
    for (auto &v : table)
        v = rng.normal();
    const auto plan = core::buildFusedLayerPlan(table, {});
    ASSERT_TRUE(plan.compressedPhase);
    EXPECT_EQ(plan.distinctValues.size(), table.size());

    StateVector plain(n), fused(n);
    const CVec psi = randomState(rng, n);
    plain.amplitudes() = psi;
    fused.amplitudes() = psi;
    plain.applyPhaseTable(table, 0.9);
    std::vector<Cplx> scratch;
    core::applyFusedObjectivePhase(fused, plan, table, 0.9, scratch);
    expectBitwiseState(fused.amplitudes(), plain.amplitudes());
}

TEST(FusedLayer, CommuteGroupsAreBitIdentical)
{
    // Three terms sharing the support {1, 3, 5} with pairwise-disjoint
    // pair sets, then a term on a different support.
    const auto term = [](std::vector<int> u) {
        return core::makeCommuteTerm(u);
    };
    const std::vector<core::CommuteTerm> terms = {
        term({0, 1, 0, 1, 0, 1}),   // v = {1,3,5}
        term({0, 1, 0, -1, 0, 1}),  // v = {1,5}
        term({0, 1, 0, 1, 0, -1}),  // v = {1,3}
        term({1, 0, 1, 0, 0, 0}),   // different support
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.groups[0].vBits.size(), 3u);
    EXPECT_EQ(plan.termCount, 4u);

    Rng rng(13);
    const int n = 6;
    for (const double beta : {0.3, 1.9, -0.8}) {
        const CVec psi = randomState(rng, n);
        StateVector plain(n), fused(n);
        plain.amplitudes() = psi;
        fused.amplitudes() = psi;
        core::applyCommuteLayer(plain, terms, beta);
        core::applyFusedCommuteLayer(fused, plan, beta);
        expectBitwiseState(fused.amplitudes(), plain.amplitudes());
    }
}

TEST(FusedLayer, GroupBuilderRejectsOverlappingPairSets)
{
    // u and -u address the same |v>/|v-bar> pair: grouping them would
    // interleave writes to shared amplitudes, so they must split.
    const std::vector<core::CommuteTerm> terms = {
        core::makeCommuteTerm({1, -1}),
        core::makeCommuteTerm({-1, 1}),
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 2u);

    Rng rng(14);
    const CVec psi = randomState(rng, 2);
    StateVector plain(2), fused(2);
    plain.amplitudes() = psi;
    fused.amplitudes() = psi;
    core::applyCommuteLayer(plain, terms, 0.7);
    core::applyFusedCommuteLayer(fused, plan, 0.7);
    expectBitwiseState(fused.amplitudes(), plain.amplitudes());
}

TEST(FusedLayer, RandomizedLayersAcrossSupportsAreBitIdentical)
{
    Rng rng(15);
    for (int n = 1; n <= 8; ++n) {
        for (int rep = 0; rep < 6; ++rep) {
            // Random move set; duplicates of a support mask exercise
            // grouping, distinct masks exercise the passthrough.
            std::vector<core::CommuteTerm> terms;
            const int count = rng.intIn(1, 6);
            for (int t = 0; t < count; ++t) {
                std::vector<int> u(n, 0);
                int nonzero = 0;
                for (int q = 0; q < n; ++q)
                    if (rng.chance(0.5)) {
                        u[q] = rng.chance(0.5) ? 1 : -1;
                        ++nonzero;
                    }
                if (nonzero == 0)
                    u[rng.intIn(0, n - 1)] = 1;
                terms.push_back(core::makeCommuteTerm(u));
                // Half the time, append a same-support variant.
                if (rng.chance(0.5)) {
                    for (int q = 0; q < n; ++q)
                        if (u[q] != 0 && rng.chance(0.5))
                            u[q] = -u[q];
                    terms.push_back(core::makeCommuteTerm(u));
                }
            }
            std::vector<double> table(std::size_t{1} << n);
            for (auto &v : table)
                v = static_cast<double>(rng.intIn(-4, 5));
            const auto plan = core::buildFusedLayerPlan(table, terms);

            const CVec psi = randomState(rng, n);
            StateVector plain(n), fused(n);
            plain.amplitudes() = psi;
            fused.amplitudes() = psi;
            const double gamma = rng.uniform() * 4 - 2;
            const double beta = rng.uniform() * 4 - 2;
            plain.applyPhaseTable(table, gamma);
            core::applyCommuteLayer(plain, terms, beta);
            std::vector<Cplx> scratch;
            core::applyFusedObjectivePhase(fused, plan, table, gamma,
                                           scratch);
            core::applyFusedCommuteLayer(fused, plan, beta);
            expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        }
    }
}

TEST(FusedLayer, GroupKernelMatchesOnOpenMpPartitioning)
{
    // Grouped sweep vs sequential rotations at several thread counts:
    // the deterministic chunking must keep the bits identical.
    const std::vector<core::CommuteTerm> terms = {
        core::makeCommuteTerm({0, 1, 0, 1, 0, 0, 0, 0, 1, 0}),
        core::makeCommuteTerm({0, 1, 0, -1, 0, 0, 0, 0, 1, 0}),
        core::makeCommuteTerm({0, -1, 0, 1, 0, 0, 0, 0, 1, 0}),
    };
    const auto plan = core::buildFusedLayerPlan({}, terms);
    ASSERT_EQ(plan.groups.size(), 1u);

    Rng rng(16);
    const int n = 10;
    const CVec psi = randomState(rng, n);
    CVec want;
    for (const int threads : {1, 2, 5}) {
        sim::setSimThreads(threads);
        StateVector plain(n), fused(n);
        plain.amplitudes() = psi;
        fused.amplitudes() = psi;
        core::applyCommuteLayer(plain, terms, 1.1);
        core::applyFusedCommuteLayer(fused, plan, 1.1);
        sim::setSimThreads(0);
        expectBitwiseState(fused.amplitudes(), plain.amplitudes());
        if (want.empty())
            want = plain.amplitudes();
    }
}

// ---- solver-level equivalence ----

TEST(ChocoQFusion, FusedSolveIsBitIdenticalOnFunctionalPath)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions base;
    base.engine.opt.maxIterations = 12;
    base.engine.seed = 99;

    core::ChocoQOptions fused = base;
    fused.engine.fusion = true;
    core::ChocoQOptions plain = base;
    plain.engine.fusion = false;

    const auto fused_out = core::ChocoQSolver(fused).solve(p);
    const auto plain_out = core::ChocoQSolver(plain).solve(p);

    ASSERT_EQ(std::memcmp(&fused_out.bestCost, &plain_out.bestCost,
                          sizeof(double)),
              0);
    ASSERT_EQ(fused_out.distribution.size(), plain_out.distribution.size());
    auto fit = fused_out.distribution.begin();
    auto pit = plain_out.distribution.begin();
    for (; fit != fused_out.distribution.end(); ++fit, ++pit) {
        ASSERT_EQ(fit->first, pit->first);
        ASSERT_EQ(std::memcmp(&fit->second, &pit->second, sizeof(double)),
                  0);
    }
}

namespace
{

/** Same distribution bits, bestCost, iterations and evaluations. */
void
expectBitIdenticalOutcome(const core::SolverOutcome &got,
                          const core::SolverOutcome &want)
{
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.evaluations, want.evaluations);
    ASSERT_EQ(std::memcmp(&got.bestCost, &want.bestCost, sizeof(double)),
              0);
    ASSERT_EQ(got.distribution.size(), want.distribution.size());
    auto git = got.distribution.begin();
    auto wit = want.distribution.begin();
    for (; git != got.distribution.end(); ++git, ++wit) {
        ASSERT_EQ(git->first, wit->first);
        ASSERT_EQ(std::memcmp(&git->second, &wit->second, sizeof(double)),
                  0);
    }
}

} // namespace

TEST(BaselineFusion, PenaltyAndCyclicFusedSolveIsBitIdentical)
{
    // Penalty and cyclic apply their objective phase and expectation
    // through the value-compressed table when fusion is on, and through
    // the plain table sweeps when it is off: same bits either way.
    for (const auto scale : {problems::Scale::G1, problems::Scale::K2}) {
        const auto p = problems::makeCase(scale, 0);

        solvers::PenaltyOptions penalty;
        penalty.engine.opt.maxIterations = 15;
        penalty.engine.seed = 13;
        solvers::PenaltyOptions penalty_plain = penalty;
        penalty_plain.engine.fusion = false;
        expectBitIdenticalOutcome(
            solvers::PenaltyQaoaSolver(penalty).solve(p),
            solvers::PenaltyQaoaSolver(penalty_plain).solve(p));

        solvers::CyclicOptions cyclic;
        cyclic.engine.opt.maxIterations = 15;
        cyclic.engine.seed = 13;
        solvers::CyclicOptions cyclic_plain = cyclic;
        cyclic_plain.engine.fusion = false;
        expectBitIdenticalOutcome(
            solvers::CyclicQaoaSolver(cyclic).solve(p),
            solvers::CyclicQaoaSolver(cyclic_plain).solve(p));
    }
}

TEST(BaselineFusion, HeaEvolveMatchesBuiltCircuit)
{
    // HEA's functional path applies RZ as a diagonal gate; it must stay
    // the unitary its build() circuit describes.
    Rng rng(23);
    for (const auto scale : {problems::Scale::G1, problems::Scale::K2}) {
        const auto p = problems::makeCase(scale, 0);
        const core::SubRun run = solvers::HeaSolver().ansatz(p);
        std::vector<double> theta(
            2 * static_cast<std::size_t>(run.numQubits) * 3);
        for (auto &t : theta)
            t = rng.uniform(-3.2, 3.2);
        StateVector functional(run.numQubits), circuit(run.numQubits);
        run.evolve(functional, theta);
        sim::execute(circuit, run.build(theta));
        expectNearState(functional.amplitudes(), circuit.amplitudes());
    }
}

TEST(ChocoQFusion, GateLevelLoopMatchesWithinTolerance)
{
    // The circuit path reassociates diagonal products; equivalence is
    // within fp tolerance rather than bitwise.
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions base;
    base.gateLevelLoop = true;
    base.engine.opt.maxIterations = 6;
    base.engine.seed = 5;

    core::ChocoQOptions fused = base;
    fused.engine.fusion = true;
    core::ChocoQOptions plain = base;
    plain.engine.fusion = false;

    const auto fused_out = core::ChocoQSolver(fused).solve(p);
    const auto plain_out = core::ChocoQSolver(plain).solve(p);
    EXPECT_NEAR(fused_out.bestCost, plain_out.bestCost, 1e-9);
    for (const auto &[x, prob] : fused_out.distribution) {
        const auto it = plain_out.distribution.find(x);
        if (it == plain_out.distribution.end()) {
            EXPECT_LT(prob, 1e-9) << "state " << x;
            continue;
        }
        EXPECT_NEAR(prob, it->second, 1e-9) << "state " << x;
    }
}

TEST(ChocoQFusion, CompileKeySeesFusionFlag)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions on;
    on.engine.fusion = true;
    core::ChocoQOptions off = on;
    off.engine.fusion = false;
    EXPECT_NE(service::compileKey(p, on), service::compileKey(p, off));
}

TEST(ChocoQFusion, ArtifactsCarryThePlanOnlyWhenFusionIsOn)
{
    const auto p = problems::makeCase(problems::Scale::F1, 0);
    core::ChocoQOptions on;
    on.engine.fusion = true;
    core::ChocoQOptions off = on;
    off.engine.fusion = false;

    const auto with_plan = core::ChocoQSolver(on).compile(p);
    const auto without = core::ChocoQSolver(off).compile(p);
    ASSERT_FALSE(with_plan->subs.empty());
    for (const auto &sub : with_plan->subs) {
        ASSERT_TRUE(sub.fusedPlan);
        EXPECT_EQ(sub.fusedPlan->termCount, sub.terms->size());
        if (sub.fusedPlan->compressedPhase)
            EXPECT_EQ(sub.fusedPlan->valueIndex.size(),
                      sub.costTable->size());
    }
    for (const auto &sub : without->subs)
        EXPECT_FALSE(sub.fusedPlan);
    EXPECT_GT(with_plan->memoryBytes(), without->memoryBytes());
}
