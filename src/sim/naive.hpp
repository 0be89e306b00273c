/**
 * @file
 * Naive full-scan reference kernels — the pre-subspace-enumeration
 * implementations, kept verbatim as the single source of truth for both
 * the kernel property tests (amplitude-exactness against the fast
 * paths) and the micro-benchmarks (speedup baselines). Not used by the
 * library itself.
 */

#ifndef CHOCOQ_SIM_NAIVE_HPP
#define CHOCOQ_SIM_NAIVE_HPP

#include <cmath>
#include <utility>

#include "common/bitops.hpp"
#include "linalg/matrix.hpp"

namespace chocoq::sim::naive
{

using linalg::Cplx;
using linalg::CVec;

/** exp(-i beta Hc(u)) pair rotation, branch-per-state scan. */
inline void
pairRotation(CVec &amp, Basis support, Basis v, double beta)
{
    const Cplx c{std::cos(beta), 0.0};
    const Cplx ms{0.0, -std::sin(beta)};
    for (std::size_t i = 0; i < amp.size(); ++i) {
        if ((i & support) != v)
            continue;
        const std::size_t j = i ^ support;
        const Cplx a = amp[i];
        const Cplx b = amp[j];
        amp[i] = c * a + ms * b;
        amp[j] = ms * a + c * b;
    }
}

/** e^{i phi} on states with all mask bits set, branch-per-state scan. */
inline void
phaseMask(CVec &amp, Basis mask, double phi)
{
    const Cplx phase{std::cos(phi), std::sin(phi)};
    for (std::size_t i = 0; i < amp.size(); ++i)
        if ((i & mask) == mask)
            amp[i] *= phase;
}

/** General single-qubit gate, one pair per step with the index spread
 * around bit q. */
inline void
apply1q(CVec &amp, int q, Cplx m00, Cplx m01, Cplx m10, Cplx m11)
{
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t t = 0; t < amp.size() >> 1; ++t) {
        const std::size_t low = t & (stride - 1);
        const std::size_t i0 = ((t - low) << 1) | low;
        const std::size_t i1 = i0 + stride;
        const Cplx a0 = amp[i0];
        const Cplx a1 = amp[i1];
        amp[i0] = m00 * a0 + m01 * a1;
        amp[i1] = m10 * a0 + m11 * a1;
    }
}

/** Diagonal single-qubit gate diag(d0, d1), same pair walk as apply1q. */
inline void
diagonal1q(CVec &amp, int q, Cplx d0, Cplx d1)
{
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t t = 0; t < amp.size() >> 1; ++t) {
        const std::size_t low = t & (stride - 1);
        const std::size_t i0 = ((t - low) << 1) | low;
        amp[i0] *= d0;
        amp[i0 + stride] *= d1;
    }
}

/** Controlled single-qubit gate, filtered strided scan. */
inline void
controlled1q(CVec &amp, Basis control_mask, int q, Cplx m00, Cplx m01,
             Cplx m10, Cplx m11)
{
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amp.size(); base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            if ((i0 & control_mask) != control_mask)
                continue;
            const std::size_t i1 = i0 + stride;
            const Cplx a0 = amp[i0];
            const Cplx a1 = amp[i1];
            amp[i0] = m00 * a0 + m01 * a1;
            amp[i1] = m10 * a0 + m11 * a1;
        }
    }
}

/** exp(-i beta (XX + YY)) on the {01, 10} block, branch-per-state scan. */
inline void
xy(CVec &amp, int a, int b, double beta)
{
    const Basis ba = Basis{1} << a;
    const Basis bb = Basis{1} << b;
    const Cplx c{std::cos(2.0 * beta), 0.0};
    const Cplx ms{0.0, -std::sin(2.0 * beta)};
    for (std::size_t i = 0; i < amp.size(); ++i) {
        if ((i & ba) == 0 || (i & bb) != 0)
            continue;
        const std::size_t j = (i ^ ba) | bb;
        const Cplx x = amp[i];
        const Cplx y = amp[j];
        amp[i] = c * x + ms * y;
        amp[j] = ms * x + c * y;
    }
}

/** Swap of two qubits, branch-per-state scan. */
inline void
swapQubits(CVec &amp, int a, int b)
{
    const Basis ba = Basis{1} << a;
    const Basis bb = Basis{1} << b;
    for (std::size_t i = 0; i < amp.size(); ++i) {
        if ((i & ba) == 0 || (i & bb) != 0)
            continue;
        std::swap(amp[i], amp[(i ^ ba) | bb]);
    }
}

} // namespace chocoq::sim::naive

#endif // CHOCOQ_SIM_NAIVE_HPP
