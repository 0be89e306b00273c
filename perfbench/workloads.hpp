/**
 * @file
 * The benchmark's three workloads, generated as JSONL request lines
 * from a seed. The program under test only ever receives these lines.
 *
 * - chocoq-table: Choco-Q on the paper's Table II upper scales
 *   F3/G3/G4/K3, closed loop. The simulator does most of the work and
 *   every new structure pays one compile-cache miss.
 * - baseline-table: penalty, cyclic and HEA on G1/K2/F2/G2, closed
 *   loop. Same simulator through the baseline kernels, no compile cache.
 * - serve-open: small F1/K1/G1/K2 Choco-Q jobs sent open loop to a
 *   chocoq_serve socket: registry cases, inline problem specs and their
 *   problem_ref reuses, and periodic stats probes. The service and spec
 *   layers dominate.
 *
 * The table workloads run a fixed pool of (case, job seed) pairs in
 * whole passes, so a run's job multiset, and with it the quality
 * rates and the percentile ranks, is the same at every seed; the seed
 * orders each pass. Small jobs repeat their (case, seed) pair inside a
 * pass so the determinism gate sees repeats on different workers.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench
{

/** How a request names its problem. */
enum class Form
{
    Registry,
    Inline,
    Ref,
};

/** One generated job request. */
struct JobSpec
{
    std::string id;
    std::string solver;
    /** The registry case the job solves, whatever its wire form. */
    std::string scale;
    unsigned caseIndex = 0;
    std::uint64_t seed = 0;
    Form form = Form::Registry;
    /** The request line handed to the program. */
    std::string line;

    /** (case, solver, seed): jobs with equal keys must hash equally. */
    std::string key() const;
};

/** A registry case the workload uses. */
struct CaseRef
{
    std::string scale;
    unsigned caseIndex = 0;
    bool operator<(const CaseRef &o) const
    {
        return scale != o.scale ? scale < o.scale : caseIndex < o.caseIndex;
    }
    bool operator==(const CaseRef &o) const
    {
        return scale == o.scale && caseIndex == o.caseIndex;
    }
};

struct Workload
{
    std::string name;
    /** Closed loop in process, or open loop over the socket. */
    bool openLoop = false;
    /** Service workers, and clients (closed) or connections (open). */
    int workers = 4;
    /** Closed loop: one pass of the pool takes about this long on the
     * reference host; a run makes round(seconds / passS) passes. */
    double passS = 0.0;
    /** Open loop: offered rate of the fixed-rate phase, requests/s. */
    double rate = 0.0;
    /** Open loop: the latency limit on the tail percentile. */
    double latencyLimitMs = 0.0;
    /** Open loop: share of the run spent at the fixed rate; the rest
     * searches the highest sustained rate. */
    double fixedShare = 0.0;
};

/** The named workloads; null for an unknown name. */
const Workload *workloadByName(const std::string &name);

std::vector<std::string> workloadNames();

/** Closed-loop job list: @p passes passes over the pool, each pass
 * big structures first, then small ones, each group in seeded order. */
std::vector<JobSpec> closedLoopJobs(const Workload &w, std::uint64_t seed,
                                    int passes);

/** Passes a closed-loop run of @p seconds makes. */
int passesFor(const Workload &w, double seconds);

/** Problem spec JSON (compact) of a registry case, as sent inline. */
const std::string &inlineSpec(const CaseRef &c);

/** Canonical problem_ref of a registry case's inline spec. */
const std::string &inlineRef(const CaseRef &c);

/** One open-loop phase: requests and the jobs behind them. */
struct OpenPlan
{
    std::vector<OpenRequest> requests;
    /** Parallel to requests; default JobSpec (empty id) for probes. */
    std::vector<JobSpec> jobs;
};

/**
 * Open-loop schedule at @p rate over @p seconds: Poisson arrivals,
 * round-robin over @p conns connections, a stats probe every
 * @p statsEveryS seconds, job ids prefixed with @p idPrefix. Inline
 * cases are sent as a full problem spec on every fourth occurrence and
 * for 0.25 s after their first one, and as a problem_ref otherwise. A
 * pure function of its arguments.
 */
OpenPlan openLoopPlan(std::uint64_t seed, double rate, double seconds,
                      int conns, double statsEveryS,
                      const std::string &idPrefix);

/** Every registry case a workload's jobs can name. */
std::vector<CaseRef> workloadCases(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
