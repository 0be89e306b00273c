#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "problems/suite.hpp"
#include "service/json.hpp"
#include "spec/spec.hpp"

namespace perfbench
{

namespace
{

using chocoq::service::Json;

/** One pool entry of a closed-loop workload. */
struct PoolJob
{
    std::string solver;
    CaseRef c;
    std::uint64_t seed;
    /** Sent twice per pass (a repeated (job, seed) pair). */
    bool repeated;
};

// Why these workloads: chocoq-table is where the simulator and the
// compile cache carry a Choco-Q job (the paper's Table II upper
// scales); baseline-table runs the same simulator through the baseline
// kernels with no compile cache, so a Choco-Q-only change should leave
// it unchanged; serve-open is small jobs over the socket, where the
// service, spec and front-end layers dominate and kernel work should
// show no change.
//
// serve-open's fixed rate, 200 requests/s, is an eighth of its
// max_sustained_jobs_per_s (1445-1665/s, medians of ten-run sets on a
// 4-vCPU x86-64 VM). The queue still shows in the tail, and the 3000
// jobs of a 30 s run keep p99, with 10 samples beyond it, in each of
// the three slices the latency readings take their median over. At a
// quarter of capacity (416/s) the latency readings rose two- to
// ninefold whenever the VM's host was contended, against less than 5%
// at an eighth in most such runs; at half (750/s) the tail moved to
// p99.9 and both readings spread past 0.25 even on a quiet host. The
// latency limit, 100 ms, is the classic 0.1 s bound within which a
// response feels instantaneous to a person (Miller 1968; Card,
// Robertson and Mackinlay 1991), about ten times the tail at the fixed
// rate on a quiet host.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"chocoq-table", false, 4, 7.5, 0.0, 0.0, 0.0},
        {"baseline-table", false, 4, 6.5, 0.0, 0.0, 0.0},
        {"serve-open", true, 4, 0.0, 200.0, 100.0, 0.5},
    };
    return all;
}

std::vector<PoolJob>
pool(const Workload &w, bool big)
{
    std::vector<PoolJob> out;
    if (w.name == "chocoq-table") {
        // Two cases per scale; the small scales' pairs repeat, so one
        // pass is 4 big + 8 small jobs and the tail percentile lands
        // inside the big-job block.
        for (const char *s : big ? std::vector<const char *>{"F3", "G4"}
                                 : std::vector<const char *>{"G3", "K3"})
            for (unsigned c = 0; c < 2; ++c)
                out.push_back({"choco-q", {s, c}, 11 + 7 * c, !big});
    } else if (w.name == "baseline-table") {
        for (const char *solver : {"penalty", "cyclic", "hea"})
            for (const char *s : big ? std::vector<const char *>{"F2", "G2"}
                                     : std::vector<const char *>{"G1", "K2"})
                out.push_back({solver, {s, 0}, 13, !big});
    }
    return out;
}

std::string
requestLine(const JobSpec &j)
{
    Json v = Json::object();
    v.set("id", j.id);
    v.set("solver", j.solver);
    switch (j.form) {
    case Form::Registry:
        v.set("scale", j.scale);
        v.set("case", static_cast<double>(j.caseIndex));
        break;
    case Form::Inline:
        v.set("problem", Json::parse(inlineSpec({j.scale, j.caseIndex})));
        break;
    case Form::Ref:
        v.set("problem_ref", inlineRef({j.scale, j.caseIndex}));
        break;
    }
    v.set("seed", static_cast<double>(j.seed));
    return v.dump();
}

// serve-open's pool: cases 0-1 of each small scale go by registry
// name, cases 2-3 inline; job seeds come from a pool of three so
// (job, seed) pairs recur across connections and workers. F1/K1 jobs
// take ~0.5 ms and G1/K2 ~6 ms; drawing the fast ones 70% of the time
// keeps the median inside the fast mode and the tail inside the slow
// one, so neither percentile sits on the boundary between the modes.
const std::vector<const char *> kServeScales = {"F1", "K1", "G1", "K2"};
const std::vector<double> kServeScaleCdf = {0.35, 0.70, 0.85, 1.0};
constexpr unsigned kServeCases = 4;
constexpr unsigned kServeInlineFrom = 2;
constexpr std::uint64_t kServeSeeds = 3;

} // namespace

std::string
JobSpec::key() const
{
    return scale + ":" + std::to_string(caseIndex) + "/" + solver + "/"
           + std::to_string(seed);
}

const Workload *
workloadByName(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const auto &w : workloads())
        out.push_back(w.name);
    return out;
}

int
passesFor(const Workload &w, double seconds)
{
    return std::max(1, static_cast<int>(std::lround(seconds / w.passS)));
}

std::vector<JobSpec>
closedLoopJobs(const Workload &w, std::uint64_t seed, int passes)
{
    Rng rng(seed);
    std::vector<JobSpec> out;
    for (int p = 0; p < passes; ++p) {
        for (const bool big : {true, false}) {
            std::vector<PoolJob> group;
            for (const PoolJob &j : pool(w, big)) {
                group.push_back(j);
                if (j.repeated)
                    group.push_back(j);
            }
            shuffle(group, rng);
            for (const PoolJob &j : group) {
                JobSpec s;
                s.id = w.name + "-" + std::to_string(seed) + "-"
                       + std::to_string(out.size());
                s.solver = j.solver;
                s.scale = j.c.scale;
                s.caseIndex = j.c.caseIndex;
                s.seed = j.seed;
                s.line = requestLine(s);
                out.push_back(std::move(s));
            }
        }
    }
    return out;
}

const std::string &
inlineSpec(const CaseRef &c)
{
    static std::map<CaseRef, std::string> memo;
    auto it = memo.find(c);
    if (it == memo.end()) {
        const auto scale = chocoq::problems::scaleByName(c.scale);
        it = memo.emplace(c, chocoq::spec::problemToSpecJson(
                                 chocoq::problems::makeCase(*scale,
                                                            c.caseIndex))
                                 .dump())
                 .first;
    }
    return it->second;
}

const std::string &
inlineRef(const CaseRef &c)
{
    static std::map<CaseRef, std::string> memo;
    auto it = memo.find(c);
    if (it == memo.end())
        it = memo.emplace(c, chocoq::spec::parseProblemSpec(
                                 Json::parse(inlineSpec(c)))
                                 .hashHex)
                 .first;
    return it->second;
}

OpenPlan
openLoopPlan(std::uint64_t seed, double rate, double seconds, int conns,
             double statsEveryS, const std::string &idPrefix)
{
    const std::vector<double> arrivals =
        poissonArrivals(seed, rate, seconds);
    Rng pick(seed ^ 0x5eedf00dull);
    OpenPlan plan;
    std::map<CaseRef, std::pair<double, unsigned>> inlineSeen;
    double nextStats = statsEveryS;
    std::size_t jobNo = 0;
    int statsNo = 0;
    for (const double t : arrivals) {
        while (nextStats <= t) {
            plan.requests.push_back({nextStats, statsNo++ % conns, "",
                                     R"({"type":"stats"})"});
            plan.jobs.emplace_back();
            nextStats += statsEveryS;
        }
        JobSpec j;
        j.id = idPrefix + std::to_string(jobNo);
        j.solver = "choco-q";
        const double u = pick.uniform();
        std::size_t k = 0;
        while (u >= kServeScaleCdf[k])
            ++k;
        j.scale = kServeScales[k];
        j.caseIndex = static_cast<unsigned>(pick.below(kServeCases));
        j.seed = 1 + pick.below(kServeSeeds);
        if (j.caseIndex >= kServeInlineFrom) {
            auto [it, first] =
                inlineSeen.try_emplace({j.scale, j.caseIndex}, t, 0u);
            const bool resend =
                it->second.second % 4 == 0 || t - it->second.first < 0.25;
            j.form = resend ? Form::Inline : Form::Ref;
            ++it->second.second;
        }
        j.line = requestLine(j);
        plan.requests.push_back(
            {t, static_cast<int>(jobNo % static_cast<std::size_t>(conns)),
             j.id, j.line});
        plan.jobs.push_back(std::move(j));
        ++jobNo;
    }
    return plan;
}

std::vector<CaseRef>
workloadCases(const Workload &w)
{
    std::vector<CaseRef> out;
    if (w.openLoop) {
        for (const char *s : kServeScales)
            for (unsigned c = 0; c < kServeCases; ++c)
                out.push_back({s, c});
        return out;
    }
    for (const bool big : {true, false})
        for (const PoolJob &j : pool(w, big))
            if (std::find(out.begin(), out.end(), j.c) == out.end())
                out.push_back(j.c);
    return out;
}

} // namespace perfbench
