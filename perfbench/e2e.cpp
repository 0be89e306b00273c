/**
 * @file
 * End-to-end benchmark program.
 *
 *   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
 *                 --serve PATH_TO_chocoq_serve --out-dir DIR
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * runs the same jobs twice, untraced, then with "trace":true on a fresh
 * service or server, records the benchmark's own spans around its
 * calls into each layer, and reports the per-layer metrics. Both print
 * the metrics by name with unit and sample count, then, as the last
 * stdout line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}. The process exits 1 when a correctness gate fails.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/chocoq_solver.hpp"
#include "measure.hpp"
#include "model/exact.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "problems/suite.hpp"
#include "service/job.hpp"
#include "service/service.hpp"
#include "spec/spec.hpp"
#include "workloads.hpp"

namespace pb = perfbench;
using chocoq::service::Json;
using pb::Clock;

namespace
{

/** Service constructions / server spawns per run; setup_s is their
 * median. */
constexpr int kSetupReps = 101;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serve;
    std::string outDir = ".";
};

// ---------------------------------------------------------------------
// Results as the program reports them.

struct SpanIn
{
    std::string name;
    double startMs = 0.0;
    double durMs = 0.0;
    std::string note;
};

/** One result line's fields. */
struct Outcome
{
    std::string status = "missing";
    std::string distHash;
    double feasibleMass = 0.0;
    bool topFeasible = false;
    double topObjective = 0.0;
    double queueMs = 0.0;
    double solveMs = 0.0;
    double simS = 0.0;
    double classicalS = 0.0;
    double compileS = 0.0;
    double iterations = 0.0;
    double evaluations = 0.0;
    std::vector<SpanIn> spans;
};

Outcome
outcomeOf(const Json &v)
{
    Outcome o;
    o.status = v.getString("status", "missing");
    o.distHash = v.getString("dist_hash", "");
    o.feasibleMass = v.getNumber("feasible_mass", 0.0);
    o.topFeasible = v.getBool("top_feasible", false);
    o.topObjective = v.getNumber("top_objective", 0.0);
    o.queueMs = v.getNumber("queue_ms", 0.0);
    o.solveMs = v.getNumber("solve_ms", 0.0);
    o.simS = v.getNumber("sim_s", 0.0);
    o.classicalS = v.getNumber("classical_s", 0.0);
    o.compileS = v.getNumber("compile_s", 0.0);
    o.iterations = v.getNumber("iterations", 0.0);
    o.evaluations = v.getNumber("evaluations", 0.0);
    if (const Json *t = v.find("trace"))
        if (const Json *spans = t->find("spans"))
            for (const Json &s : spans->items())
                o.spans.push_back({s.getString("name", ""),
                                   s.getNumber("start_ms", 0.0),
                                   s.getNumber("dur_ms", 0.0),
                                   s.getString("note", "")});
    return o;
}

/** The inverse of resultToJson for the fields a result line carries,
 * so the serializer can be timed on what the server sent. */
chocoq::service::SolveResult
solveResultOf(const Json &v)
{
    chocoq::service::SolveResult r;
    r.id = v.getString("id", "");
    r.status = v.getString("status", "");
    r.error = v.getString("error", "");
    r.problem = v.getString("problem", "");
    r.problemRef = v.getString("problem_ref", "");
    r.solver = v.getString("solver", "");
    r.bestCost = v.getNumber("best_cost", 0.0);
    r.topState = static_cast<chocoq::Basis>(v.getNumber("top_state", 0.0));
    r.topProbability = v.getNumber("top_probability", 0.0);
    r.topFeasible = v.getBool("top_feasible", false);
    r.topObjective = v.getNumber("top_objective", 0.0);
    r.feasibleMass = v.getNumber("feasible_mass", 0.0);
    r.distHash = std::strtoull(v.getString("dist_hash", "0").c_str(),
                               nullptr, 16);
    r.iterations = static_cast<int>(v.getNumber("iterations", 0.0));
    r.evaluations = static_cast<int>(v.getNumber("evaluations", 0.0));
    r.cacheHit = v.getBool("cache_hit", false);
    r.compileSeconds = v.getNumber("compile_s", 0.0);
    r.simSeconds = v.getNumber("sim_s", 0.0);
    r.classicalSeconds = v.getNumber("classical_s", 0.0);
    r.queueMs = v.getNumber("queue_ms", 0.0);
    r.solveMs = v.getNumber("solve_ms", 0.0);
    r.worker = static_cast<int>(v.getNumber("worker", -1.0));
    return r;
}

/** One job as the benchmark's client saw it. */
struct Record
{
    const pb::JobSpec *job = nullptr;
    Outcome out;
    /** Scheduled (open loop) or submit (closed loop) to result line. */
    double latencyMs = 0.0;
    /** Open loop: send lateness. Closed loop: client turnaround since
     * its previous result. */
    double lateMs = 0.0;
    /** Actual send (or submit) to result line. */
    double roundTripMs = 0.0;
    int responses = 0;
    double parseUs = 0.0;
    double serializeUs = 0.0;
    /** Closed loop, on the recorder's clock: submit and parse end,
     * serialize start and end, result in hand. */
    Clock::time_point t0, tParsed, tSer0, tSer1, tEnd;
};

// ---------------------------------------------------------------------
// Per-kernel mix, parsed from a traced job's "kernels" span note
// ("name=calls:amps ... bytes=B flops=F").

struct KernelMix
{
    std::map<std::string, std::pair<double, double>> perKernel;
    double bytes = 0.0;
    double flops = 0.0;
    double maxAmpsPerCall = 0.0;

    void add(const std::string &note)
    {
        std::istringstream in(note);
        std::string tok;
        while (in >> tok) {
            const auto eq = tok.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string name = tok.substr(0, eq);
            const std::string val = tok.substr(eq + 1);
            const auto colon = val.find(':');
            if (colon == std::string::npos) {
                if (name == "bytes")
                    bytes += std::strtod(val.c_str(), nullptr);
                else if (name == "flops")
                    flops += std::strtod(val.c_str(), nullptr);
                continue;
            }
            const double calls = std::strtod(val.c_str(), nullptr);
            const double amps =
                std::strtod(val.c_str() + colon + 1, nullptr);
            perKernel[name].first += calls;
            perKernel[name].second += amps;
            if (calls > 0)
                maxAmpsPerCall = std::max(maxAmpsPerCall, amps / calls);
        }
    }

    double amps() const
    {
        double a = 0.0;
        for (const auto &[k, v] : perKernel)
            a += v.second;
        return a;
    }
};

const std::string *
kernelNote(const Outcome &o)
{
    for (const SpanIn &s : o.spans)
        if (s.name == "kernels")
            return &s.note;
    return nullptr;
}

// ---------------------------------------------------------------------
// Metrics output.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string detail;
};

class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &detail = "")
    {
        metrics_.push_back({name, value, unit, detail});
    }

    void fail(const std::string &why)
    {
        correct_ = false;
        std::cout << "GATE FAILED: " << why << "\n";
    }

    bool correct() const { return correct_; }

    void print(long attempted, long failed) const
    {
        for (const Metric &m : metrics_) {
            std::cout << "  " << m.name << " = " << m.value << " " << m.unit;
            if (!m.detail.empty())
                std::cout << "  (" << m.detail << ")";
            std::cout << "\n";
        }
        Json metrics = Json::object();
        for (const Metric &m : metrics_) {
            Json v = Json::object();
            v.set("value", m.value);
            v.set("unit", m.unit);
            metrics.set(m.name, std::move(v));
        }
        Json out = Json::object();
        out.set("correct", correct_);
        out.set("attempted", static_cast<double>(attempted));
        out.set("failed", static_cast<double>(failed));
        out.set("metrics", std::move(metrics));
        std::cout << out.dump() << std::endl;
    }

  private:
    std::vector<Metric> metrics_;
    bool correct_ = true;
};

std::string
samplesNote(std::size_t n)
{
    return "n=" + std::to_string(n);
}

void
addTail(Report &rep, const std::string &name, const std::vector<double> &v)
{
    const pb::Tail t = pb::tailOf(v);
    std::ostringstream d;
    d << "p" << t.percentile << ", n=" << t.samples << ", " << t.beyond
      << " beyond";
    rep.add(name, t.value, "ms", d.str());
}

/** Latency p50 and tail as medians over @p parts consecutive equal
 * slices of @p v, so a host stall lands in one slice, not in the
 * reading. */
void
addSlicedLatency(Report &rep, const std::vector<double> &v,
                 std::size_t parts)
{
    const std::size_t n = v.size() / parts;
    std::vector<double> p50s, tails;
    pb::Tail t;
    for (std::size_t k = 0; k < parts; ++k) {
        const std::vector<double> slice(v.begin() + k * n,
                                        v.begin() + (k + 1) * n);
        p50s.push_back(pb::median(slice));
        t = pb::tailOf(slice);
        tails.push_back(t.value);
    }
    const std::string each = ", n=" + std::to_string(n) + " each";
    rep.add("latency_p50_ms", pb::median(p50s), "ms",
            "median over " + std::to_string(parts)
                + " slices, from scheduled send" + each);
    std::ostringstream d;
    d << "median over " << parts << " slices of p" << t.percentile << each
      << ", " << t.beyond << " beyond";
    rep.add("latency_tail_ms", pb::median(tails), "ms", d.str());
}

// ---------------------------------------------------------------------
// Correctness gates and quality rates shared by every workload.

struct Quality
{
    long attempted = 0;
    long failed = 0;
    double okRate = 0.0;
    double inConstraints = 0.0;
    double topFeasible = 0.0;
    double topOptimal = 0.0;
};

class Oracle
{
  public:
    /** Exact optimum (problem sense) of every case the workload names,
     * computed by the benchmark from problems::makeCase. */
    explicit Oracle(const pb::Workload &w)
    {
        for (const pb::CaseRef &c : pb::workloadCases(w)) {
            const auto p = chocoq::problems::makeCase(
                *chocoq::problems::scaleByName(c.scale), c.caseIndex);
            optimum_[c] = chocoq::model::solveExact(p).optimumRaw;
        }
    }

    Quality judge(const std::vector<Record> &recs, Report &rep)
    {
        Quality q;
        double mass = 0.0;
        long feasible = 0;
        long optimal = 0;
        long ok = 0;
        for (const Record &r : recs) {
            ++q.attempted;
            if (r.out.status != "ok") {
                ++q.failed;
                continue;
            }
            ++ok;
            mass += r.out.feasibleMass;
            feasible += r.out.topFeasible;
            const double opt =
                optimum_.at({r.job->scale, r.job->caseIndex});
            if (r.out.topFeasible
                && std::fabs(r.out.topObjective - opt)
                       <= 1e-9 * std::max(1.0, std::fabs(opt)))
                ++optimal;
            if (r.job->solver == "choco-q"
                && std::fabs(r.out.feasibleMass - 1.0) > 1e-9)
                rep.fail("choco-q job " + r.job->id + " feasible_mass "
                         + std::to_string(r.out.feasibleMass) + " != 1");
        }
        checkRepeats(recs, rep);
        const double n = std::max<double>(1.0, static_cast<double>(q.attempted));
        q.okRate = static_cast<double>(ok) / n;
        q.inConstraints = mass / n;
        q.topFeasible = static_cast<double>(feasible) / n;
        q.topOptimal = static_cast<double>(optimal) / n;
        return q;
    }

    /** Every (case, solver, seed) key hashes to one dist_hash, across
     * workers, connections, passes, wire forms and trace modes. */
    void checkRepeats(const std::vector<Record> &recs, Report &rep)
    {
        for (const Record &r : recs) {
            if (r.out.status != "ok")
                continue;
            const auto [it, fresh] =
                hashes_.try_emplace(r.job->key(), r.out.distHash);
            if (!fresh && it->second != r.out.distHash)
                rep.fail("dist_hash differs for repeated job "
                         + r.job->key() + ": " + it->second + " vs "
                         + r.out.distHash + " (" + r.job->id + ")");
        }
    }

    std::size_t distinctKeys() const { return hashes_.size(); }

  private:
    std::map<pb::CaseRef, double> optimum_;
    std::map<std::string, std::string> hashes_;
};

void
addQuality(Report &rep, const Quality &q)
{
    const std::string n = samplesNote(static_cast<std::size_t>(q.attempted));
    rep.add("ok_rate", q.okRate, "ratio", n);
    rep.add("in_constraints_rate", q.inConstraints, "ratio", n);
    rep.add("top_feasible_rate", q.topFeasible, "ratio", n);
    // Printed, not reported: the baselines never put the optimum on
    // top at the baseline-table scales, so the rate would read 0 there.
    std::cout << "  (top_optimal_rate = " << q.topOptimal << " ratio, " << n
              << ")\n";
}

/** One line per job (the request's key, what came back, and the
 * client-side times), written next to the spans for inspection. */
void
writeRecords(const Args &a, const std::vector<Record> &recs, Report &rep)
{
    const std::string path = a.outDir + "/jobs-" + a.workload + "-"
                             + std::to_string(a.seed) + "-trace"
                             + (a.trace ? "1" : "0") + ".jsonl";
    std::ofstream out(path);
    for (const Record &r : recs) {
        Json j = Json::object();
        j.set("id", r.job->id);
        j.set("job", r.job->key());
        j.set("status", r.out.status);
        j.set("dist_hash", r.out.distHash);
        j.set("latency_ms", r.latencyMs);
        j.set("late_ms", r.lateMs);
        j.set("queue_ms", r.out.queueMs);
        j.set("solve_ms", r.out.solveMs);
        out << j.dump() << '\n';
    }
    if (!out)
        rep.fail("cannot write " + path);
}

double
peakRssMbSelf()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
tracedLine(const std::string &line)
{
    return line.substr(0, line.size() - 1) + R"(,"trace":true})";
}

// ---------------------------------------------------------------------
// Per-structure layer probes: direct, timed calls into problems, spec
// and core for every case the workload names.

struct Probes
{
    std::vector<double> makeCaseMs;
    std::vector<double> specUs;
    std::vector<double> compileMs;
};

Probes
probeLayers(const pb::Workload &w, pb::SpanRecorder &spans)
{
    Probes pr;
    const chocoq::core::ChocoQSolver solver;
    for (const pb::CaseRef &c : pb::workloadCases(w)) {
        const std::string job = "probe:" + c.scale + ":"
                                + std::to_string(c.caseIndex);
        const auto scale = *chocoq::problems::scaleByName(c.scale);
        auto t0 = Clock::now();
        const chocoq::model::Problem p =
            chocoq::problems::makeCase(scale, c.caseIndex);
        auto t1 = Clock::now();
        spans.add({"problems.makeCase", job, -1, spans.at(t0), spans.at(t1),
                   ""});
        pr.makeCaseMs.push_back(pb::msBetween(t0, t1));

        const Json spec = Json::parse(pb::inlineSpec(c));
        t0 = Clock::now();
        const auto parsed = chocoq::spec::parseProblemSpec(spec);
        t1 = Clock::now();
        spans.add({"spec.parseProblemSpec", job, -1, spans.at(t0),
                   spans.at(t1), parsed.hashHex});
        pr.specUs.push_back(pb::msBetween(t0, t1) * 1e3);

        t0 = Clock::now();
        const auto art = solver.compile(p);
        t1 = Clock::now();
        spans.add({"core.ChocoQSolver::compile", job, -1, spans.at(t0),
                   spans.at(t1),
                   "subs=" + std::to_string(art->subs.size())});
        pr.compileMs.push_back(pb::msBetween(t0, t1));
    }
    return pr;
}

// ---------------------------------------------------------------------
// In-process closed loop.

chocoq::service::ServiceOptions
serviceOptions(const pb::Workload &w)
{
    chocoq::service::ServiceOptions o;
    o.workers = w.workers;
    return o;
}

/** Construct the service kSetupReps times; returns the median seconds
 * and keeps the last instance. */
double
setupService(const pb::Workload &w,
             std::unique_ptr<chocoq::service::SolveService> &svc)
{
    std::vector<double> s;
    for (int i = 0; i < kSetupReps; ++i) {
        svc.reset();
        const auto t0 = Clock::now();
        svc = std::make_unique<chocoq::service::SolveService>(
            serviceOptions(w));
        s.push_back(pb::secondsSince(t0));
    }
    return pb::median(s);
}

struct ClosedRun
{
    std::vector<Record> recs;
    double wallS = 0.0;
};

/** @p clients threads each submit the next job line once their
 * previous result line is back. */
ClosedRun
runClosed(chocoq::service::SolveService &svc,
          const std::vector<pb::JobSpec> &jobs, int clients, bool traced)
{
    ClosedRun run;
    run.recs.resize(jobs.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    const auto client = [&] {
        Clock::time_point prevEnd = Clock::now();
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            Record &r = run.recs[i];
            r.job = &jobs[i];
            const std::string line =
                traced ? tracedLine(jobs[i].line) : jobs[i].line;
            r.t0 = Clock::now();
            r.lateMs = pb::msBetween(prevEnd, r.t0);
            chocoq::service::SolveJob job;
            try {
                job = chocoq::service::jobFromJsonLine(line);
            } catch (const std::exception &) {
                r.out.status = "parse_error";
                prevEnd = Clock::now();
                continue;
            }
            r.tParsed = Clock::now();
            struct Line
            {
                Json json;
                std::string text;
                Clock::time_point s0, s1;
            };
            auto done = std::make_shared<std::promise<Line>>();
            std::future<Line> fut = done->get_future();
            svc.submit(std::move(job),
                       [done](const chocoq::service::SolveResult &res) {
                           Line l;
                           l.s0 = Clock::now();
                           l.json = chocoq::service::resultToJson(res);
                           l.text = l.json.dump();
                           l.s1 = Clock::now();
                           done->set_value(std::move(l));
                       });
            Line l = fut.get();
            r.tEnd = Clock::now();
            r.tSer0 = l.s0;
            r.tSer1 = l.s1;
            r.responses = 1;
            r.out = outcomeOf(l.json);
            r.latencyMs = pb::msBetween(r.t0, r.tEnd);
            r.roundTripMs = r.latencyMs;
            r.parseUs = pb::msBetween(r.t0, r.tParsed) * 1e3;
            r.serializeUs = pb::msBetween(l.s0, l.s1) * 1e3;
            prevEnd = r.tEnd;
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back(client);
    for (auto &t : threads)
        t.join();
    run.wallS = pb::secondsSince(start);
    return run;
}

double
jobsPerSecond(const ClosedRun &run)
{
    long ok = 0;
    for (const Record &r : run.recs)
        ok += r.out.status == "ok";
    return static_cast<double>(ok) / run.wallS;
}

/** Latencies of the answered jobs; unanswered ones are failures and
 * count in ok_rate instead. */
std::vector<double>
latencies(const std::vector<Record> &recs)
{
    std::vector<double> v;
    for (const Record &r : recs)
        if (r.responses > 0)
            v.push_back(r.latencyMs);
    return v;
}

/** Span names of the service's per-job timeline and the layer each
 * belongs to ("kernels" and "respond" are zero-width annotations;
 * "optimize" and "parse" nest inside spans listed here or are timed
 * by the benchmark itself). */
const std::map<std::string, std::string> &
serviceSpanLayers()
{
    static const std::map<std::string, std::string> m = {
        {"queue", "service.queue"},
        {"resolve", "problems.resolve"},
        {"compile", "core.compile"},
        {"solve", "core.solve"},
    };
    return m;
}

/**
 * Record one job's spans: the root around the whole round trip, the
 * benchmark-timed parse and serialize, and the service's own stages
 * placed from the job's submit instant, with the sim/classical split
 * attached to the solve span. Returns the root's unattributed ms: its
 * duration minus what the child spans cover.
 */
double
recordJobSpans(pb::SpanRecorder &spans, const Record &r)
{
    const std::string &id = r.job->id;
    const long root = spans.add({"job", id, -1, spans.at(r.t0),
                                 spans.at(r.tEnd),
                                 r.job->solver + " " + r.job->key()});
    double covered = 0.0;
    spans.add({"service.jobFromJsonLine", id, root, spans.at(r.t0),
               spans.at(r.tParsed), ""});
    covered += pb::msBetween(r.t0, r.tParsed);
    const double origin = spans.at(r.tParsed);
    for (const SpanIn &s : r.out.spans) {
        const auto layer = serviceSpanLayers().find(s.name);
        if (layer == serviceSpanLayers().end())
            continue;
        std::string note = s.note;
        if (s.name == "solve") {
            std::ostringstream n;
            n << "sim_s=" << r.out.simS << " classical_s=" << r.out.classicalS
              << " compile_s=" << r.out.compileS;
            note += (note.empty() ? "" : " ") + n.str();
        }
        const long parent = spans.add({layer->second, id, root,
                                       origin + s.startMs,
                                       origin + s.startMs + s.durMs, note});
        if (s.name == "solve") {
            spans.add({"sim", id, parent, origin + s.startMs,
                       origin + s.startMs + r.out.simS * 1e3, ""});
            spans.add({"optimize", id, parent, origin + s.startMs,
                       origin + s.startMs + r.out.classicalS * 1e3, ""});
        }
        covered += s.durMs;
    }
    spans.add({"service.resultToJson", id, root, spans.at(r.tSer0),
               spans.at(r.tSer1), ""});
    covered += pb::msBetween(r.tSer0, r.tSer1);
    return std::max(0.0, pb::msBetween(r.t0, r.tEnd) - covered);
}

/** Layer metrics read from traced job records (both loop kinds). */
void
addJobLayerMetrics(Report &rep, const std::vector<Record> &recs)
{
    KernelMix mix;
    std::map<std::string, std::pair<double, double>> perSolver;
    double sim = 0.0, classical = 0.0, engineCompile = 0.0;
    double iters = 0.0, evals = 0.0;
    long n = 0;
    for (const Record &r : recs) {
        if (r.out.status != "ok")
            continue;
        ++n;
        sim += r.out.simS;
        classical += r.out.classicalS;
        engineCompile += r.out.compileS;
        iters += r.out.iterations;
        evals += r.out.evaluations;
        if (const std::string *note = kernelNote(r.out)) {
            KernelMix one;
            one.add(*note);
            mix.add(*note);
            perSolver[r.job->solver].second += one.amps();
        }
        perSolver[r.job->solver].first += r.out.simS;
    }
    const std::string ns = samplesNote(static_cast<std::size_t>(n));
    for (std::size_t k = 0; k < chocoq::obs::kKernelCount; ++k) {
        const std::string name =
            chocoq::obs::kernelName(static_cast<chocoq::obs::KernelId>(k));
        const auto it = mix.perKernel.find(name);
        const double calls = it == mix.perKernel.end() ? 0 : it->second.first;
        const double amps = it == mix.perKernel.end() ? 0 : it->second.second;
        rep.add("sim." + name + ".calls", calls, "count", ns);
        rep.add("sim." + name + ".amps", amps, "count", ns);
    }
    const double amps = mix.amps();
    rep.add("sim.bytes_computed", mix.bytes, "B", ns);
    rep.add("sim.flops_computed", mix.flops, "flop", ns);
    rep.add("sim.ns_per_amp", amps > 0 ? sim * 1e9 / amps : 0.0, "ns", ns);
    rep.add("sim.gbps_computed", sim > 0 ? mix.bytes / sim / 1e9 : 0.0,
            "GB/s", ns);
    rep.add("sim.state_bytes_max", mix.maxAmpsPerCall * 16.0, "B", ns);
    const double dn = std::max<double>(1.0, static_cast<double>(n));
    rep.add("core.sim_s", sim / dn, "s", "mean per job, " + ns);
    rep.add("core.classical_s", classical / dn, "s", "mean per job, " + ns);
    rep.add("core.engine_compile_s", engineCompile / dn, "s",
            "mean per job, " + ns);
    for (const char *s : {"penalty", "cyclic", "hea"}) {
        rep.add(std::string("solvers.") + s + ".sim_s", perSolver[s].first,
                "s", "sum over jobs");
        rep.add(std::string("solvers.") + s + ".amps", perSolver[s].second,
                "count", "sum over jobs");
    }
    rep.add("optimize.iterations", iters, "count", ns);
    rep.add("optimize.evaluations", evals, "count", ns);
    rep.add("optimize.evals_per_iteration", iters > 0 ? evals / iters : 0.0,
            "ratio", ns);
}

void
addServiceLayerMetrics(Report &rep, const std::vector<Record> &traced,
                       double parseUs,
                       double serializeUs, double cacheHitRate,
                       double cacheMissCompileMs, double firstByteMsAvg)
{
    std::vector<double> queue, solve, frontend;
    for (const Record &r : traced) {
        if (r.out.status != "ok")
            continue;
        queue.push_back(r.out.queueMs);
        solve.push_back(r.out.solveMs);
        frontend.push_back(r.roundTripMs - r.out.queueMs - r.out.solveMs);
    }
    rep.add("service.parse_us", parseUs, "us", "median");
    rep.add("service.serialize_us", serializeUs, "us", "median");
    rep.add("service.queue_ms_p50", pb::median(queue), "ms",
            samplesNote(queue.size()));
    addTail(rep, "service.queue_ms_tail", queue);
    rep.add("service.cache_hit_rate", cacheHitRate, "ratio");
    rep.add("service.cache_miss_compile_ms", cacheMissCompileMs, "ms",
            "mean per miss");
    rep.add("service.solve_ms_p50", pb::median(solve), "ms",
            samplesNote(solve.size()));
    rep.add("service.frontend_ms_p50", pb::median(frontend), "ms",
            samplesNote(frontend.size()));
    rep.add("service.first_byte_ms_avg", firstByteMsAvg, "ms");
}

void
addProbeMetrics(Report &rep, const Probes &pr)
{
    rep.add("core.compile_ms", pb::median(pr.compileMs), "ms",
            "median over " + std::to_string(pr.compileMs.size())
                + " structures");
    rep.add("problems.make_case_ms", pb::median(pr.makeCaseMs), "ms",
            "median over " + std::to_string(pr.makeCaseMs.size()) + " cases");
    rep.add("spec.parse_canonicalize_us", pb::median(pr.specUs), "us",
            "median over " + std::to_string(pr.specUs.size()) + " specs");
}

double
histAvg(const Json &stats, const std::string &name)
{
    const Json *h = stats.find("histograms");
    h = h ? h->find(name) : nullptr;
    return h ? h->getNumber("avg_ms", 0.0) : 0.0;
}

int
runClosedWorkload(const pb::Workload &w, const Args &a)
{
    Report rep;
    Oracle oracle(w);
    std::unique_ptr<chocoq::service::SolveService> svc;
    const double setupS = setupService(w, svc);

    if (!a.trace) {
        const std::vector<pb::JobSpec> jobs =
            pb::closedLoopJobs(w, a.seed, pb::passesFor(w, a.seconds));
        const ClosedRun run = runClosed(*svc, jobs, w.workers, false);
        const Quality q = oracle.judge(run.recs, rep);
        const std::vector<double> lat = latencies(run.recs);
        const double jps = jobsPerSecond(run);
        rep.add("setup_s", setupS, "s",
                "median of " + std::to_string(kSetupReps)
                    + " service constructions");
        rep.add("jobs_per_s", jps, "1/s",
                samplesNote(run.recs.size()) + " over "
                    + std::to_string(run.wallS) + " s");
        rep.add("latency_p50_ms", pb::median(lat), "ms",
                samplesNote(lat.size()));
        addTail(rep, "latency_tail_ms", lat);
        addQuality(rep, q);
        rep.add("peak_rss_mb", peakRssMbSelf(), "MB", "benchmark process");
        rep.add("max_sustained_jobs_per_s", jps, "1/s",
                "closed loop at full concurrency: equals jobs_per_s");
        writeRecords(a, run.recs, rep);
        rep.print(q.attempted, q.failed);
        return rep.correct() ? 0 : 1;
    }

    pb::SpanRecorder spans(Clock::now());
    const Probes probes = probeLayers(w, spans);
    const std::vector<pb::JobSpec> jobs = pb::closedLoopJobs(w, a.seed, 1);
    const ClosedRun plain = runClosed(*svc, jobs, w.workers, false);
    svc = std::make_unique<chocoq::service::SolveService>(serviceOptions(w));
    const ClosedRun traced = runClosed(*svc, jobs, w.workers, true);

    Quality q = oracle.judge(plain.recs, rep);
    const Quality qt = oracle.judge(traced.recs, rep);
    q.attempted += qt.attempted;
    q.failed += qt.failed;

    double unattributed = 0.0, wall = 0.0;
    std::vector<double> parseUs, serUs;
    for (const Record &r : traced.recs) {
        if (r.out.status != "ok")
            continue;
        unattributed += recordJobSpans(spans, r);
        wall += r.latencyMs;
    }
    for (const Record &r : plain.recs) {
        parseUs.push_back(r.parseUs);
        serUs.push_back(r.serializeUs);
    }
    const auto cs = svc->cacheStats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    const Json stats = svc->metricsToJson();

    addJobLayerMetrics(rep, traced.recs);
    rep.add("core.unattributed_frac", wall > 0 ? unattributed / wall : 0.0,
            "ratio", samplesNote(traced.recs.size()) + " traced jobs");
    addProbeMetrics(rep, probes);
    addServiceLayerMetrics(rep, traced.recs, pb::median(parseUs),
                           pb::median(serUs),
                           lookups > 0 ? cs.hits / lookups : 0.0,
                           histAvg(stats, "cache.compile_ms"), 0.0);
    rep.add("spec.ref_hit_rate", 0.0, "ratio", "no problem_ref jobs");
    const double plainJps = jobsPerSecond(plain);
    rep.add("obs.trace_overhead_frac",
            plainJps > 0 ? 1.0 - jobsPerSecond(traced) / plainJps : 0.0,
            "ratio", "1 - traced/untraced jobs_per_s");
    std::vector<double> turnaround;
    for (const Record &r : plain.recs)
        turnaround.push_back(r.lateMs);
    addTail(rep, "bench.late_ms_tail", turnaround);

    const std::string path = a.outDir + "/spans-" + w.name + "-"
                             + std::to_string(a.seed) + ".jsonl";
    if (!spans.writeJsonl(path))
        rep.fail("cannot write " + path);
    std::cout << "spans: " << path << " (" << spans.spans().size()
              << " spans)\n";
    rep.print(q.attempted, q.failed);
    return rep.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Open loop against a chocoq_serve child.

/** A chocoq_serve --listen child; stopped and reaped on destruction. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &serve, const std::string &dir, int workers,
                  int n)
    {
        const std::string portFile =
            dir + "/port-" + std::to_string(::getpid()) + "-"
            + std::to_string(n) + ".txt";
        ::unlink(portFile.c_str());
        const std::string log = dir + "/serve.log";
        const std::string w = std::to_string(workers);
        const auto t0 = Clock::now();
        pid_ = ::fork();
        if (pid_ == 0) {
            // The server must not outlive the benchmark, however it ends.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                  0644);
            const int null = ::open("/dev/null", O_WRONLY);
            if (fd >= 0)
                ::dup2(fd, 2);
            if (null >= 0)
                ::dup2(null, 1);
            ::execl(serve.c_str(), serve.c_str(), "--listen", "0",
                    "--port-file", portFile.c_str(), "--workers", w.c_str(),
                    "--quiet", static_cast<char *>(nullptr));
            ::_exit(127);
        }
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        for (;;) {
            std::ifstream in(portFile);
            if (in >> port_ && port_ > 0)
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("chocoq_serve exited before "
                                         "listening (see "
                                         + log + ")");
            }
            if (pb::secondsSince(t0) > 30.0)
                throw std::runtime_error("chocoq_serve did not listen "
                                         "within 30 s");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        setupS_ = pb::secondsSince(t0);
        ::unlink(portFile.c_str());
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    ~ServerProcess() { stop(); }

    int port() const { return port_; }
    double setupS() const { return setupS_; }

    /** VmHWM of the child, MB. */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (in >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                in >> kb;
                return kb / 1024.0;
            }
            in.ignore(1 << 20, '\n');
        }
        return 0.0;
    }

    void stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (pb::secondsSince(t0) > 20.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    int port_ = 0;
    double setupS_ = 0.0;
};

Json
statsProbe(int port)
{
    const std::vector<pb::OpenRequest> req = {
        {0.0, 0, "", R"({"type":"stats"})"}};
    const auto out = pb::runOpenLoop(port, 1, req, Clock::now(), 10.0);
    return out[0].responses > 0 ? Json::parse(out[0].response) : Json();
}

double
counter(const Json &stats, const std::string &name)
{
    const Json *c = stats.find("counters");
    c = c ? c->find(name) : nullptr;
    return c ? c->asNumber(0.0) : 0.0;
}

double
section(const Json &stats, const std::string &sec, const std::string &key)
{
    const Json *s = stats.find(sec);
    return s ? s->getNumber(key, 0.0) : 0.0;
}

struct OpenPhase
{
    pb::OpenPlan plan;
    std::vector<pb::OpenRequest> requests;
    std::vector<Record> recs;
    std::vector<pb::OpenOutcome> raw;
    double wallS = 0.0;
};

/** Send one phase and collect its records; responses that are missing
 * or duplicated fail the gate. */
OpenPhase
runPhase(int port, const pb::Workload &w, std::uint64_t seed, double rate,
         double seconds, const std::string &prefix, bool traced, Report &rep)
{
    OpenPhase ph;
    ph.plan = pb::openLoopPlan(seed, rate, seconds, w.workers, 0.5, prefix);
    ph.requests = ph.plan.requests;
    if (traced)
        for (pb::OpenRequest &r : ph.requests)
            if (!r.id.empty())
                r.line = tracedLine(r.line);
    // Connect before the first due time so set-up is not charged to it.
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    ph.raw = pb::runOpenLoop(port, w.workers, ph.requests, start, 10.0);
    ph.wallS = pb::secondsSince(start);
    for (std::size_t i = 0; i < ph.requests.size(); ++i) {
        const pb::OpenOutcome &o = ph.raw[i];
        if (o.responses != 1)
            rep.fail("request " + std::to_string(i) + " of phase " + prefix
                     + " got " + std::to_string(o.responses)
                     + " responses");
        if (ph.requests[i].id.empty())
            continue;
        Record r;
        r.job = &ph.plan.jobs[i];
        r.responses = o.responses;
        r.lateMs = o.lateMs;
        r.latencyMs = o.latencyMs;
        r.roundTripMs = o.latencyMs - o.lateMs;
        if (o.responses > 0)
            r.out = outcomeOf(Json::parse(o.response));
        ph.recs.push_back(std::move(r));
    }
    return ph;
}

/** Sustained: every job ok, tail under the limit, and no backlog
 * growth (the last quarter's median latency within twice the first
 * quarter's, plus 1 ms). */
bool
sustained(const OpenPhase &ph, const pb::Workload &w)
{
    std::vector<double> lat;
    for (const Record &r : ph.recs) {
        if (r.out.status != "ok")
            return false;
        lat.push_back(r.latencyMs);
    }
    if (lat.size() < 8)
        return false;
    const std::size_t q = lat.size() / 4;
    const std::vector<double> first(lat.begin(), lat.begin() + q);
    const std::vector<double> last(lat.end() - q, lat.end());
    return pb::tailOf(lat).value <= w.latencyLimitMs
           && pb::median(last) <= 2.0 * pb::median(first) + 1.0;
}

/** The highest sustained rate: double the rate from the fixed one
 * until a phase fails, then bisect geometrically between the last rate
 * that held and the first that failed; five steps resolve it to 2.2%.
 * A failed phase is run once more before its rate counts as
 * unsustained, so one host stall cannot halve the answer. A search
 * that never fails has found no ceiling, and fails the run rather than
 * report a clipped rate. */
double
maxSustainedRate(int port, const pb::Workload &w, std::uint64_t seed,
                 double budgetS, Report &rep)
{
    constexpr int kBisect = 5;
    constexpr int kMaxDoublings = 10;
    // About two doublings, the bisection, and a retry for every other
    // phase.
    const double phaseS = std::max(0.5, budgetS / 12 - 0.1);
    std::uint64_t phase = 0;
    const auto holds = [&](double rate) {
        const OpenPhase ph = runPhase(port, w, seed * 1000 + phase,
                                      rate, phaseS,
                                      "s" + std::to_string(phase) + "-",
                                      false, rep);
        ++phase;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return sustained(ph, w);
    };
    double lo = w.rate, hi = 2.0 * w.rate;
    for (int k = 0; holds(hi) || holds(hi); ++k) {
        if (k == kMaxDoublings) {
            rep.fail("offered rate " + std::to_string(hi)
                     + "/s still sustained; no ceiling found");
            return hi;
        }
        lo = hi;
        hi *= 2.0;
    }
    for (int k = 0; k < kBisect; ++k) {
        const double mid = std::sqrt(lo * hi);
        (holds(mid) || holds(mid) ? lo : hi) = mid;
    }
    return lo;
}

/** submitted == completed == ok + error + cancelled + expired. */
void
checkCounters(const Json &stats, Report &rep)
{
    const double submitted = counter(stats, "jobs.submitted");
    const double completed = counter(stats, "jobs.completed");
    const double sum = counter(stats, "jobs.ok") + counter(stats, "jobs.error")
                       + counter(stats, "jobs.cancelled")
                       + counter(stats, "jobs.expired");
    if (stats.isNull() || submitted != completed || completed != sum)
        rep.fail("stats counters do not reconcile: submitted "
                 + std::to_string(submitted) + ", completed "
                 + std::to_string(completed) + ", outcomes "
                 + std::to_string(sum));
}

double
okPerSecond(const OpenPhase &ph)
{
    long ok = 0;
    for (const Record &r : ph.recs)
        ok += r.out.status == "ok";
    return static_cast<double>(ok) / ph.wallS;
}

int
runOpenWorkload(const pb::Workload &w, const Args &a)
{
    Report rep;
    Oracle oracle(w);

    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    for (int i = 0; i < kSetupReps; ++i) {
        server.reset();
        server = std::make_unique<ServerProcess>(a.serve, a.outDir, w.workers,
                                                 i);
        setups.push_back(server->setupS());
    }
    const int port = server->port();

    if (!a.trace) {
        const double fixedS = a.seconds * w.fixedShare;
        OpenPhase fixed =
            runPhase(port, w, a.seed, w.rate, fixedS, "f-", false, rep);
        const double rssMb = server->peakRssMb();
        const Quality q = oracle.judge(fixed.recs, rep);
        const double maxRate = maxSustainedRate(
            port, w, a.seed, a.seconds - fixedS, rep);
        checkCounters(statsProbe(port), rep);
        server->stop();

        const std::vector<double> lat = latencies(fixed.recs);
        rep.add("setup_s", pb::median(setups), "s",
                "median of " + std::to_string(kSetupReps)
                    + " server spawns to port file");
        rep.add("jobs_per_s", okPerSecond(fixed), "1/s",
                samplesNote(fixed.recs.size()) + " at "
                    + std::to_string(w.rate) + "/s offered, "
                    + std::to_string(w.workers) + " connections");
        addSlicedLatency(rep, lat, 3);
        addQuality(rep, q);
        rep.add("peak_rss_mb", rssMb, "MB", "chocoq_serve VmHWM");
        rep.add("max_sustained_jobs_per_s", maxRate, "1/s",
                "tail <= " + std::to_string(w.latencyLimitMs) + " ms");
        writeRecords(a, fixed.recs, rep);
        rep.print(q.attempted, q.failed);
        return rep.correct() ? 0 : 1;
    }

    pb::SpanRecorder spans(Clock::now());
    const Probes probes = probeLayers(w, spans);
    const double phaseS = a.seconds * 0.45;
    OpenPhase plain =
        runPhase(port, w, a.seed, w.rate, phaseS, "u-", false, rep);
    checkCounters(statsProbe(port), rep);
    // The traced phase gets a fresh server, so both phases start from
    // the same cold compile cache and problem registry.
    server = std::make_unique<ServerProcess>(a.serve, a.outDir, w.workers,
                                             kSetupReps);
    const int tracedPort = server->port();
    const auto tracedStart = Clock::now();
    OpenPhase traced =
        runPhase(tracedPort, w, a.seed, w.rate, phaseS, "t-", true, rep);
    const Json after = statsProbe(tracedPort);
    checkCounters(after, rep);
    server->stop();

    Quality q = oracle.judge(plain.recs, rep);
    const Quality qt = oracle.judge(traced.recs, rep);
    q.attempted += qt.attempted;
    q.failed += qt.failed;

    // Spans: the client's round trip from the actual send, with the
    // server's own stages placed backwards from the response.
    std::vector<double> solvePlain, solveTraced, parseUs, serUs;
    for (std::size_t i = 0; i < traced.requests.size(); ++i) {
        const pb::OpenRequest &req = traced.requests[i];
        const pb::OpenOutcome &o = traced.raw[i];
        if (req.id.empty() || o.responses == 0)
            continue;
        const double sent = spans.at(tracedStart) + req.atS * 1e3 + o.lateMs;
        const double end = spans.at(tracedStart) + req.atS * 1e3 + o.latencyMs;
        const Outcome out = outcomeOf(Json::parse(o.response));
        const long root = spans.add({"job", req.id, -1, sent, end,
                                     "round trip over the socket"});
        for (const SpanIn &s : out.spans)
            if (s.name != "kernels" && s.name != "respond")
                spans.add({"server." + s.name, req.id, root, sent + s.startMs,
                           sent + s.startMs + s.durMs, s.note});
    }
    for (const Record &r : plain.recs)
        solvePlain.push_back(r.out.solveMs);
    for (const Record &r : traced.recs)
        solveTraced.push_back(r.out.solveMs);
    // The server parses and serializes these same lines; replay both
    // calls here on the untraced phase's lines and result lines.
    for (std::size_t i = 0; i < plain.requests.size(); ++i) {
        if (plain.requests[i].id.empty() || plain.raw[i].responses == 0)
            continue;
        auto t0 = Clock::now();
        chocoq::service::jobFromJsonLine(plain.requests[i].line);
        auto t1 = Clock::now();
        parseUs.push_back(pb::msBetween(t0, t1) * 1e3);
        const auto res = solveResultOf(Json::parse(plain.raw[i].response));
        t0 = Clock::now();
        chocoq::service::resultToJson(res).dump();
        t1 = Clock::now();
        serUs.push_back(pb::msBetween(t0, t1) * 1e3);
    }

    addJobLayerMetrics(rep, traced.recs);
    double rootMs = 0.0, coveredMs = 0.0;
    for (const Record &r : traced.recs) {
        if (r.out.status != "ok")
            continue;
        // The server's parse, queue and solve spans are the named part
        // of the round trip.
        rootMs += r.roundTripMs;
        for (const SpanIn &s : r.out.spans)
            if (s.name == "parse" || s.name == "queue" || s.name == "solve"
                || s.name == "resolve" || s.name == "compile")
                coveredMs += s.durMs;
    }
    rep.add("core.unattributed_frac",
            rootMs > 0 ? std::max(0.0, 1.0 - coveredMs / rootMs) : 0.0,
            "ratio", "socket transfer and framing are unattributed");
    addProbeMetrics(rep, probes);
    const double hits = section(after, "cache", "hits");
    const double misses = section(after, "cache", "misses");
    addServiceLayerMetrics(
        rep, traced.recs, pb::median(parseUs), pb::median(serUs),
        hits + misses > 0 ? hits / (hits + misses) : 0.0,
        histAvg(after, "cache.compile_ms"),
        histAvg(after, "server.first_byte_ms"));
    const double refHits = section(after, "registry", "ref_hits");
    const double refAll = refHits + section(after, "registry", "ref_misses")
                          + section(after, "registry", "ref_expired");
    rep.add("spec.ref_hit_rate", refAll > 0 ? refHits / refAll : 0.0,
            "ratio");
    const double mp = pb::mean(solvePlain);
    rep.add("obs.trace_overhead_frac",
            mp > 0 ? pb::mean(solveTraced) / mp - 1.0 : 0.0, "ratio",
            "traced/untraced mean solve_ms - 1 at a fixed offered rate");
    std::vector<double> late;
    for (const Record &r : plain.recs)
        late.push_back(r.lateMs);
    addTail(rep, "bench.late_ms_tail", late);

    const std::string path = a.outDir + "/spans-" + w.name + "-"
                             + std::to_string(a.seed) + ".jsonl";
    if (!spans.writeJsonl(path))
        rep.fail("cannot write " + path);
    std::cout << "spans: " << path << " (" << spans.spans().size()
              << " spans)\n";
    rep.print(q.attempted, q.failed);
    return rep.correct() ? 0 : 1;
}

void
usage()
{
    std::cerr << "usage: perfbench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--serve PATH] [--out-dir DIR]\nworkloads:";
    for (const std::string &name : pb::workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string val = argv[++i];
        if (arg == "--workload")
            a.workload = val;
        else if (arg == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace")
            a.trace = val == "1";
        else if (arg == "--serve")
            a.serve = val;
        else if (arg == "--out-dir")
            a.outDir = val;
        else {
            usage();
            return 2;
        }
    }
    const pb::Workload *w = pb::workloadByName(a.workload);
    if (!w || !(a.seconds > 0)) {
        usage();
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return w->openLoop ? runOpenWorkload(*w, a) : runClosedWorkload(*w, a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_e2e: " << e.what() << "\n";
        return 1;
    }
}
