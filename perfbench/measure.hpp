/**
 * @file
 * Measurement primitives of the end-to-end benchmark: wall-clock
 * timing, the percentile rules, the seeded generator stream, the
 * open-loop send schedule, span recording, and the open-loop socket
 * client. None of it depends on the solvers, so the
 * tests in test_measure.cpp can check it against known answers.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Wall clock (never CPU time): every figure the benchmark reports is
 * a difference of two readings of this clock. */
using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b (negative when b precedes a). */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank quantile, @p q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

double mean(const std::vector<double> &v);

/**
 * A tail reading: the highest percentile of the ladder
 * 50, 75, 90, 95, 99, 99.9, 99.99 that still leaves at least
 * kTailBeyond samples strictly above its nearest-rank position. With
 * fewer than 2 x kTailBeyond samples no rung qualifies; the median is
 * reported and @c beyond says how thin it is.
 */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

constexpr std::size_t kTailBeyond = 10;

Tail tailOf(std::vector<double> v);

/** SplitMix64: the benchmark's only random stream, so a seed fixes
 * every generated input. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Poisson arrival times (seconds from the schedule start) at @p rate
 * per second over [0, @p seconds), conditioned on the count: exactly
 * round(rate x seconds) arrivals, placed as sorted uniform draws, so
 * the offered load does not vary from seed to seed while the burst
 * pattern does. A pure function of its arguments.
 */
std::vector<double> poissonArrivals(std::uint64_t seed, double rate,
                                    double seconds);

/** One span of the benchmark's own trace. */
struct SpanRecord
{
    std::string name;
    std::string job;
    /** Index of the parent span in the recorder, -1 for a root. */
    long parent = -1;
    /** Milliseconds since the recorder's origin. */
    double startMs = 0.0;
    double endMs = 0.0;
    /** Free-form attributes, e.g. "sim_s=0.41 classical_s=0.02". */
    std::string note;
};

/** In-memory span store, written out once when the run ends. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    double at(Clock::time_point t) const { return msBetween(origin_, t); }

    /** Append a closed span; returns its index. */
    long add(SpanRecord s);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** One JSON object per line; returns false when the file can't be
     * written. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
};

/** One request of an open-loop run. */
struct OpenRequest
{
    /** Due time, seconds after the run's start instant. */
    double atS = 0.0;
    int conn = 0;
    /** Correlation key: the job id, or empty for a stats probe. */
    std::string id;
    std::string line;
};

/** What the client saw for one request. */
struct OpenOutcome
{
    /** Actual send (send() took the request's last byte) minus
     * scheduled send, milliseconds. */
    double lateMs = 0.0;
    /** Response arrival minus *scheduled* send, milliseconds. */
    double latencyMs = 0.0;
    /** Number of responses carrying this request's id. */
    int responses = 0;
    /** The (first) response line. */
    std::string response;
};

/**
 * Send @p reqs to 127.0.0.1:@p port over @p conns connections, each at
 * its scheduled time relative to @p start whether or not earlier
 * answers came back, and read every response. A job response is
 * matched by its "id"; a stats probe (empty id) by the next "stats"
 * line on its connection. Stops when every request is answered or
 * @p drainS seconds after the last send. Single-threaded: one poll
 * loop owns every connection. Throws std::runtime_error when it cannot
 * connect.
 */
std::vector<OpenOutcome> runOpenLoop(int port, int conns,
                                     const std::vector<OpenRequest> &reqs,
                                     Clock::time_point start,
                                     double drainS);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
