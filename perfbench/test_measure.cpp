/**
 * @file
 * Tests of the benchmark's own measurement code: the tail-percentile
 * rule, seed-determinism of the generated jobs and schedule,
 * scheduled-time latency against a fake server that stalls, and
 * wall-clock timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "measure.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(TailRule, PicksHighestRungWithTenBeyond)
{
    // 100 samples: p90 is sample 90 with 10 beyond; p95 has only 5.
    pb::Tail t = pb::tailOf(oneTo(100));
    EXPECT_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);

    // 99 samples: p90 is sample 90 (ceil 89.1) with only 9 beyond.
    t = pb::tailOf(oneTo(99));
    EXPECT_EQ(t.percentile, 75.0);
    EXPECT_EQ(t.value, 75.0);
    EXPECT_EQ(t.beyond, 24u);

    // 1000 samples reach p99; 10000 reach p99.9.
    EXPECT_EQ(pb::tailOf(oneTo(1000)).percentile, 99.0);
    EXPECT_EQ(pb::tailOf(oneTo(10000)).percentile, 99.9);
    EXPECT_EQ(pb::tailOf(oneTo(10000)).value, 9990.0);
}

TEST(TailRule, FewSamplesFallBackToMedianAndSaySo)
{
    const pb::Tail t = pb::tailOf(oneTo(12));
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(t.value, 6.0);
    EXPECT_EQ(t.beyond, 6u);
    EXPECT_EQ(pb::tailOf({}).samples, 0u);
}

TEST(Quantile, NearestRank)
{
    EXPECT_EQ(pb::median({3, 1, 2}), 2.0);
    EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.0);
    EXPECT_EQ(pb::quantile(oneTo(10), 1.0), 10.0);
    EXPECT_EQ(pb::quantile(oneTo(10), 0.0), 1.0);
}

TEST(Determinism, ClosedLoopJobsArePureInTheSeed)
{
    const pb::Workload &w = *pb::workloadByName("chocoq-table");
    const auto a = pb::closedLoopJobs(w, 5, 2);
    const auto b = pb::closedLoopJobs(w, 5, 2);
    const auto c = pb::closedLoopJobs(w, 6, 2);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].line, b[i].line);
        differs = differs || a[i].key() != c[i].key();
    }
    EXPECT_TRUE(differs) << "another seed should reorder the pass";
    // Every pass holds the same job multiset.
    std::multiset<std::string> first, second;
    for (std::size_t i = 0; i < a.size() / 2; ++i) {
        first.insert(a[i].key());
        second.insert(a[i + a.size() / 2].key());
    }
    EXPECT_EQ(first, second);
}

TEST(Determinism, OpenLoopPlanIsPureInTheSeed)
{
    const auto a = pb::openLoopPlan(9, 200.0, 2.0, 4, 0.5, "x-");
    const auto b = pb::openLoopPlan(9, 200.0, 2.0, 4, 0.5, "x-");
    const auto c = pb::openLoopPlan(10, 200.0, 2.0, 4, 0.5, "x-");
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].atS, b.requests[i].atS);
        EXPECT_EQ(a.requests[i].conn, b.requests[i].conn);
        EXPECT_EQ(a.requests[i].line, b.requests[i].line);
    }
    EXPECT_NE(a.requests.size() == c.requests.size()
                  && a.requests[0].atS == c.requests[0].atS,
              true);
    // Sorted by due time, stats probes included, refs only after an
    // inline submission of the same case.
    std::set<std::string> inlined;
    int probes = 0;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        if (i > 0)
            EXPECT_LE(a.requests[i - 1].atS, a.requests[i].atS);
        if (a.requests[i].id.empty()) {
            ++probes;
            continue;
        }
        const pb::JobSpec &j = a.jobs[i];
        const std::string c = j.scale + std::to_string(j.caseIndex);
        if (j.form == pb::Form::Inline)
            inlined.insert(c);
        if (j.form == pb::Form::Ref)
            EXPECT_TRUE(inlined.count(c)) << j.id;
    }
    EXPECT_EQ(probes, 3);
}

TEST(Determinism, PoissonArrivalsHitTheRate)
{
    const auto t = pb::poissonArrivals(3, 1000.0, 5.0);
    ASSERT_EQ(t.size(), 5000u);
    EXPECT_EQ(t, pb::poissonArrivals(3, 1000.0, 5.0));
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    EXPECT_GE(t.front(), 0.0);
    EXPECT_LT(t.back(), 5.0);
    // Exponential gaps: mean 1 ms, and about e^-1 of them exceed it.
    std::size_t longGaps = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        longGaps += t[i] - t[i - 1] > 1e-3;
    EXPECT_NEAR(static_cast<double>(longGaps) / 5000.0, 0.3679, 0.03);
}

TEST(WallClock, TimesSleepNotCpu)
{
    // A sleeping thread burns no CPU: a CPU-time clock would read ~0.
    const auto t0 = pb::Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const double ms = pb::msBetween(t0, pb::Clock::now());
    EXPECT_GE(ms, 60.0);
    EXPECT_LT(ms, 1000.0);
}

TEST(WallClock, ParallelWorkIsNotSummedAcrossThreads)
{
    // Four threads each sleeping 50 ms take ~50 ms of wall time, not
    // the 200 ms a per-thread sum would report.
    const auto t0 = pb::Clock::now();
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i)
        ts.emplace_back([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        });
    for (auto &t : ts)
        t.join();
    const double ms = pb::msBetween(t0, pb::Clock::now());
    EXPECT_GE(ms, 50.0);
    EXPECT_LT(ms, 190.0);
}

namespace
{

/** Loopback server that answers every line with {"id":...,"status":"ok"}
 * in order, but sleeps @p stallMs before answering the first one. */
class StallingServer
{
  public:
    explicit StallingServer(int stallMs) : stallMs_(stallMs)
    {
        listen_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ::bind(listen_, reinterpret_cast<sockaddr *>(&addr), sizeof addr);
        ::listen(listen_, 4);
        socklen_t len = sizeof addr;
        ::getsockname(listen_, reinterpret_cast<sockaddr *>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { serve(); });
    }

    ~StallingServer()
    {
        thread_.join();
        ::close(listen_);
    }

    int port() const { return port_; }

  private:
    void serve()
    {
        const int fd = ::accept(listen_, nullptr, nullptr);
        std::string buf;
        std::size_t scanned = 0;
        char chunk[4096];
        bool first = true;
        for (;;) {
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t pos;
            while ((pos = buf.find('\n', scanned)) != std::string::npos) {
                const std::string line = buf.substr(0, pos);
                buf.erase(0, pos + 1);
                scanned = 0;
                if (first)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(stallMs_));
                first = false;
                const auto idAt = line.find("\"id\":\"") + 6;
                const std::string id =
                    line.substr(idAt, line.find('"', idAt) - idAt);
                const std::string out =
                    "{\"id\":\"" + id + "\",\"status\":\"ok\"}\n";
                ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
            }
            scanned = buf.size();
        }
        ::close(fd);
    }

    int stallMs_;
    int listen_ = -1;
    int port_ = 0;
    std::thread thread_;
};

std::vector<pb::OpenRequest>
fiveRequests()
{
    std::vector<pb::OpenRequest> reqs;
    for (int i = 0; i < 5; ++i)
        reqs.push_back({0.02 * i, 0, "r" + std::to_string(i),
                        "{\"id\":\"r" + std::to_string(i) + "\"}"});
    return reqs;
}

} // namespace

TEST(OpenLoop, StallIsChargedToRequestsQueuedBehindIt)
{
    StallingServer server(200);
    const auto start = pb::Clock::now() + std::chrono::milliseconds(10);
    const auto out = pb::runOpenLoop(server.port(), 1, fiveRequests(),
                                     start, 5.0);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(out[static_cast<std::size_t>(i)].responses, 1);
        // Sent on schedule while the first answer was still pending...
        EXPECT_LT(out[static_cast<std::size_t>(i)].lateMs, 15.0);
        // ...and answered only after the stall: the wait counts.
        EXPECT_GE(out[static_cast<std::size_t>(i)].latencyMs,
                  200.0 - 20.0 * i - 1.0)
            << "request " << i;
    }
}

TEST(OpenLoop, LatencyCountsFromScheduledNotActualSend)
{
    // A generator that starts 150 ms behind its schedule sends every
    // request late; the lateness is reported and the latency includes
    // it.
    StallingServer server(0);
    const auto start = pb::Clock::now() - std::chrono::milliseconds(150);
    const auto out = pb::runOpenLoop(server.port(), 1, fiveRequests(),
                                     start, 5.0);
    for (int i = 0; i < 5; ++i) {
        const pb::OpenOutcome &o = out[static_cast<std::size_t>(i)];
        EXPECT_EQ(o.responses, 1);
        EXPECT_GE(o.lateMs, 150.0 - 20.0 * i - 1.0);
        EXPECT_GE(o.latencyMs, o.lateMs);
    }
}

TEST(OpenLoop, LatenessIsStampedWhenTheSocketTakesTheRequest)
{
    // The server stops reading while it stalls on the first line. The
    // second request, queued on time but too big for the socket
    // buffers, leaves the client only once the server reads again, and
    // its lateness says so.
    StallingServer server(200);
    std::vector<pb::OpenRequest> reqs = fiveRequests();
    reqs.resize(2);
    reqs[1].line =
        "{\"id\":\"r1\",\"pad\":\"" + std::string(16 << 20, ' ') + "\"}";
    const auto start = pb::Clock::now() + std::chrono::milliseconds(10);
    const auto out = pb::runOpenLoop(server.port(), 1, reqs, start, 5.0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].responses, 1);
    EXPECT_EQ(out[1].responses, 1);
    EXPECT_LT(out[0].lateMs, 15.0);
    EXPECT_GE(out[1].lateMs, 100.0);
    EXPECT_GE(out[1].latencyMs, out[1].lateMs);
}
