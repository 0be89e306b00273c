#include "measure.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/json.hpp"

namespace perfbench
{

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now()) / 1e3;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t k =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(k, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

Tail
tailOf(std::vector<double> v)
{
    static constexpr double kLadder[] = {50.0, 75.0, 90.0, 95.0,
                                         99.0, 99.9, 99.99};
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const auto beyondAt = [&v](double p) {
        // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
        const double rank =
            std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
        const std::size_t pos = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
        return v.size() - std::min(pos, v.size());
    };
    t.percentile = kLadder[0];
    for (double p : kLadder)
        if (beyondAt(p) >= kTailBeyond)
            t.percentile = p;
    t.beyond = beyondAt(t.percentile);
    t.value = v[v.size() - t.beyond - 1];
    return t;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::vector<double>
poissonArrivals(std::uint64_t seed, double rate, double seconds)
{
    Rng rng(seed);
    std::vector<double> out(
        static_cast<std::size_t>(std::llround(rate * seconds)));
    for (double &t : out)
        t = rng.uniform() * seconds;
    std::sort(out.begin(), out.end());
    return out;
}

long
SpanRecorder::add(SpanRecord s)
{
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size()) - 1;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::vector<SpanRecord> &all = spans_;
    for (std::size_t i = 0; i < all.size(); ++i) {
        chocoq::service::Json j = chocoq::service::Json::object();
        j.set("span", static_cast<double>(i));
        j.set("name", all[i].name);
        j.set("job", all[i].job);
        j.set("parent", static_cast<double>(all[i].parent));
        j.set("start_ms", all[i].startMs);
        j.set("end_ms", all[i].endMs);
        if (!all[i].note.empty())
            j.set("note", all[i].note);
        out << j.dump() << '\n';
    }
    return static_cast<bool>(out);
}

namespace
{

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ")
                                 + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
        != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect to port " + std::to_string(port)
                                 + ": " + why);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

struct Conn
{
    int fd = -1;
    /** Bytes to send; the first `sent` of them have gone out. */
    std::string out;
    std::size_t sent = 0;
    /** Requests in `out` not yet fully sent: (index, offset just past
     * the request's newline). */
    std::deque<std::pair<std::size_t, std::size_t>> unsent;
    std::string in;
    /** Requests (indices) of stats probes awaiting their answer. */
    std::deque<std::size_t> stats;
    bool open = true;
};

} // namespace

std::vector<OpenOutcome>
runOpenLoop(int port, int conns, const std::vector<OpenRequest> &reqs,
            Clock::time_point start, double drainS)
{
    std::vector<Conn> cs(static_cast<std::size_t>(std::max(conns, 1)));
    for (auto &c : cs)
        c.fd = connectLoopback(port);
    struct Closer
    {
        std::vector<Conn> &cs;
        ~Closer()
        {
            for (auto &c : cs)
                if (c.fd >= 0)
                    ::close(c.fd);
        }
    } closer{cs};

    std::vector<OpenOutcome> out(reqs.size());
    std::vector<Clock::time_point> due(reqs.size());
    std::unordered_map<std::string, std::size_t> byId;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        due[i] = start
                 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(reqs[i].atS));
        if (!reqs[i].id.empty())
            byId.emplace(reqs[i].id, i);
    }
    std::size_t next = 0;
    std::size_t answered = 0;
    Clock::time_point lastSend = start;

    // A request is sent when send() has taken its last byte; that
    // instant, not the one it was queued at, stamps its lateness.
    const auto flush = [&](Conn &c) {
        while (c.sent < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                                     c.out.size() - c.sent, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            c.sent += static_cast<std::size_t>(n);
        }
        const Clock::time_point now = Clock::now();
        while (!c.unsent.empty() && c.unsent.front().second <= c.sent) {
            const std::size_t i = c.unsent.front().first;
            out[i].lateMs = msBetween(due[i], now);
            c.unsent.pop_front();
        }
        if (c.sent == c.out.size()) {
            c.out.clear();
            c.sent = 0;
        }
    };

    const auto onLine = [&](Conn &c, const std::string &line,
                            Clock::time_point now) {
        chocoq::service::Json v;
        try {
            v = chocoq::service::Json::parse(line);
        } catch (const std::exception &) {
            return;
        }
        std::size_t idx = reqs.size();
        if (v.getString("type", "") == "stats") {
            if (c.stats.empty())
                return;
            idx = c.stats.front();
            c.stats.pop_front();
        } else {
            const auto it = byId.find(v.getString("id", ""));
            if (it == byId.end())
                return;
            idx = it->second;
        }
        OpenOutcome &o = out[idx];
        if (o.responses++ == 0) {
            o.latencyMs = msBetween(due[idx], now);
            o.response = line;
            ++answered;
        }
    };

    std::vector<pollfd> pfds(cs.size());
    char buf[1 << 16];
    for (;;) {
        Clock::time_point now = Clock::now();
        while (next < reqs.size() && due[next] <= now) {
            Conn &c = cs[static_cast<std::size_t>(reqs[next].conn)
                         % cs.size()];
            c.out += reqs[next].line;
            c.out += '\n';
            c.unsent.emplace_back(next, c.out.size());
            if (reqs[next].id.empty())
                c.stats.push_back(next);
            lastSend = now;
            ++next;
        }
        for (Conn &c : cs)
            if (c.open && !c.unsent.empty())
                flush(c);
        if (answered == reqs.size() && next == reqs.size())
            break;
        if (next == reqs.size() && secondsSince(lastSend) > drainS)
            break;
        bool anyOpen = false;
        for (std::size_t k = 0; k < cs.size(); ++k) {
            pfds[k].fd = cs[k].open ? cs[k].fd : -1;
            pfds[k].events = static_cast<short>(
                POLLIN | (cs[k].unsent.empty() ? 0 : POLLOUT));
            pfds[k].revents = 0;
            anyOpen = anyOpen || cs[k].open;
        }
        if (!anyOpen && next == reqs.size())
            break;
        int waitMs = 5;
        if (next < reqs.size())
            waitMs = static_cast<int>(std::clamp(
                msBetween(Clock::now(), due[next]), 0.0, 5.0));
        ::poll(pfds.data(), pfds.size(), waitMs);
        now = Clock::now();
        for (std::size_t k = 0; k < cs.size(); ++k) {
            Conn &c = cs[k];
            if (!c.open)
                continue;
            if (pfds[k].revents & POLLOUT)
                flush(c);
            if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
                const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
                if (n <= 0) {
                    if (n == 0 || (errno != EAGAIN && errno != EINTR))
                        c.open = false;
                    continue;
                }
                c.in.append(buf, static_cast<std::size_t>(n));
                std::size_t pos;
                while ((pos = c.in.find('\n')) != std::string::npos) {
                    onLine(c, c.in.substr(0, pos), now);
                    c.in.erase(0, pos + 1);
                }
            }
        }
    }
    return out;
}

} // namespace perfbench
