#include "net/tcp_transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "net/frame.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** Registry-backed real-wire counters, resolved once per process. */
struct TcpMetrics
{
    obs::Counter &realWireNs;
    obs::Counter &framesSent;
    obs::Counter &connectRetries;
    obs::Counter &recvIntoBytes;
    obs::Counter &creditStallsNs;
    obs::Counter &epollWakeups;
    obs::Gauge &streamsActive;
    obs::Gauge &pooledConnections;

    static TcpMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static TcpMetrics m{
            r.counter("net.real_wire_ns"),
            r.counter("net.frames_sent"),
            r.counter("net.connect_retries"),
            r.counter("net.recv_into_bytes"),
            r.counter("net.credit_stalls_ns"),
            r.counter("net.epoll_wakeups"),
            r.gauge("net.streams_active"),
            r.gauge("net.pooled_connections"),
        };
        return m;
    }
};

/** How long the event loop sleeps in epoll_wait when idle. */
constexpr int loopWaitMs = 50;

/** How long a stream may sit credit-stalled before the loop assumes
 *  its grant is trapped behind a parked inbound frame and stages that
 *  connection (2x the epoll timeout, so the check always fires while
 *  a genuine just-slow receiver rarely trips it). */
constexpr std::uint64_t stallRescueNs =
    2ull * loopWaitMs * 1'000'000ull;

/** Transient-connect retry budget (listen backlog overflow). */
constexpr int connectAttempts = 100;

/** epoll token classification (packed into epoll_event.data.u64). */
enum class FdKind : std::uint64_t
{
    Wake = 0,
    Listen = 1,
    Pair = 2,
    Ctrl = 3,
};

std::uint64_t
packToken(FdKind kind, NodeId peer, int fd)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           ((static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(peer)) & 0xFFFFFF) << 32) |
           static_cast<std::uint32_t>(fd);
}

/** Monotonic wall clock for stall bookkeeping. */
std::uint64_t
monoNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[noreturn]] void
sysErr(const char *what)
{
    panic(std::string("TcpTransport: ") + what + ": " +
          std::strerror(errno));
}

/** Read exactly @p len bytes; false on orderly EOF at a frame edge. */
bool
recvFully(int fd, std::uint8_t *buf, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        ssize_t n = ::recv(fd, buf + got, len - got, 0);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) {
            panicIf(got != 0, "peer closed mid-frame");
            return false;
        }
        if (errno == EINTR)
            continue;
        sysErr("recv");
    }
    return true;
}

void
sendFully(int fd, const std::uint8_t *buf, std::size_t len)
{
    std::size_t sent = 0;
    while (sent < len) {
        ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        sysErr("send");
    }
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** The unordered-pair pool key. */
std::pair<NodeId, NodeId>
pairKey(NodeId a, NodeId b)
{
    return {std::min(a, b), std::max(a, b)};
}

/** Environment overrides for TransportOptions (docs/TRANSPORT.md §6). */
TransportOptions
applyEnv(TransportOptions opts)
{
    if (const char *e = std::getenv("SKYWAY_NET_CREDIT_BYTES")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(e, &end, 10);
        panicIf(end == e || v == 0,
                "SKYWAY_NET_CREDIT_BYTES must be a positive integer");
        opts.creditWindowBytes = static_cast<std::size_t>(v);
    }
    if (const char *e = std::getenv("SKYWAY_NET_QUEUE_LIMIT")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(e, &end, 10);
        panicIf(end == e,
                "SKYWAY_NET_QUEUE_LIMIT must be an integer (0 = off)");
        opts.maxQueuedBytesPerStream = static_cast<std::size_t>(v);
    }
    if (const char *e = std::getenv("SKYWAY_NET_AFFINITY"))
        opts.pinEventLoops = e[0] == '1';
    return opts;
}

} // namespace

TcpTransport::TcpTransport(int node_count, WireCounters &wire,
                           const TransportOptions &options)
    : nodeCount_(node_count),
      wire_(wire),
      options_(applyEnv(options)),
      handlers_(node_count)
{
    TcpMetrics::get(); // registration outside any hot path
    panicIf(options_.creditWindowBytes == 0,
            "TcpTransport: creditWindowBytes must be > 0");

    nodes_.reserve(node_count);
    for (int i = 0; i < node_count; ++i) {
        auto n = std::make_unique<Node>();

        n->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (n->listenFd < 0)
            sysErr("socket");
        int one = 1;
        ::setsockopt(n->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0; // kernel-assigned
        if (::bind(n->listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            sysErr("bind");
        socklen_t alen = sizeof(addr);
        if (::getsockname(n->listenFd,
                          reinterpret_cast<sockaddr *>(&addr),
                          &alen) < 0)
            sysErr("getsockname");
        n->port = ntohs(addr.sin_port);
        if (::listen(n->listenFd, 128) < 0)
            sysErr("listen");
        // Non-blocking listener: the loop accepts until EAGAIN.
        ::fcntl(n->listenFd, F_SETFL, O_NONBLOCK);

        int pipefd[2];
        if (::pipe(pipefd) < 0)
            sysErr("pipe");
        // Non-blocking read end: the loop drains the pipe dry after a
        // wakeup without risking a block on an already-empty pipe.
        ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
        n->wakeRead = pipefd[0];
        n->wakeWrite = pipefd[1];

        n->epollFd = ::epoll_create1(0);
        if (n->epollFd < 0)
            sysErr("epoll_create1");

        nodes_.push_back(std::move(n));

        epollAdd(i, packToken(FdKind::Wake, 0, pipefd[0]), pipefd[0]);
        epollAdd(i, packToken(FdKind::Listen, 0, nodes_[i]->listenFd),
                 nodes_[i]->listenFd);
    }

    // Loops start only after every listener exists: a node's first
    // frame may connect to any peer.
    for (int i = 0; i < node_count; ++i)
        nodes_[i]->loop = std::thread(&TcpTransport::eventLoop, this, i);
}

TcpTransport::~TcpTransport()
{
    running_.store(false, std::memory_order_relaxed);
    for (int i = 0; i < nodeCount_; ++i) {
        {
            // Release bounded-queue senders stuck in send().
            MutexLock lock(nodes_[i]->sendMutex);
        }
        nodes_[i]->sendCv.notify_all();
    }
    // A released sender still reads running_, and one that raced past
    // the wait still touches its stream queue and the wake pipe on
    // the way out — wait for every in-flight send() to leave before
    // any fd is closed or Node state freed.
    {
        MutexLock lock(sendersMutex_);
        while (inFlightSenders_ != 0)
            sendersCv_.wait(lock);
    }
    for (int i = 0; i < nodeCount_; ++i)
        wakeLoop(i);
    for (auto &n : nodes_) {
        if (n->loop.joinable())
            n->loop.join();
    }

    // Unwind the process-wide gauges this fabric contributed to, and
    // close every fd. The loops are joined and the senders drained,
    // but consumer threads may still be mid-poll (nothing stops a
    // reader outliving the fabric), so the guarded state below is
    // read under its owning locks like everywhere else — they are
    // uncontended by now and leaf-ordered, so this costs nothing.
    // (The unlocked reads that used to sit here were the first bug
    // the SkywayGuard annotations flagged; see
    // docs/STATIC_ANALYSIS.md and GaugesUnwindOnDestruction.)
    TcpMetrics &m = TcpMetrics::get();
    std::int64_t active = 0;
    for (auto &n : nodes_) {
        MutexLock lock(n->sendMutex);
        for (auto &[key, s] : n->streams) {
            if (s.active)
                ++active;
        }
    }
    if (active)
        m.streamsActive.add(-active);
    {
        MutexLock lock(poolMutex_);
        if (!pool_.empty())
            m.pooledConnections.add(
                -static_cast<std::int64_t>(pool_.size()));
    }

    for (auto &n : nodes_) {
        {
            MutexLock lock(poolMutex_);
            for (auto &[peer, fd] : n->pairFd)
                ::close(fd);
        }
        {
            MutexLock lock(n->ctrlMutex);
            for (auto &[dst, fd] : n->ctrlOut)
                ::close(fd);
        }
        for (int fd : n->ctrlIn)
            ::close(fd);
        ::close(n->listenFd);
        ::close(n->wakeRead);
        ::close(n->wakeWrite);
        ::close(n->epollFd);
    }
}

std::uint16_t
TcpTransport::listenPort(NodeId node) const
{
    return nodes_[node]->port;
}

void
TcpTransport::wakeLoop(NodeId node)
{
    std::uint8_t b = 0;
    ssize_t rc = ::write(nodes_[node]->wakeWrite, &b, 1);
    (void)rc; // a full pipe already guarantees a wakeup
}

void
TcpTransport::epollAdd(NodeId node, std::uint64_t token, int fd)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = token;
    if (::epoll_ctl(nodes_[node]->epollFd, EPOLL_CTL_ADD, fd, &ev) < 0)
        sysErr("epoll_ctl(ADD)");
}

void
TcpTransport::epollDel(NodeId node, int fd)
{
    epoll_event ev{}; // ignored by DEL, but pre-2.6.9 kernels want it
    if (::epoll_ctl(nodes_[node]->epollFd, EPOLL_CTL_DEL, fd, &ev) < 0)
        sysErr("epoll_ctl(DEL)");
}

void
TcpTransport::writeTimed(int fd, const std::uint8_t *buf,
                         std::size_t len)
{
    Stopwatch sw;
    sendFully(fd, buf, len);
    std::uint64_t ns = sw.elapsedNs();
    wire_.realWireNs.fetch_add(ns, std::memory_order_relaxed);
    TcpMetrics::get().realWireNs.add(ns);
}

std::size_t
TcpTransport::nonblockSend(int fd, const std::uint8_t *p,
                           std::size_t len)
{
    Stopwatch sw;
    std::size_t sent = 0;
    while (sent < len) {
        ssize_t w = ::send(fd, p + sent, len - sent,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w >= 0) {
            sent += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // socket full: the caller queues the rest
        sysErr("send");
    }
    if (sent) {
        std::uint64_t ns = sw.elapsedNs();
        wire_.realWireNs.fetch_add(ns, std::memory_order_relaxed);
        TcpMetrics::get().realWireNs.add(ns);
    }
    return sent;
}

void
TcpTransport::sendOrQueue(Node &n, NodeId peer, int fd,
                          const std::uint8_t *p, std::size_t len)
{
    MutexLock lock(n.outMutex);
    OutBuf &ob = n.outbound[fd];
    ob.peer = peer;
    if (ob.off >= ob.bytes.size()) {
        // Nothing queued ahead: write straight to the socket and
        // queue only what it refuses (the common, copy-free case).
        std::size_t sent = nonblockSend(fd, p, len);
        p += sent;
        len -= sent;
    }
    if (len)
        ob.bytes.insert(ob.bytes.end(), p, p + len);
    // Empty entries are reaped by the loop's next flushPairWrites.
}

bool
TcpTransport::flushOutBuf(Node &n, int fd, OutBuf &ob)
{
    (void)n; // present for the REQUIRES(n.outMutex) annotation only
    if (ob.off < ob.bytes.size())
        ob.off += nonblockSend(fd, ob.bytes.data() + ob.off,
                               ob.bytes.size() - ob.off);
    if (ob.off >= ob.bytes.size()) {
        ob.bytes.clear();
        ob.off = 0;
        return true;
    }
    if (ob.off >= (1u << 20)) {
        // Reclaim a megabyte of consumed prefix.
        ob.bytes.erase(ob.bytes.begin(),
                       ob.bytes.begin() +
                           static_cast<std::ptrdiff_t>(ob.off));
        ob.off = 0;
    }
    return false;
}

bool
TcpTransport::modPairInterest(NodeId node, NodeId peer, int fd,
                              bool wantOut)
{
    Node &n = *nodes_[node];
    MutexLock lock(n.recvMutex);
    for (const Parked &p : n.parked) {
        if (p.fd == fd)
            return false; // out of the epoll set while parked
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (wantOut ? static_cast<unsigned>(EPOLLOUT)
                                   : 0u);
    ev.data.u64 = packToken(FdKind::Pair, peer, fd);
    if (::epoll_ctl(n.epollFd, EPOLL_CTL_MOD, fd, &ev) < 0)
        sysErr("epoll_ctl(MOD)");
    return true;
}

void
TcpTransport::flushPairWrites(NodeId node)
{
    Node &n = *nodes_[node];
    // Phase 1: drain under outMutex, noting which connections need
    // an interest change. Phase 2 applies the epoll MODs with
    // outMutex released — modPairInterest takes recvMutex, and a
    // consumer holding recvMutex may be help-flushing (recvMutex →
    // outMutex), so nesting the other way would invert lock order.
    struct Mod
    {
        int fd;
        NodeId peer;
        bool want;
    };
    std::vector<Mod> mods;
    {
        MutexLock lock(n.outMutex);
        for (auto it = n.outbound.begin(); it != n.outbound.end();) {
            OutBuf &ob = it->second;
            bool drained = flushOutBuf(n, it->first, ob);
            if (drained && !ob.armed) {
                it = n.outbound.erase(it);
                continue;
            }
            // Interest must mirror pending bytes: arm when blocked
            // and unarmed, disarm when drained and armed.
            if (drained == ob.armed)
                mods.push_back(Mod{it->first, ob.peer, !drained});
            ++it;
        }
    }
    for (const Mod &m : mods) {
        if (!modPairInterest(node, m.peer, m.fd, m.want))
            continue; // parked: retried after the claim re-arms it
        MutexLock lock(n.outMutex);
        auto it = n.outbound.find(m.fd);
        if (it == n.outbound.end())
            continue;
        it->second.armed = m.want;
        if (!m.want && it->second.off >= it->second.bytes.size())
            n.outbound.erase(it);
    }
}

void
TcpTransport::helpFlushPair(NodeId peer, NodeId toward)
{
    Node &pn = *nodes_[peer];
    int fd = -1;
    {
        MutexLock lock(poolMutex_);
        auto it = pn.pairFd.find(toward);
        if (it != pn.pairFd.end())
            fd = it->second;
    }
    if (fd < 0)
        return;
    MutexLock lock(pn.outMutex);
    auto it = pn.outbound.find(fd);
    if (it != pn.outbound.end())
        flushOutBuf(pn, fd, it->second); // arming stays the loop's job
}

void
TcpTransport::recvParkedPayload(NodeId node, NodeId peer, int fd,
                                std::uint8_t *buf, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        ssize_t r = ::recv(fd, buf + got, len - got, MSG_DONTWAIT);
        if (r > 0) {
            got += static_cast<std::size_t>(r);
            continue;
        }
        panicIf(r == 0, "peer closed mid-frame");
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            sysErr("recv");
        // The missing bytes may still sit in the peer's user-space
        // outbound queue. Pump it ourselves: the peer's loop may be
        // blocked on THIS thread's recvMutex, so waiting for it
        // would deadlock the claim.
        helpFlushPair(peer, node);
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, 1);
    }
}

int
TcpTransport::connectTo(NodeId dst, const std::uint8_t *shake,
                        std::size_t shake_len)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(nodes_[dst]->port);

    for (int attempt = 0; attempt < connectAttempts; ++attempt) {
        if (attempt > 0) {
            wire_.connectRetries.fetch_add(1,
                                           std::memory_order_relaxed);
            TcpMetrics::get().connectRetries.inc();
            // Backlog overflow is transient: the loop accepts in
            // bounded time.
            struct timespec ts {0, 2'000'000}; // 2 ms
            ::nanosleep(&ts, nullptr);
        }
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            sysErr("socket");
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            setNoDelay(fd);
            sendFully(fd, shake, shake_len);
            return fd;
        }
        int err = errno;
        ::close(fd);
        if (err != ECONNREFUSED && err != EINTR && err != ETIMEDOUT &&
            err != EAGAIN)
            panic(std::string("TcpTransport: connect: ") +
                  std::strerror(err));
    }
    panic("TcpTransport: connect retries exhausted toward node " +
          std::to_string(dst));
}

int
TcpTransport::pairFdOrClaim(NodeId node, NodeId dst)
{
    Node &n = *nodes_[node];
    {
        MutexLock lock(poolMutex_);
        auto it = n.pairFd.find(dst);
        if (it != n.pairFd.end())
            return it->second;

        PairEntry &e = pool_[pairKey(node, dst)];
        if (e.claimed) {
            // The peer is mid-connect; our loop's accept completes
            // the pair. Never wait here — the accept event re-runs
            // the drain.
            return -1;
        }
        e.claimed = true;
        wire_.connectionsPooled.fetch_add(1,
                                          std::memory_order_relaxed);
        TcpMetrics::get().pooledConnections.add(1);
    }

    frame::Handshake h{frame::channelData, node};
    std::uint8_t shake[frame::handshakeBytes];
    frame::encodeHandshake(shake, h);
    // Connect with poolMutex_ dropped: a backlog-overflow retry can
    // sleep ~200 ms, and holding the transport-wide lock across that
    // would stall every node's grant delivery and accepts. The claim
    // above keeps the pair exclusive meanwhile (connectTo panics
    // rather than failing, so there is no unclaim path).
    int fd = connectTo(dst, shake, sizeof(shake));
    {
        MutexLock lock(poolMutex_);
        if (n.pairFd.count(dst) != 0)
            panic("TcpTransport: duplicate pair connection toward "
                  "node " + std::to_string(dst));
        n.pairFd.emplace(dst, fd);
    }
    epollAdd(node, packToken(FdKind::Pair, dst, fd), fd);
    return fd;
}

int
TcpTransport::ctrlConnFor(Node &n, NodeId src, NodeId dst)
{
    auto it = n.ctrlOut.find(dst);
    if (it != n.ctrlOut.end())
        return it->second;
    frame::Handshake h{frame::channelControl, src};
    std::uint8_t shake[frame::handshakeBytes];
    frame::encodeHandshake(shake, h);
    int fd = connectTo(dst, shake, sizeof(shake));
    n.ctrlOut.emplace(dst, fd);
    return fd;
}

void
TcpTransport::send(NodeId src, NodeId dst, int tag,
                   std::vector<std::uint8_t> payload)
{
    // Census in/out so the destructor cannot tear down fds or Node
    // state under a sender it just released from the bounded wait.
    {
        MutexLock lock(sendersMutex_);
        ++inFlightSenders_;
    }
    struct Census
    {
        TcpTransport &t;
        ~Census()
        {
            MutexLock lock(t.sendersMutex_);
            if (--t.inFlightSenders_ == 0)
                t.sendersCv_.notify_all();
        }
    } census{*this};

    Node &n = *nodes_[src];
    if (src == dst) {
        // Self-delivery never touches a socket (loopback-to-self is
        // not remote traffic on any transport).
        MutexLock lock(n.recvMutex);
        n.selfBox.push_back(NetMessage{src, dst, tag,
                                       std::move(payload)});
        ++n.recvVersion;
        return;
    }

    {
        MutexLock lock(n.sendMutex);
        auto [it, inserted] =
            n.streams.try_emplace(std::make_pair(dst, tag));
        TxStream &s = it->second;
        if (inserted)
            s.credit = static_cast<std::int64_t>(
                options_.creditWindowBytes);
        if (!s.active) {
            s.active = true;
            TcpMetrics::get().streamsActive.add(1);
        }
        if (options_.maxQueuedBytesPerStream > 0 && !payload.empty()) {
            // Opt-in bound on unsent bytes; requires a concurrent
            // drainer (see TransportOptions::maxQueuedBytesPerStream).
            // An explicit wait loop rather than the predicate
            // overload: thread-safety analysis cannot see through a
            // predicate lambda, and the loop is the same code.
            while (running_.load(std::memory_order_relaxed) &&
                   s.queuedBytes >= options_.maxQueuedBytesPerStream)
                n.sendCv.wait(lock);
            if (!running_.load(std::memory_order_relaxed)) {
                // Shutdown released us: drop the frame and leave
                // without touching the queue or the wake pipe.
                return;
            }
        }
        s.queuedBytes += payload.size();
        s.queue.push_back(std::move(payload));
    }
    wakeLoop(src);
}

void
TcpTransport::queueGrant(NodeId node, NodeId src, int tag,
                         std::uint32_t bytes)
{
    Node &n = *nodes_[node];
    {
        MutexLock lock(n.sendMutex);
        n.grants.push_back(Grant{src, tag, bytes});
    }
    wakeLoop(node);
}

void
TcpTransport::stageParked(NodeId node, Node &n,
                          const std::set<int> *onlyFds)
{
    // Either a consumer is stuck on a tag none of the parked frames
    // carry, or (onlyFds set) the loop's
    // stall rescue needs the grants queued behind these frames; read
    // the payloads off their connections (one staging copy —
    // intentionally NOT counted as net.recv_into_bytes) so whatever
    // is queued behind them keeps flowing. Credit is granted only
    // when a consumer takes a staged message: staged bytes still
    // occupy this node's memory, so total staging is bounded by the
    // senders' credit windows.
    std::vector<Parked> keep;
    bool stagedAny = false;
    for (Parked &p : n.parked) {
        if (onlyFds && !onlyFds->count(p.fd)) {
            keep.push_back(p);
            continue;
        }
        NetMessage m{p.src, node, p.tag, {}};
        if (p.len) {
            m.payload.resize(p.len);
            recvParkedPayload(node, p.src, p.fd, m.payload.data(),
                              p.len);
        }
        epollAdd(node, packToken(FdKind::Pair, p.src, p.fd), p.fd);
        n.staged.push_back(std::move(m));
        stagedAny = true;
    }
    n.parked = std::move(keep);
    if (stagedAny)
        ++n.recvVersion;
}

void
TcpTransport::rescueStalledStreams(NodeId node)
{
    Node &n = *nodes_[node];
    std::vector<NodeId> starvedDsts;
    std::uint64_t now = monoNs();
    {
        MutexLock lock(n.sendMutex);
        for (auto &[key, s] : n.streams) {
            if (!s.stalled || now - s.stallStartNs < stallRescueNs)
                continue;
            if (starvedDsts.empty() || starvedDsts.back() != key.first)
                starvedDsts.push_back(key.first); // map: dsts adjacent
        }
    }
    if (starvedDsts.empty())
        return;
    std::set<int> fds;
    {
        MutexLock lock(poolMutex_);
        for (NodeId dst : starvedDsts) {
            auto it = n.pairFd.find(dst);
            if (it != n.pairFd.end())
                fds.insert(it->second);
        }
    }
    if (fds.empty())
        return;
    MutexLock lock(n.recvMutex);
    if (!n.parked.empty())
        stageParked(node, n, &fds);
}

bool
TcpTransport::poll(NodeId dst, NetMessage &out)
{
    Node &n = *nodes_[dst];
    MutexLock lock(n.recvMutex);
    if (!n.selfBox.empty()) {
        out = std::move(n.selfBox.front());
        n.selfBox.pop_front();
        ++n.recvVersion;
        return true;
    }
    if (!n.staged.empty()) {
        out = std::move(n.staged.front());
        n.staged.pop_front();
        ++n.recvVersion;
        if (!out.payload.empty())
            queueGrant(dst, out.src, out.tag,
                       static_cast<std::uint32_t>(out.payload.size()));
        return true;
    }
    if (!n.parked.empty()) {
        Parked p = n.parked.front();
        n.parked.erase(n.parked.begin());
        ++n.recvVersion;
        out = NetMessage{p.src, dst, p.tag, {}};
        if (p.len) {
            out.payload.resize(p.len);
            recvParkedPayload(dst, p.src, p.fd, out.payload.data(),
                              p.len);
        }
        epollAdd(dst, packToken(FdKind::Pair, p.src, p.fd), p.fd);
        if (p.len)
            queueGrant(dst, p.src, p.tag, p.len);
        return true;
    }
    return false;
}

bool
TcpTransport::pollTag(NodeId dst, int tag, NetMessage &out)
{
    Node &n = *nodes_[dst];
    MutexLock lock(n.recvMutex);
    for (auto it = n.selfBox.begin(); it != n.selfBox.end(); ++it) {
        if (it->tag == tag) {
            out = std::move(*it);
            n.selfBox.erase(it);
            ++n.recvVersion;
            n.lastMiss.erase(tag);
            return true;
        }
    }
    for (auto it = n.staged.begin(); it != n.staged.end(); ++it) {
        if (it->tag != tag)
            continue;
        out = std::move(*it);
        n.staged.erase(it);
        ++n.recvVersion;
        n.lastMiss.erase(tag);
        if (!out.payload.empty())
            queueGrant(dst, out.src, tag,
                       static_cast<std::uint32_t>(out.payload.size()));
        return true;
    }
    for (std::size_t i = 0; i < n.parked.size(); ++i) {
        if (n.parked[i].tag != tag)
            continue;
        Parked p = n.parked[i];
        n.parked.erase(n.parked.begin() + i);
        ++n.recvVersion;
        n.lastMiss.erase(tag);
        out = NetMessage{p.src, dst, p.tag, {}};
        if (p.len) {
            out.payload.resize(p.len);
            recvParkedPayload(dst, p.src, p.fd, out.payload.data(),
                              p.len);
        }
        epollAdd(dst, packToken(FdKind::Pair, p.src, p.fd), p.fd);
        if (p.len)
            queueGrant(dst, p.src, p.tag, p.len);
        return true;
    }
    // Miss. A second miss with no intervening receive-side change
    // means the consumer is stuck behind parked misfits: stage them
    // so the connections (which may carry this tag further back)
    // keep moving.
    auto mit = n.lastMiss.find(tag);
    if (mit != n.lastMiss.end() && mit->second == n.recvVersion &&
        !n.parked.empty())
        stageParked(dst, n);
    n.lastMiss[tag] = n.recvVersion;
    return false;
}

std::ptrdiff_t
TcpTransport::pollTagInto(NodeId dst, int tag, const ReserveFn &reserve)
{
    Node &n = *nodes_[dst];
    MutexLock lock(n.recvMutex);
    for (auto it = n.selfBox.begin(); it != n.selfBox.end(); ++it) {
        if (it->tag != tag)
            continue;
        NetMessage msg = std::move(*it);
        n.selfBox.erase(it);
        ++n.recvVersion;
        n.lastMiss.erase(tag);
        if (msg.payload.empty())
            return 0;
        std::uint8_t *to = reserve(msg.payload.size());
        panicIf(to == nullptr, "pollTagInto: reserve returned null");
        std::memcpy(to, msg.payload.data(), msg.payload.size());
        return static_cast<std::ptrdiff_t>(msg.payload.size());
    }
    for (auto it = n.staged.begin(); it != n.staged.end(); ++it) {
        if (it->tag != tag)
            continue;
        NetMessage msg = std::move(*it);
        n.staged.erase(it);
        ++n.recvVersion;
        n.lastMiss.erase(tag);
        if (msg.payload.empty())
            return 0;
        // Staged delivery: the frame already paid its one staging
        // copy, so this is not a zero-copy receive — recv_into_bytes
        // intentionally excludes it.
        std::uint8_t *to = reserve(msg.payload.size());
        panicIf(to == nullptr, "pollTagInto: reserve returned null");
        std::memcpy(to, msg.payload.data(), msg.payload.size());
        queueGrant(dst, msg.src, tag,
                   static_cast<std::uint32_t>(msg.payload.size()));
        return static_cast<std::ptrdiff_t>(msg.payload.size());
    }
    for (std::size_t i = 0; i < n.parked.size(); ++i) {
        if (n.parked[i].tag != tag)
            continue;
        Parked p = n.parked[i];
        n.parked.erase(n.parked.begin() + i);
        ++n.recvVersion;
        n.lastMiss.erase(tag);
        if (p.len == 0) {
            // End-of-stream marker: reserve untouched.
            epollAdd(dst, packToken(FdKind::Pair, p.src, p.fd), p.fd);
            return 0;
        }
        // The zero-copy handoff: recv() straight into caller-posted
        // storage (old-gen chunk space on the Skyway receive path).
        std::uint8_t *to = reserve(p.len);
        panicIf(to == nullptr, "pollTagInto: reserve returned null");
        recvParkedPayload(dst, p.src, p.fd, to, p.len);
        wire_.recvIntoBytes.fetch_add(p.len,
                                      std::memory_order_relaxed);
        TcpMetrics::get().recvIntoBytes.add(p.len);
        epollAdd(dst, packToken(FdKind::Pair, p.src, p.fd), p.fd);
        queueGrant(dst, p.src, p.tag, p.len);
        return static_cast<std::ptrdiff_t>(p.len);
    }
    auto mit = n.lastMiss.find(tag);
    if (mit != n.lastMiss.end() && mit->second == n.recvVersion &&
        !n.parked.empty())
        stageParked(dst, n);
    n.lastMiss[tag] = n.recvVersion;
    return -1;
}

void
TcpTransport::registerHandler(NodeId node, RequestHandler handler)
{
    MutexLock lock(handlerMutex_);
    handlers_[node] = std::move(handler);
}

std::vector<std::uint8_t>
TcpTransport::request(NodeId src, NodeId dst, int tag,
                      const std::vector<std::uint8_t> &payload,
                      const RequestOptions &opts)
{
    RequestHandler local;
    {
        MutexLock lock(handlerMutex_);
        if (src == dst)
            local = handlers_[dst];
    }
    if (src == dst) {
        panicIf(!local, "request: node has no registered handler");
        return local(src, tag, payload);
    }

    Node &n = *nodes_[src];
    Mutex *pair;
    {
        MutexLock lock(n.ctrlMutex);
        auto &slot = n.ctrlPair[dst];
        if (!slot)
            slot = std::make_unique<Mutex>();
        pair = slot.get();
    }
    // One request in flight per (src, dst) pair: the shared control
    // connection carries strict request/reply exchanges. Held across
    // the round trip BY DESIGN — it is the exchange discipline, not
    // incidental locking (lint rule 2 allowlists this site).
    MutexLock exchange(*pair);

    for (int attempt = 0; attempt <= opts.maxRetries; ++attempt) {
        if (attempt > 0) {
            wire_.connectRetries.fetch_add(1,
                                           std::memory_order_relaxed);
            TcpMetrics::get().connectRetries.inc();
        }
        int fd;
        std::uint32_t req_id;
        {
            MutexLock lock(n.ctrlMutex);
            fd = ctrlConnFor(n, src, dst);
            req_id = n.nextReqId++;
        }

        frame::ControlHeader h{
            frame::kindRequest, src, tag, req_id,
            static_cast<std::uint32_t>(payload.size())};
        std::uint8_t hdr[frame::controlHeaderBytes];
        frame::encodeControlHeader(hdr, h);
        writeTimed(fd, hdr, sizeof(hdr));
        if (!payload.empty())
            writeTimed(fd, payload.data(), payload.size());
        wire_.framesSent.fetch_add(1, std::memory_order_relaxed);
        TcpMetrics::get().framesSent.inc();

        // Wait out the reply, discarding stale replies from earlier
        // timed-out attempts by request id.
        Stopwatch sw;
        while (true) {
            std::uint64_t spent_ms = sw.elapsedNs() / 1'000'000;
            if (spent_ms >= opts.timeoutMs)
                break; // timeout: resend (bounded)
            pollfd p{fd, POLLIN, 0};
            int rc = ::poll(&p, 1,
                            static_cast<int>(opts.timeoutMs -
                                             spent_ms));
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0)
                break;
            std::uint8_t rhdr[frame::controlHeaderBytes];
            if (!recvFully(fd, rhdr, sizeof(rhdr))) {
                // Peer dropped the connection: reconnect and resend.
                MutexLock lock(n.ctrlMutex);
                ::close(fd);
                n.ctrlOut.erase(dst);
                break;
            }
            frame::ControlHeader r = frame::decodeControlHeader(rhdr);
            panicIf(r.kind != frame::kindReply,
                    "TcpTransport: unexpected frame on control reply "
                    "path");
            std::vector<std::uint8_t> reply(r.len);
            if (r.len)
                recvFully(fd, reply.data(), r.len);
            if (r.reqId != req_id)
                continue; // stale reply from a resent attempt
            return reply;
        }
    }
    panic("TcpTransport: request to node " + std::to_string(dst) +
          " timed out after " + std::to_string(opts.maxRetries) +
          " retries (tag " + std::to_string(tag) + ")");
}

void
TcpTransport::acceptPending(NodeId node)
{
    Node &n = *nodes_[node];
    while (true) {
        int fd = ::accept(n.listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            sysErr("accept");
        }
        setNoDelay(fd);
        std::uint8_t buf[frame::handshakeBytes];
        if (!recvFully(fd, buf, sizeof(buf))) {
            ::close(fd);
            continue;
        }
        frame::Handshake h{};
        if (!frame::decodeHandshake(buf, h))
            panic("TcpTransport: bad handshake magic");
        panicIf(h.src < 0 || h.src >= nodeCount_,
                "TcpTransport: handshake from out-of-range node id");
        if (h.channel == frame::channelData) {
            {
                MutexLock lock(poolMutex_);
                if (n.pairFd.count(h.src) != 0)
                    panic("TcpTransport: duplicate pair connection "
                          "from node " + std::to_string(h.src));
                n.pairFd.emplace(h.src, fd);
                PairEntry &e = pool_[pairKey(node, h.src)];
                if (!e.claimed) {
                    // An externally initiated connection (tests):
                    // count it like a claim would have.
                    e.claimed = true;
                    wire_.connectionsPooled.fetch_add(
                        1, std::memory_order_relaxed);
                    TcpMetrics::get().pooledConnections.add(1);
                }
            }
            epollAdd(node, packToken(FdKind::Pair, h.src, fd), fd);
        } else {
            n.ctrlIn.push_back(fd);
            epollAdd(node, packToken(FdKind::Ctrl, h.src, fd), fd);
        }
    }
}

void
TcpTransport::dropPair(NodeId node, NodeId peer, int fd)
{
    Node &n = *nodes_[node];
    n.hdrPartial.erase(fd);
    {
        // Erase the write queue before close so a concurrent
        // help-flush cannot land on a reused fd number.
        MutexLock lock(n.outMutex);
        n.outbound.erase(fd);
    }
    ::close(fd); // also removes it from the epoll set
    MutexLock lock(poolMutex_);
    auto it = n.pairFd.find(peer);
    if (it != n.pairFd.end() && it->second == fd)
        n.pairFd.erase(it);
    if (pool_.erase(pairKey(node, peer)))
        TcpMetrics::get().pooledConnections.add(-1);
}

bool
TcpTransport::serveControl(NodeId node, int fd)
{
    std::uint8_t hdr[frame::controlHeaderBytes];
    if (!recvFully(fd, hdr, sizeof(hdr)))
        return false;
    frame::ControlHeader h = frame::decodeControlHeader(hdr);
    panicIf(h.kind != frame::kindRequest,
            "TcpTransport: unexpected frame kind on control inbound");
    std::vector<std::uint8_t> payload(h.len);
    if (h.len)
        recvFully(fd, payload.data(), h.len);

    RequestHandler handler;
    {
        MutexLock lock(handlerMutex_);
        handler = handlers_[node];
    }
    panicIf(!handler, "request: node has no registered handler");
    std::vector<std::uint8_t> reply = handler(h.src, h.tag, payload);

    frame::ControlHeader r{
        frame::kindReply, node, h.tag, h.reqId,
        static_cast<std::uint32_t>(reply.size())};
    std::uint8_t rhdr[frame::controlHeaderBytes];
    frame::encodeControlHeader(rhdr, r);
    writeTimed(fd, rhdr, sizeof(rhdr));
    if (!reply.empty())
        writeTimed(fd, reply.data(), reply.size());
    wire_.framesSent.fetch_add(1, std::memory_order_relaxed);
    TcpMetrics::get().framesSent.inc();
    return true;
}

void
TcpTransport::handlePairReadable(NodeId node, NodeId peer, int fd)
{
    Node &n = *nodes_[node];
    // Reassemble the header without blocking: TCP has no message
    // boundaries, so a level-triggered EPOLLIN may expose only part
    // of the 13 bytes — blocking on the remainder would couple the
    // loop's liveness to peer behavior. A partial header persists in
    // hdrPartial; EPOLLIN re-fires when more bytes arrive.
    HdrBuf &hb = n.hdrPartial[fd];
    while (hb.got < frame::muxHeaderBytes) {
        ssize_t r = ::recv(fd, hb.bytes + hb.got,
                           frame::muxHeaderBytes - hb.got,
                           MSG_DONTWAIT);
        if (r > 0) {
            hb.got += static_cast<std::size_t>(r);
            continue;
        }
        if (r == 0) {
            panicIf(hb.got != 0, "peer closed mid-frame");
            dropPair(node, peer, fd);
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return; // partial header parked in hb
        sysErr("recv");
    }
    hb.got = 0; // consumed: ready for this connection's next header
    frame::MuxHeader h = frame::decodeMuxHeader(hb.bytes);
    if (h.kind == frame::kindCredit) {
        MutexLock lock(n.sendMutex);
        auto it = n.streams.find(std::make_pair(peer, h.tag));
        if (it == n.streams.end())
            return; // grant for a stream we no longer track
        TxStream &s = it->second;
        s.credit += h.arg;
        if (s.stalled && s.credit > 0) {
            s.stalled = false;
            std::uint64_t ns = monoNs() - s.stallStartNs;
            wire_.creditStallsNs.fetch_add(ns,
                                           std::memory_order_relaxed);
            TcpMetrics::get().creditStallsNs.add(ns);
        }
        return; // the loop drains sends right after the event batch
    }
    panicIf(h.kind != frame::kindStream,
            "TcpTransport: unexpected mux frame kind");
    panicIf(h.origin != peer,
            "TcpTransport: mux frame origin does not match peer");
    // Park the frame: payload stays in the kernel until a consumer
    // claims it (zero-copy) or staging relieves head-of-line.
    MutexLock lock(n.recvMutex);
    epollDel(node, fd);
    n.parked.push_back(Parked{fd, peer, h.tag, h.arg});
    ++n.recvVersion;
    {
        // Deleting the registration dropped EPOLLOUT with it; the
        // claim re-adds EPOLLIN only, so record the truth and let
        // flushPairWrites re-arm once the fd is back in the set.
        MutexLock olock(n.outMutex);
        auto it = n.outbound.find(fd);
        if (it != n.outbound.end())
            it->second.armed = false;
    }
}

void
TcpTransport::drainGrants(NodeId node)
{
    Node &n = *nodes_[node];
    std::deque<Grant> pending;
    {
        MutexLock lock(n.sendMutex);
        pending.swap(n.grants);
    }
    for (const Grant &g : pending) {
        int fd = -1;
        {
            MutexLock lock(poolMutex_);
            auto it = n.pairFd.find(g.peer);
            if (it != n.pairFd.end())
                fd = it->second;
        }
        if (fd < 0)
            continue; // peer connection gone; its streams died too
        frame::MuxHeader h{frame::kindCredit, node, g.tag, g.bytes};
        std::uint8_t hdr[frame::muxHeaderBytes];
        frame::encodeMuxHeader(hdr, h);
        sendOrQueue(n, g.peer, fd, hdr, sizeof(hdr));
        wire_.framesSent.fetch_add(1, std::memory_order_relaxed);
        TcpMetrics::get().framesSent.inc();
    }
}

void
TcpTransport::drainSends(NodeId node)
{
    Node &n = *nodes_[node];

    // Destinations with anything queued, sampled under the lock...
    std::vector<NodeId> dsts;
    {
        MutexLock lock(n.sendMutex);
        for (auto &[key, s] : n.streams) {
            if (!s.queue.empty() &&
                (dsts.empty() || dsts.back() != key.first))
                dsts.push_back(key.first);
        }
    }
    if (dsts.empty())
        return;

    // ...then pair fds resolved outside it (establishment may block
    // on connect); -1 = peer mid-connect, skip until our accept.
    std::map<NodeId, int> fds;
    for (NodeId dst : dsts)
        fds[dst] = pairFdOrClaim(node, dst);

    // Pop every frame the credit windows allow, in per-stream FIFO
    // order, then write outside the lock.
    std::vector<TxFrame> batch;
    bool popped = false;
    {
        MutexLock lock(n.sendMutex);
        for (auto &[key, s] : n.streams) {
            auto fit = fds.find(key.first);
            if (fit == fds.end() || fit->second < 0)
                continue;
            while (!s.queue.empty()) {
                std::vector<std::uint8_t> &front = s.queue.front();
                if (front.empty()) {
                    // End of stream: no payload, no credit needed.
                    TxFrame tx;
                    tx.fd = fit->second;
                    tx.peer = key.first;
                    frame::MuxHeader h{frame::kindStream, node,
                                       key.second, 0};
                    frame::encodeMuxHeader(tx.header, h);
                    batch.push_back(std::move(tx));
                    s.queue.pop_front();
                    s.active = false;
                    TcpMetrics::get().streamsActive.add(-1);
                    popped = true;
                    continue;
                }
                if (s.credit <= 0) {
                    if (!s.stalled) {
                        s.stalled = true;
                        s.stallStartNs = monoNs();
                    }
                    break; // later frames wait behind the head (FIFO)
                }
                s.credit -= static_cast<std::int64_t>(front.size());
                s.queuedBytes -= front.size();
                TxFrame tx;
                tx.fd = fit->second;
                tx.peer = key.first;
                frame::MuxHeader h{
                    frame::kindStream, node, key.second,
                    static_cast<std::uint32_t>(front.size())};
                frame::encodeMuxHeader(tx.header, h);
                tx.payload = std::move(front);
                batch.push_back(std::move(tx));
                s.queue.pop_front();
                popped = true;
            }
        }
    }
    if (popped)
        n.sendCv.notify_all();

    for (TxFrame &tx : batch) {
        // Non-blocking: what the socket refuses queues per
        // connection, so a full peer buffer can never wedge this
        // loop against another node's (the old write-write cycle).
        sendOrQueue(n, tx.peer, tx.fd, tx.header, sizeof(tx.header));
        if (!tx.payload.empty())
            sendOrQueue(n, tx.peer, tx.fd, tx.payload.data(),
                        tx.payload.size());
        wire_.framesSent.fetch_add(1, std::memory_order_relaxed);
        TcpMetrics::get().framesSent.inc();
    }
}

void
TcpTransport::eventLoop(NodeId node)
{
    if (options_.pinEventLoops) {
        unsigned hw = std::thread::hardware_concurrency();
        if (hw > 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(static_cast<unsigned>(node) % hw, &set);
            ::pthread_setaffinity_np(::pthread_self(), sizeof(set),
                                     &set);
        }
    }

    Node &n = *nodes_[node];
    while (running_.load(std::memory_order_relaxed)) {
        drainGrants(node);
        drainSends(node);
        flushPairWrites(node);
        rescueStalledStreams(node);

        epoll_event evs[64];
        int rc = ::epoll_wait(n.epollFd, evs, 64, loopWaitMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            sysErr("epoll_wait");
        }
        if (rc == 0)
            continue;
        wire_.epollWakeups.fetch_add(1, std::memory_order_relaxed);
        TcpMetrics::get().epollWakeups.inc();

        for (int i = 0; i < rc; ++i) {
            std::uint64_t token = evs[i].data.u64;
            auto kind = static_cast<FdKind>(token >> 56);
            int fd = static_cast<int>(
                static_cast<std::uint32_t>(token & 0xFFFFFFFF));
            NodeId peer = static_cast<NodeId>((token >> 32) & 0xFFFFFF);
            switch (kind) {
              case FdKind::Wake: {
                  std::uint8_t buf[64];
                  while (::read(n.wakeRead, buf, sizeof(buf)) > 0) {
                  }
                  break;
              }
              case FdKind::Listen:
                acceptPending(node);
                break;
              case FdKind::Pair:
                if (evs[i].events & EPOLLOUT)
                    flushPairWrites(node);
                if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
                    handlePairReadable(node, peer, fd);
                break;
              case FdKind::Ctrl:
                if (!serveControl(node, fd)) {
                    ::close(fd); // close also leaves the epoll set
                    n.ctrlIn.erase(std::find(n.ctrlIn.begin(),
                                             n.ctrlIn.end(), fd));
                }
                break;
            }
        }
    }
}

} // namespace skyway
