#include "client.hh"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/event_log.hh"
#include "common/logging.hh"
#include "common/net.hh"
#include "common/strutil.hh"
#include "harness/journal.hh"
#include "harness/proto.hh"

namespace manna::harness::client
{

namespace
{

/** Connection-establishment budget: the daemon may still be coming
 * up (service_smoke.sh starts it in the background) or restarting
 * between resubmissions. */
constexpr int kConnectAttempts = 100;
constexpr int kConnectBackoffMs = 100;

/** Full submit→terminal cycles per execute() call before the
 * attempt is surfaced as IoError (runIsolated's retry policy then
 * decides whether the job gets another one). */
constexpr int kMaxResubmits = 5;

ErrorKind
kindFromWire(std::string_view text)
{
    if (text == toString(ErrorKind::Config))
        return ErrorKind::Config;
    if (text == toString(ErrorKind::Assembly))
        return ErrorKind::Assembly;
    if (text == toString(ErrorKind::Io))
        return ErrorKind::Io;
    return ErrorKind::Sim;
}

/**
 * One connection to mannad shared by every sweep worker thread: a
 * background receiver routes response frames to per-job slots; a
 * lost connection bumps the generation counter so blocked executors
 * reconnect and resubmit.
 */
class DaemonClient
{
  public:
    DaemonClient(net::NetAddress addr, std::string name)
        : addr_(std::move(addr)), name_(std::move(name))
    {}

    ~DaemonClient()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shuttingDown_ = true;
            if (fd_ >= 0)
                ::shutdown(fd_, SHUT_RDWR);
        }
        if (receiver_.joinable())
            receiver_.join();
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    MannaResult
    execute(const SweepJob &job, std::uint64_t id,
            const CancelToken &token)
    {
        std::string submit = strformat(
            "id %llu priority 0 job ",
            static_cast<unsigned long long>(id));
        proto::appendSized(submit, proto::encodeJob(job));

        for (int cycle = 0; cycle < kMaxResubmits; ++cycle) {
            if (token.cancelled())
                throw SimError("job cancelled before submission");
            ensureConnected(); // throws IoError when unreachable
            std::uint64_t gen;
            {
                std::lock_guard<std::mutex> lock(mu_);
                gen = generation_;
                slots_[id] = Slot{};
            }
            if (!sendRequest(proto::MsgType::Submit, submit))
                continue; // connection just died; reconnect & retry

            bool cancelSent = false;
            auto cancelDeadline =
                std::chrono::steady_clock::time_point::max();
            std::unique_lock<std::mutex> lock(mu_);
            while (true) {
                Slot &slot = slots_[id];
                if (slot.done) {
                    const Slot out = std::move(slot);
                    slots_.erase(id);
                    lock.unlock();
                    if (out.ok) {
                        const auto result =
                            decodeResult(out.resultText);
                        if (!result)
                            throw IoError(
                                "daemon returned a malformed "
                                "result payload");
                        return *result;
                    }
                    throw Error(out.kind, out.message,
                                ErrorContext{job.fingerprint(),
                                             job.label()});
                }
                if (slot.retryAfterMs > 0) {
                    const std::uint64_t delay = slot.retryAfterMs;
                    slot.retryAfterMs = 0;
                    lock.unlock();
                    // Admission pushback is flow control, not a
                    // failure: wait as told, then resubmit.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(delay));
                    sendRequest(proto::MsgType::Submit, submit);
                    lock.lock();
                    continue;
                }
                if (generation_ != gen) {
                    slots_.erase(id);
                    break; // reconnect + resubmit
                }
                if (token.cancelled() && !cancelSent) {
                    lock.unlock();
                    sendRequest(
                        proto::MsgType::Cancel,
                        strformat("id %llu",
                                  static_cast<unsigned long long>(
                                      id)));
                    cancelSent = true;
                    cancelDeadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
                    lock.lock();
                    continue;
                }
                if (cancelSent && std::chrono::steady_clock::now() >
                                      cancelDeadline) {
                    slots_.erase(id);
                    throw SimError(
                        "job cancelled; daemon did not confirm in "
                        "time");
                }
                cv_.wait_for(lock, std::chrono::milliseconds(20));
            }
            if (token.cancelled())
                throw SimError("job cancelled during daemon "
                               "reconnection");
        }
        throw IoError(strformat(
            "connection to %s kept failing; giving up this attempt",
            addr_.describe().c_str()));
    }

  private:
    struct Slot
    {
        bool done = false;
        bool ok = false;
        std::string resultText;
        ErrorKind kind = ErrorKind::Sim;
        std::string message;
        std::uint64_t retryAfterMs = 0;
    };

    /** Serialized (re)connection: connect with retries, handshake,
     * spawn the receiver. Throws IoError when the budget runs out. */
    void
    ensureConnected()
    {
        std::lock_guard<std::mutex> serial(connectMu_);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (fd_ >= 0)
                return;
        }
        if (receiver_.joinable())
            receiver_.join(); // the old receiver has observed the
                              // dead fd and exited (or is about to)
        std::string hello = "hello v1 name ";
        proto::appendSized(hello, name_);
        const proto::Frame frame{true, proto::MsgType::Hello, hello};
        proto::Frame reply;
        int fd = -1;
        for (int i = 0; i < kConnectAttempts; ++i) {
            if (i > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kConnectBackoffMs));
            fd = net::connectTo(addr_);
            if (fd < 0)
                continue;
            std::string err;
            auto status = proto::ReadStatus::Eof;
            if (proto::writeFrame(fd, frame))
                status = proto::readFrame(fd, false, &reply, &err);
            if (status == proto::ReadStatus::Ok &&
                reply.type == proto::MsgType::HelloOk)
                break;
            ::close(fd);
            fd = -1;
            // A reply that is not HelloOk is a refusal; a connection
            // dropped before any reply is transient: reconnect.
            if (status == proto::ReadStatus::Ok ||
                status == proto::ReadStatus::Bad)
                throw IoError(strformat(
                    "handshake with %s failed%s%s",
                    addr_.describe().c_str(), err.empty() ? "" : ": ",
                    err.c_str()));
            warn("daemon at %s dropped the connection during the "
                 "handshake; reconnecting",
                 addr_.describe().c_str());
        }
        if (fd < 0)
            throw IoError(strformat("cannot reach mannad at %s",
                                    addr_.describe().c_str()));
        proto::FieldReader in(reply.payload);
        in.expect("ok");
        in.expect("v1");
        in.expect("pool");
        (void)in.u64();
        in.expect("queue_depth");
        (void)in.u64();
        in.expect("events");
        const std::string daemonEvents = in.sized();
        if (in.ok() && !daemonEvents.empty() &&
            !eventsRegistered_) {
            // The daemon advertises its event-log file: merge it
            // into this client's harness trace so daemon-side spans
            // (server.accept, job.enqueue) appear with
            // their own pid track (docs/OBSERVABILITY.md).
            events::EventLog::instance().registerMergeFile(
                daemonEvents);
            eventsRegistered_ = true;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            fd_ = fd;
        }
        receiver_ = std::thread([this] { receiverLoop(); });
    }

    bool
    sendRequest(proto::MsgType type, const std::string &payload)
    {
        std::lock_guard<std::mutex> lock(sendMu_);
        int fd;
        {
            std::lock_guard<std::mutex> state(mu_);
            fd = fd_;
        }
        if (fd < 0)
            return false;
        proto::Frame frame{true, type, payload};
        if (!proto::writeFrame(fd, frame)) {
            connectionLost();
            return false;
        }
        return true;
    }

    void
    connectionLost()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ >= 0) {
            ::shutdown(fd_, SHUT_RDWR);
            ::close(fd_);
            fd_ = -1;
        }
        ++generation_;
        cv_.notify_all();
    }

    void
    receiverLoop()
    {
        while (true) {
            int fd;
            {
                std::lock_guard<std::mutex> lock(mu_);
                fd = fd_;
                if (shuttingDown_)
                    return;
            }
            if (fd < 0)
                return;
            proto::Frame frame;
            std::string err;
            const proto::ReadStatus status =
                proto::readFrame(fd, false, &frame, &err);
            if (status != proto::ReadStatus::Ok) {
                // Eof is a plain close; a bad or torn frame is a
                // fault the executors recover from by resubmitting.
                if (status != proto::ReadStatus::Eof)
                    warn("daemon sent a %s frame%s%s; resubmitting",
                         status == proto::ReadStatus::Bad ? "bad"
                                                          : "torn",
                         err.empty() ? "" : ": ", err.c_str());
                connectionLost();
                return;
            }
            handleResponse(frame);
        }
    }

    void
    handleResponse(const proto::Frame &frame)
    {
        proto::FieldReader in(frame.payload);
        switch (frame.type) {
          case proto::MsgType::Accepted:
            break; // informational
          case proto::MsgType::RetryAfter: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("retry_ms");
            const std::uint64_t ms = in.u64();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.retryAfterMs = ms > 0 ? ms : 1;
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::Result: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("result");
            std::string text = in.sized();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.done = true;
                it->second.ok = true;
                it->second.resultText = std::move(text);
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::JobFailed: {
            in.expect("id");
            const std::uint64_t id = in.u64();
            in.expect("kind");
            const std::string kind(in.token());
            in.expect("msg");
            std::string msg = in.sized();
            if (!in.ok())
                break;
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(id);
            if (it != slots_.end()) {
                it->second.done = true;
                it->second.ok = false;
                it->second.kind = kindFromWire(kind);
                it->second.message = std::move(msg);
                cv_.notify_all();
            }
            break;
          }
          case proto::MsgType::Reject: {
            proto::FieldReader rej(frame.payload);
            warn("daemon rejected the session: %s",
                 rej.sized().c_str());
            connectionLost();
            break;
          }
          default:
            break; // Pong/StatsReport: not used on this connection
        }
    }

    const net::NetAddress addr_;
    const std::string name_;
    std::mutex connectMu_; ///< serializes reconnection
    std::mutex sendMu_;    ///< serializes frame writes
    std::mutex mu_;        ///< guards fd_/slots_/generation_
    std::condition_variable cv_;
    std::map<std::uint64_t, Slot> slots_;
    std::thread receiver_;
    int fd_ = -1;
    std::uint64_t generation_ = 0;
    bool shuttingDown_ = false;
    bool eventsRegistered_ = false;
};

/** Short-lived control connection for ping/stats/shutdown. */
proto::Frame
controlRequest(const std::string &address, proto::MsgType type,
               proto::MsgType expectReply)
{
    const net::NetAddress addr = net::parseAddress(address);
    net::ScopedFd fd(net::connectTo(addr));
    if (!fd.valid())
        throw IoError(strformat("cannot reach mannad at %s",
                                addr.describe().c_str()));
    std::string hello = "hello v1 name ";
    proto::appendSized(hello, "manna-submit-control");
    std::string err;
    proto::Frame reply;
    if (!proto::writeFrame(fd.get(),
                           {true, proto::MsgType::Hello, hello}) ||
        proto::readFrame(fd.get(), false, &reply, &err) !=
            proto::ReadStatus::Ok ||
        reply.type != proto::MsgType::HelloOk)
        throw IoError(strformat("handshake with %s failed%s%s",
                                addr.describe().c_str(),
                                err.empty() ? "" : ": ",
                                err.c_str()));
    if (!proto::writeFrame(fd.get(), {true, type, ""}))
        throw IoError("daemon connection lost mid-request");
    if (proto::readFrame(fd.get(), false, &reply, &err) !=
            proto::ReadStatus::Ok ||
        reply.type != expectReply)
        throw IoError(strformat("unexpected daemon reply%s%s",
                                err.empty() ? "" : ": ",
                                err.c_str()));
    return reply;
}

} // namespace

std::string
defaultServerAddress()
{
    const char *v = std::getenv("MANNA_SERVER");
    return v ? v : "";
}

SweepReport
runServerSweep(SweepRunner &runner,
               const std::vector<SweepJob> &jobs,
               const SweepOptions &opts)
{
    const net::NetAddress addr = net::parseAddress(opts.server);
    DaemonClient daemon(
        addr, strformat("client-%ld", static_cast<long>(::getpid())));

    std::vector<std::string> labels;
    std::vector<std::uint64_t> fingerprints;
    labels.reserve(jobs.size());
    fingerprints.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        labels.push_back(job.label());
        fingerprints.push_back(job.fingerprint());
    }

    return runner.runIsolated(
        jobs.size(),
        [&jobs, &daemon](std::size_t i, const CancelToken &cancel) {
            return daemon.execute(jobs[i], i, cancel);
        },
        labels, fingerprints, opts);
}

bool
pingServer(const std::string &address, std::string *err)
{
    try {
        controlRequest(address, proto::MsgType::Ping,
                       proto::MsgType::Pong);
        return true;
    } catch (const Error &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

std::string
fetchServerStats(const std::string &address)
{
    return controlRequest(address, proto::MsgType::Stats,
                          proto::MsgType::StatsReport)
        .payload;
}

void
requestServerShutdown(const std::string &address)
{
    controlRequest(address, proto::MsgType::Shutdown,
                   proto::MsgType::Pong);
}

} // namespace manna::harness::client
