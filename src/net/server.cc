#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"

namespace idf {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// One client connection's state machine: reassembles request frames
/// from whatever the socket delivers and drains responses through a
/// write buffer that survives short writes.
struct Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;
  size_t outpos = 0;
  bool close_after_flush = false;
  bool epollout = false;  // EPOLLOUT is in the registered interest

  void Queue(std::string frame) { outbuf.append(frame); }
  bool want_write() const { return outpos < outbuf.size(); }
};

}  // namespace

struct Server::Impl {
  QueryServicePtr service;
  ServerConfig config;
  int listen_fd = -1;
  std::atomic<bool> running{false};

  struct IoLoop {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: shutdown + new-connection kick
    std::mutex mu;     // guards pending
    std::vector<int> pending;
    std::unordered_map<int, Connection> conns;
    std::thread thread;
  };
  std::vector<std::unique_ptr<IoLoop>> loops;
  std::thread accept_thread;
  int accept_wake_fd = -1;

  ~Impl() { StopAll(); }

  Status Listen() {
    listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return Errno("socket");
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad listen address " + config.host);
    }
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      return Errno("bind " + config.host + ":" + std::to_string(config.port));
    }
    if (listen(listen_fd, 128) < 0) return Errno("listen");
    IDF_RETURN_NOT_OK(SetNonBlocking(listen_fd));
    // Read the kernel-assigned port back (config.port == 0).
    socklen_t len = sizeof(addr);
    if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      return Errno("getsockname");
    }
    config.port = ntohs(addr.sin_port);
    return Status::OK();
  }

  Status StartThreads() {
    running.store(true, std::memory_order_release);
    accept_wake_fd = eventfd(0, EFD_NONBLOCK);
    if (accept_wake_fd < 0) return Errno("eventfd");
    for (size_t i = 0; i < config.io_threads; ++i) {
      auto loop = std::make_unique<IoLoop>();
      loop->epoll_fd = epoll_create1(0);
      loop->wake_fd = eventfd(0, EFD_NONBLOCK);
      if (loop->epoll_fd < 0 || loop->wake_fd < 0) return Errno("epoll/eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = loop->wake_fd;
      if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) < 0) {
        return Errno("epoll_ctl(wake)");
      }
      loops.push_back(std::move(loop));
    }
    for (auto& loop : loops) {
      IoLoop* l = loop.get();
      l->thread = std::thread([this, l] { RunLoop(l); });
    }
    accept_thread = std::thread([this] { RunAccept(); });
    return Status::OK();
  }

  void StopAll() {
    if (!running.exchange(false)) {
      // Never started or already stopped; still reap any resources.
    } else {
      const uint64_t one = 1;
      if (accept_wake_fd >= 0) {
        [[maybe_unused]] ssize_t n =
            write(accept_wake_fd, &one, sizeof(one));
      }
      for (auto& loop : loops) {
        [[maybe_unused]] ssize_t n = write(loop->wake_fd, &one, sizeof(one));
      }
    }
    if (accept_thread.joinable()) accept_thread.join();
    for (auto& loop : loops) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    for (auto& loop : loops) {
      for (auto& [fd, conn] : loop->conns) close(fd);
      loop->conns.clear();
      for (int fd : loop->pending) close(fd);
      loop->pending.clear();
      if (loop->epoll_fd >= 0) close(loop->epoll_fd);
      if (loop->wake_fd >= 0) close(loop->wake_fd);
      loop->epoll_fd = loop->wake_fd = -1;
    }
    loops.clear();
    if (accept_wake_fd >= 0) close(accept_wake_fd);
    accept_wake_fd = -1;
    if (listen_fd >= 0) close(listen_fd);
    listen_fd = -1;
  }

  void RunAccept() {
    const int epfd = epoll_create1(0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = accept_wake_fd;
    epoll_ctl(epfd, EPOLL_CTL_ADD, accept_wake_fd, &ev);
    size_t next_loop = 0;
    while (running.load(std::memory_order_acquire)) {
      epoll_event events[16];
      const int n = epoll_wait(epfd, events, 16, 100);
      if (n < 0 && errno != EINTR) break;
      for (;;) {
        const int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN: drained
        if (!SetNonBlocking(fd).ok()) {
          close(fd);
          continue;
        }
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        service->NoteNetConnection();
        // Hand the fd to a loop round-robin; the loop adopts it at its
        // next wakeup (connections are only ever touched by their loop).
        IoLoop* loop = loops[next_loop++ % loops.size()].get();
        {
          std::lock_guard<std::mutex> lock(loop->mu);
          loop->pending.push_back(fd);
        }
        const uint64_t kick = 1;
        [[maybe_unused]] ssize_t w = write(loop->wake_fd, &kick, sizeof(kick));
      }
    }
    close(epfd);
  }

  /// Registers EPOLLOUT exactly while output is pending; most requests
  /// flush in full and leave the interest as it was, with no syscall.
  void UpdateInterest(IoLoop* loop, Connection& conn) {
    const bool want = conn.want_write();
    if (want == conn.epollout) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.epollout = want;
  }

  void CloseConn(IoLoop* loop, int fd) {
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    loop->conns.erase(fd);
  }

  /// Writes as much of the out buffer as the socket accepts right now.
  /// Returns false when the connection died.
  bool Flush(Connection& conn) {
    while (conn.want_write()) {
      const ssize_t n = write(conn.fd, conn.outbuf.data() + conn.outpos,
                              conn.outbuf.size() - conn.outpos);
      if (n > 0) {
        conn.outpos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    conn.outbuf.clear();
    conn.outpos = 0;
    return !conn.close_after_flush;
  }

  /// Executes one request frame and queues the response.
  void HandleFrame(Connection& conn, const Frame& frame) {
    service->NoteNetRequest();
    switch (frame.op) {
      case Op::kPrepare: {
        WireReader r(frame.payload);
        Result<std::string> sql = r.String();
        Status status = sql.ok() ? r.ExpectEnd() : sql.status();
        if (!status.ok()) {
          conn.Queue(EncodeFrame(Op::kError, EncodeError(status)));
          return;
        }
        Result<PreparedInfo> info = service->Prepare(sql.ValueUnsafe());
        if (!info.ok()) {
          conn.Queue(EncodeFrame(Op::kError, EncodeError(info.status())));
          return;
        }
        conn.Queue(EncodeFrame(
            Op::kOkPrepared,
            EncodeOkPrepared(info->handle, info->param_types,
                             *info->result_schema)));
        return;
      }
      case Op::kExecute: {
        Result<ExecuteRequest> req = DecodeExecute(frame.payload);
        if (!req.ok()) {
          conn.Queue(EncodeFrame(Op::kError, EncodeError(req.status())));
          return;
        }
        QueryResult result =
            service->ExecutePrepared(req->handle, req->params);
        QueueQueryResult(conn, result);
        return;
      }
      case Op::kQuery: {
        WireReader r(frame.payload);
        Result<std::string> sql = r.String();
        Status status = sql.ok() ? r.ExpectEnd() : sql.status();
        if (!status.ok()) {
          conn.Queue(EncodeFrame(Op::kError, EncodeError(status)));
          return;
        }
        QueryResult result = service->Execute(sql.ValueUnsafe());
        QueueQueryResult(conn, result);
        return;
      }
      case Op::kClose: {
        WireReader r(frame.payload);
        Result<uint64_t> handle = r.U64();
        Status status = handle.ok() ? r.ExpectEnd() : handle.status();
        if (status.ok()) status = service->ClosePrepared(*handle);
        if (!status.ok()) {
          conn.Queue(EncodeFrame(Op::kError, EncodeError(status)));
          return;
        }
        conn.Queue(EncodeFrame(Op::kOkRows, EncodeOkRows(0, Schema(), {})));
        return;
      }
      case Op::kStats: {
        std::string payload;
        WireWriter w(&payload);
        w.PutString(service->Stats().ToJson());
        conn.Queue(EncodeFrame(Op::kStatsJson, payload));
        return;
      }
      default:
        conn.Queue(EncodeFrame(
            Op::kError,
            EncodeError(Status::InvalidArgument(
                "unknown opcode " +
                std::to_string(static_cast<unsigned>(frame.op))))));
        return;
    }
  }

  void QueueQueryResult(Connection& conn, const QueryResult& result) {
    if (result.status.ok()) {
      conn.Queue(EncodeFrame(
          Op::kOkRows,
          EncodeOkRows(result.epoch,
                       result.schema ? *result.schema : Schema(),
                       result.rows)));
    } else if (result.status.IsCapacityError()) {
      // Backpressure, not failure: the client should retry.
      service->NoteNetBusyRejection();
      conn.Queue(EncodeFrame(Op::kBusy, EncodeBusy(result.status)));
    } else {
      conn.Queue(EncodeFrame(Op::kError, EncodeError(result.status)));
    }
  }

  void RunLoop(IoLoop* loop) {
    while (running.load(std::memory_order_acquire)) {
      epoll_event events[32];
      const int n = epoll_wait(loop->epoll_fd, events, 32, 100);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == loop->wake_fd) {
          uint64_t drain;
          while (read(loop->wake_fd, &drain, sizeof(drain)) > 0) {
          }
          AdoptPending(loop);
          continue;
        }
        auto it = loop->conns.find(fd);
        if (it == loop->conns.end()) continue;
        Connection& conn = it->second;
        bool alive = true;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) alive = false;
        if (alive && (events[i].events & EPOLLIN)) alive = ReadSome(conn);
        if (alive && (events[i].events & EPOLLOUT)) alive = Flush(conn);
        if (!alive) {
          CloseConn(loop, fd);
        } else {
          UpdateInterest(loop, conn);
        }
      }
      // A stopped epoll_wait timeout also adopts stragglers (covers a
      // wakeup racing the epoll registration).
      AdoptPending(loop);
    }
  }

  void AdoptPending(IoLoop* loop) {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      fds.swap(loop->pending);
    }
    for (int fd : fds) {
      Connection conn;
      conn.fd = fd;
      loop->conns.emplace(fd, std::move(conn));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        close(fd);
        loop->conns.erase(fd);
      }
    }
  }

  /// Reads whatever the socket has, feeds the frame decoder, and serves
  /// every complete frame. Returns false when the connection died.
  bool ReadSome(Connection& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n == 0) return false;  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      Status fed = conn.decoder.Feed(buf, static_cast<size_t>(n));
      if (!fed.ok()) {
        // Protocol violation (oversized frame, ...): tell the peer once,
        // then close after the error drains.
        conn.Queue(EncodeFrame(Op::kError, EncodeError(fed)));
        conn.close_after_flush = true;
        break;
      }
      // A short read drained the socket. The epoll set is level-triggered,
      // so bytes that arrive later wake the loop again; reading on until
      // EAGAIN would only add a syscall that returns nothing.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    Frame frame;
    while (conn.decoder.Next(&frame)) HandleFrame(conn, frame);
    return Flush(conn);
  }
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {
  port_ = impl_->config.port;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (impl_ != nullptr) impl_->StopAll();
}

Result<std::unique_ptr<Server>> Server::Start(QueryServicePtr service,
                                              const ServerConfig& config) {
  if (service == nullptr) {
    return Status::InvalidArgument("net::Server needs a QueryService");
  }
  if (config.io_threads == 0) {
    return Status::InvalidArgument("io_threads must be at least 1");
  }
  auto impl = std::make_unique<Impl>();
  impl->service = std::move(service);
  impl->config = config;
  IDF_RETURN_NOT_OK(impl->Listen());
  IDF_RETURN_NOT_OK(impl->StartThreads());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

}  // namespace net
}  // namespace idf
