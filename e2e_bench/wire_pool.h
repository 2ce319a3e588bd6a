// A pool of non-blocking connections to the net::Server, driven by one
// thread. The open-loop load generator sends each request on an idle
// connection, so a request never waits on the client side behind another
// request's reply the way it would on one blocking net::Client; the
// server sees many independent users. Each connection PREPAREs the
// statements itself and executes with the handles the server returned to
// it. Speaks the protocol through the public helpers of net/protocol.h.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"

namespace e2e {

class WirePool {
 public:
  /// Opens `n` connections to 127.0.0.1:`port` and PREPAREs every
  /// statement of `sqls` on each; statement k is executed with index k.
  static idf::Result<std::unique_ptr<WirePool>> Connect(
      uint16_t port, int n, const std::vector<std::string>& sqls) {
    std::unique_ptr<WirePool> pool(new WirePool());
    for (int i = 0; i < n; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return idf::Status::Internal("socket failed");
      pool->conns_.push_back(Conn{fd, {}, {}, false, 0});
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        return idf::Status::Internal("connect failed");
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Conn& c = pool->conns_.back();
      for (const std::string& sql : sqls) {
        std::string payload;
        idf::net::WireWriter(&payload).PutString(sql);
        IDF_RETURN_NOT_OK(WriteAll(fd, idf::net::EncodeFrame(idf::net::Op::kPrepare, payload)));
        IDF_ASSIGN_OR_RETURN(idf::net::Frame frame, ReadFrame(&c));
        if (frame.op != idf::net::Op::kOkPrepared) {
          idf::Status st = idf::net::DecodeError(frame.payload, frame.op);
          return st.ok() ? idf::Status::Internal("unexpected reply to PREPARE") : st;
        }
        IDF_ASSIGN_OR_RETURN(idf::net::PreparedReply rep,
                             idf::net::DecodeOkPrepared(frame.payload));
        c.handles.push_back(rep.handle);
      }
    }
    return pool;
  }

  ~WirePool() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  WirePool(const WirePool&) = delete;
  WirePool& operator=(const WirePool&) = delete;

  size_t busy() const { return busy_; }
  bool HasIdle() const { return busy_ < conns_.size(); }

  /// EXECUTEs statement `stmt` with `params` on an idle connection and
  /// remembers `tag` for its reply. Call only when HasIdle().
  idf::Status Send(size_t stmt, const std::vector<idf::Value>& params, uint64_t tag) {
    for (Conn& c : conns_) {
      if (c.busy) continue;
      IDF_RETURN_NOT_OK(WriteAll(
          c.fd, idf::net::EncodeFrame(idf::net::Op::kExecute,
                                      idf::net::EncodeExecute(c.handles.at(stmt), params))));
      c.busy = true;
      c.tag = tag;
      ++busy_;
      return idf::Status::OK();
    }
    return idf::Status::Internal("no idle connection");
  }

  /// Appends every reply completed so far, as (tag, reply frame), to
  /// `done`. Never blocks.
  idf::Status Poll(std::vector<std::pair<uint64_t, idf::net::Frame>>* done) {
    fds_.clear();
    for (const Conn& c : conns_) fds_.push_back(pollfd{c.fd, POLLIN, 0});
    int rc = ::poll(fds_.data(), fds_.size(), 0);
    if (rc < 0) return errno == EINTR ? idf::Status::OK() : idf::Status::Internal("poll failed");
    char buf[64 * 1024];
    for (size_t i = 0; i < fds_.size(); ++i) {
      if ((fds_[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return idf::Status::Internal("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        return idf::Status::Internal("recv failed");
      }
      IDF_RETURN_NOT_OK(c.decoder.Feed(buf, static_cast<size_t>(n)));
      idf::net::Frame frame;
      while (c.decoder.Next(&frame)) {
        if (!c.busy) return idf::Status::Internal("reply without a request");
        done->emplace_back(c.tag, std::move(frame));
        c.busy = false;
        --busy_;
      }
    }
    return idf::Status::OK();
  }

 private:
  struct Conn {
    int fd;
    idf::net::FrameDecoder decoder;
    std::vector<uint64_t> handles;  // this connection's prepared statements
    bool busy;
    uint64_t tag;
  };
  WirePool() = default;

  static idf::Status WriteAll(int fd, const std::string& frame) {
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return idf::Status::Internal("send failed");
      off += static_cast<size_t>(n);
    }
    return idf::Status::OK();
  }

  // Blocking read of one reply frame (set-up only).
  static idf::Result<idf::net::Frame> ReadFrame(Conn* c) {
    idf::net::Frame frame;
    char buf[4096];
    while (!c->decoder.Next(&frame)) {
      ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return idf::Status::Internal("recv failed");
      IDF_RETURN_NOT_OK(c->decoder.Feed(buf, static_cast<size_t>(n)));
    }
    return frame;
  }

  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;
  size_t busy_ = 0;
};

}  // namespace e2e
