// Network front end: wire framing (round trips, torn reads, oversized
// frames), value/schema serialization, loopback prepare/execute/query
// against a live server, frames torn across socket reads and a reply
// larger than the socket buffer, concurrent clients under a live append
// stream, and CapacityError-to-BUSY backpressure mapping.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/query_service.h"

namespace idf {
namespace net {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
      {{"id", TypeId::kInt64, false}, {"name", TypeId::kString, false}});
}

RowVec MakeRows(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i))});
  }
  return rows;
}

QueryServicePtr MakeServiceWithTable(size_t n, ServiceConfig cfg = {}) {
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df =
      session
          ->CreateDataFrame(TestSchema(), MakeRows(0, static_cast<int64_t>(n)),
                            "people")
          .ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "people_by_id")
                 .ValueOrDie()
                 .relation();
  EXPECT_TRUE(service->RegisterTable("people", rel).ok());
  return service;
}

TEST(NetProtocolTest, FrameRoundTripSingleChunk) {
  const std::string a = EncodeFrame(Op::kQuery, "hello");
  const std::string b = EncodeFrame(Op::kStats, "");
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed((a + b).data(), a.size() + b.size()).ok());
  Frame f;
  ASSERT_TRUE(dec.Next(&f));
  EXPECT_EQ(f.op, Op::kQuery);
  EXPECT_EQ(f.payload, "hello");
  ASSERT_TRUE(dec.Next(&f));
  EXPECT_EQ(f.op, Op::kStats);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(dec.Next(&f));
}

TEST(NetProtocolTest, TornReadsReassemble) {
  // Feed two frames one byte at a time: partial length prefixes, partial
  // payloads, and a frame boundary splitting a read must all reassemble.
  const std::string wire =
      EncodeFrame(Op::kPrepare, "SELECT 1") + EncodeFrame(Op::kClose, "XYZ");
  FrameDecoder dec;
  std::vector<Frame> frames;
  for (char c : wire) {
    ASSERT_TRUE(dec.Feed(&c, 1).ok());
    Frame f;
    while (dec.Next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].op, Op::kPrepare);
  EXPECT_EQ(frames[0].payload, "SELECT 1");
  EXPECT_EQ(frames[1].op, Op::kClose);
  EXPECT_EQ(frames[1].payload, "XYZ");
}

TEST(NetProtocolTest, OversizedFrameIsRejectedWithoutBuffering) {
  std::string header;
  WireWriter w(&header);
  w.PutU32(kMaxFrameBytes + 1);
  FrameDecoder dec;
  Status s = dec.Feed(header.data(), header.size());
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The decoder is poisoned: further bytes are refused instead of being
  // misinterpreted mid-stream.
  const char byte = 0;
  EXPECT_FALSE(dec.Feed(&byte, 1).ok());
}

TEST(NetProtocolTest, ZeroLengthFrameIsRejected) {
  const char header[4] = {0, 0, 0, 0};
  FrameDecoder dec;
  EXPECT_FALSE(dec.Feed(header, sizeof(header)).ok());
}

TEST(NetProtocolTest, ValueAndRowRoundTrip) {
  std::string buf;
  WireWriter w(&buf);
  const Row row = {Value::Null(), Value(true), Value(int32_t{-7}),
                   Value(int64_t{1} << 40), Value(3.25), Value("héllo")};
  w.PutRow(row);
  WireReader r(buf);
  Row back = r.ReadRow().ValueOrDie();
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(back, row);
}

TEST(NetProtocolTest, SchemaRoundTrip) {
  std::string buf;
  WireWriter w(&buf);
  w.PutSchema(*TestSchema());
  WireReader r(buf);
  SchemaPtr back = r.ReadSchema().ValueOrDie();
  ASSERT_EQ(back->num_fields(), 2);
  EXPECT_EQ(back->field(0).name, "id");
  EXPECT_EQ(back->field(0).type, TypeId::kInt64);
  EXPECT_EQ(back->field(1).name, "name");
  EXPECT_EQ(back->field(1).type, TypeId::kString);
}

TEST(NetProtocolTest, TruncatedPayloadFailsCleanly) {
  std::string buf;
  WireWriter w(&buf);
  w.PutString("abcdef");
  // Drop the last two bytes: the reader must error, not over-read.
  WireReader r(buf.data(), buf.size() - 2);
  EXPECT_FALSE(r.String().ok());
  // A length prefix pointing past the end is equally harmless.
  std::string lying;
  WireWriter w2(&lying);
  w2.PutU32(1000);
  WireReader r2(lying);
  EXPECT_FALSE(r2.String().ok());
  // Trailing garbage after a well-formed payload is a protocol error.
  std::string padded;
  WireWriter w3(&padded);
  w3.PutString("x");
  w3.PutU8(0);
  WireReader r3(padded);
  ASSERT_TRUE(r3.String().ok());
  EXPECT_FALSE(r3.ExpectEnd().ok());
}

TEST(NetProtocolTest, ErrorPayloadCarriesStatusCode) {
  const Status in = Status::KeyError("no such table");
  Status out = DecodeError(EncodeError(in), Op::kError);
  EXPECT_TRUE(out.IsKeyError()) << out.ToString();
  EXPECT_EQ(out.message(), "no such table");
  // BUSY always decodes to CapacityError so clients can key retry logic
  // off the status code alone.
  Status busy =
      DecodeError(EncodeBusy(Status::CapacityError("full")), Op::kBusy);
  EXPECT_TRUE(busy.IsCapacityError()) << busy.ToString();
  // A malformed error payload still yields a failure, never OK.
  EXPECT_FALSE(DecodeError("", Op::kError).ok());
}

TEST(NetProtocolTest, LoopbackPrepareExecuteQueryCloseStats) {
  auto service = MakeServiceWithTable(500);
  auto server = Server::Start(service, ServerConfig{}).ValueOrDie();
  ASSERT_GT(server->port(), 0);

  auto client = Client::Connect("127.0.0.1", server->port()).ValueOrDie();
  PreparedReply prep =
      client->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
  ASSERT_EQ(prep.param_types.size(), 1u);
  EXPECT_EQ(prep.param_types[0], TypeId::kInt64);
  ASSERT_EQ(prep.schema->num_fields(), 1);
  EXPECT_EQ(prep.schema->field(0).name, "name");

  for (int64_t id : {int64_t{0}, int64_t{42}, int64_t{499}}) {
    RowsReply rows = client->Execute(prep.handle, {Value(id)}).ValueOrDie();
    ASSERT_EQ(rows.rows.size(), 1u);
    EXPECT_EQ(rows.rows[0][0].string_value(), "n" + std::to_string(id));
  }

  // Pipelined burst: one write for the whole batch, replies in order.
  std::vector<std::vector<Value>> burst;
  for (int64_t id = 100; id < 116; ++id) burst.push_back({Value(id)});
  std::vector<RowsReply> replies =
      client->ExecutePipelined(prep.handle, burst).ValueOrDie();
  ASSERT_EQ(replies.size(), 16u);
  for (size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].rows.size(), 1u);
    EXPECT_EQ(replies[i].rows[0][0].string_value(),
              "n" + std::to_string(100 + i));
  }

  // Ad-hoc QUERY sees data appended after the statement was prepared.
  ASSERT_TRUE(service->Append("people", MakeRows(500, 510)).ok());
  RowsReply q = client->Query("SELECT COUNT(*) FROM people").ValueOrDie();
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0][0].int64_value(), 510);
  EXPECT_GE(q.epoch, 1u);

  ASSERT_TRUE(client->Close(prep.handle).ok());
  EXPECT_FALSE(client->Execute(prep.handle, {Value(int64_t{1})}).ok());

  std::string json = client->Stats().ValueOrDie();
  EXPECT_NE(json.find("\"net_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_cache_misses\": 1"), std::string::npos);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.net_connections, 1u);
  EXPECT_GT(stats.net_requests, 20u);
  EXPECT_EQ(stats.statements_prepared, 1u);
  EXPECT_EQ(stats.prepared_executions, 19u);
}

TEST(NetProtocolTest, ErrorReplyLeavesConnectionUsable) {
  auto service = MakeServiceWithTable(10);
  auto server = Server::Start(service, ServerConfig{}).ValueOrDie();
  auto client = Client::Connect("127.0.0.1", server->port()).ValueOrDie();
  // A parse error draws an ERROR frame, and the same connection then
  // serves the next request normally.
  EXPECT_FALSE(client->Query("SELEKT nope").ok());
  EXPECT_FALSE(client->Prepare("SELECT id FROM nowhere").ok());
  EXPECT_FALSE(client->Execute(12345, {Value(int64_t{1})}).ok());
  RowsReply ok = client->Query("SELECT COUNT(*) FROM people").ValueOrDie();
  EXPECT_EQ(ok.rows[0][0].int64_value(), 10);
}

/// A blocking loopback socket to `port`, for driving the server with raw
/// bytes.
int RawConnect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(n, 0);
    done += static_cast<size_t>(n);
  }
}

/// Reads until `count` frames have arrived.
std::vector<Frame> ReadFrames(int fd, size_t count) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  char buf[4096];
  while (frames.size() < count) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    EXPECT_TRUE(decoder.Feed(buf, static_cast<size_t>(n)).ok());
    Frame f;
    while (decoder.Next(&f)) frames.push_back(std::move(f));
  }
  return frames;
}

std::string QueryFrame(const std::string& sql) {
  std::string payload;
  WireWriter w(&payload);
  w.PutString(sql);
  return EncodeFrame(Op::kQuery, payload);
}

TEST(NetProtocolTest, TornFramesAndAReplyLargerThanTheSocketBuffer) {
  constexpr int64_t kRows = 100000;
  auto service = MakeServiceWithTable(kRows);
  auto server = Server::Start(service, ServerConfig{}).ValueOrDie();
  const int fd = RawConnect(server->port());

  // Two requests, sent in pieces that split the length prefix and the
  // payload, with pauses so each piece arrives as its own short read.
  const std::string bytes = QueryFrame("SELECT COUNT(*) FROM people") +
                            QueryFrame("SELECT id, name FROM people");
  for (size_t at = 0, step = 1; at < bytes.size(); at += step, step = step * 2 + 1) {
    WriteAll(fd, bytes.substr(at, step));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The second reply (about 1.5 MB) outgrows the socket buffers while
  // nothing reads it, so the server must park it and finish on EPOLLOUT.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<Frame> replies = ReadFrames(fd, 2);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(replies[0].op, Op::kOkRows);
  EXPECT_EQ(DecodeOkRows(replies[0].payload).ValueOrDie().rows[0][0].int64_value(),
            kRows);
  ASSERT_EQ(replies[1].op, Op::kOkRows);
  EXPECT_GT(replies[1].payload.size(), size_t{1} << 20);
  RowsReply all = DecodeOkRows(replies[1].payload).ValueOrDie();
  ASSERT_EQ(all.rows.size(), static_cast<size_t>(kRows));

  // Drained: the connection serves the next request without waiting on a
  // stale write interest.
  WriteAll(fd, QueryFrame("SELECT name FROM people WHERE id = 7"));
  replies = ReadFrames(fd, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(DecodeOkRows(replies[0].payload).ValueOrDie().rows[0][0].string_value(),
            "n7");
  close(fd);
}

TEST(NetProtocolTest, ConcurrentClientsUnderAppendStream) {
  auto service = MakeServiceWithTable(1000);
  ServerConfig cfg;
  cfg.io_threads = 3;
  auto server = Server::Start(service, cfg).ValueOrDie();

  std::atomic<bool> stop{false};
  std::thread appender([&] {
    int64_t next = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(service->Append("people", MakeRows(next, next + 5)).ok());
      next += 5;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  std::atomic<uint64_t> rows_checked{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port()).ValueOrDie();
      PreparedReply prep =
          client->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
      for (int i = 0; i < 30; ++i) {
        const int64_t id = (static_cast<int64_t>(t) * 31 + i) % 1000;
        Result<RowsReply> r = client->Execute(prep.handle, {Value(id)});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->rows.size(), 1u);
        ASSERT_EQ(r->rows[0][0].string_value(), "n" + std::to_string(id));
        rows_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_release);
  appender.join();
  EXPECT_EQ(rows_checked.load(), 120u);
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.net_connections, 4u);
  EXPECT_EQ(stats.prepared_executions, 120u);
}

TEST(NetProtocolTest, AdmissionOverloadMapsToBusyNotError) {
  ServiceConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queue = 0;  // no parking: concurrent admissions reject outright
  auto service = MakeServiceWithTable(20000, cfg);
  ServerConfig net_cfg;
  net_cfg.io_threads = 4;
  auto server = Server::Start(service, net_cfg).ValueOrDie();

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> busy_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server->port()).ValueOrDie();
      for (int i = 0; i < 30; ++i) {
        Result<RowsReply> r =
            client->Query("SELECT COUNT(*) FROM people WHERE id >= 0");
        if (r.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Overload must surface as BUSY (CapacityError), never as a
          // dropped connection or an opaque failure.
          ASSERT_TRUE(r.status().IsCapacityError()) << r.status().ToString();
          busy_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(ok_count.load() + busy_count.load(), 180u);
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_GT(busy_count.load(), 0u);  // 6 clients vs 1 slot: collisions
  EXPECT_EQ(service->Stats().net_busy_rejections, busy_count.load());
}

TEST(NetProtocolTest, PipelinedBusyRetriesRecover) {
  ServiceConfig cfg;
  cfg.max_inflight = 1;
  cfg.max_queue = 0;
  auto service = MakeServiceWithTable(5000, cfg);
  ServerConfig net_cfg;
  net_cfg.io_threads = 4;
  auto server = Server::Start(service, net_cfg).ValueOrDie();

  std::vector<std::thread> clients;
  std::atomic<uint64_t> verified{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server->port()).ValueOrDie();
      PreparedReply prep =
          client->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie();
      std::vector<std::vector<Value>> burst;
      for (int64_t i = 0; i < 40; ++i) {
        burst.push_back({Value(int64_t{t} * 100 + i)});
      }
      // Generous retry budget: under 1-slot admission every request
      // eventually lands, and replies stay aligned with param sets.
      Result<std::vector<RowsReply>> replies =
          client->ExecutePipelined(prep.handle, burst, /*busy_retries=*/200);
      ASSERT_TRUE(replies.ok()) << replies.status().ToString();
      ASSERT_EQ(replies->size(), burst.size());
      for (size_t i = 0; i < replies->size(); ++i) {
        ASSERT_EQ((*replies)[i].rows.size(), 1u);
        ASSERT_EQ((*replies)[i].rows[0][0].string_value(),
                  "n" + std::to_string(t * 100 + static_cast<int64_t>(i)));
        verified.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(verified.load(), 120u);
}

}  // namespace
}  // namespace net
}  // namespace idf
