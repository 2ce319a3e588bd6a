// End-to-end demo benchmark: the paper's scenario as deployed. A loopback
// net::Server fronts a QueryService holding the SNB tables; SQ1-SQ7 run as
// prepared statements over the wire while the SNB update stream commits
// through QueryService::Append, standing dashboards stay subscribed and
// background compaction runs. Every run ends with a correctness check
// against the vanilla DataFrame path and prints one JSON result line.
//
//   demo_bench --workload demo_mixed|point_lookup --seed N --seconds S
//              --trace 0|1 [--trace-out FILE] [--sf F] [--setups N]
//              [--read-rate R] [--append-rate A] [--calibrate 1]
//
// Run through run.py, which builds this program first.
#include <array>
#include <deque>
#include <unordered_map>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "wire_pool.h"
#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/query_service.h"
#include "snb/datagen.h"
#include "snb/short_queries.h"
#include "snb/tables.h"
#include "snb/update_stream.h"

using namespace idf;  // NOLINT — benchmark driver
using e2e::Clock;

namespace {

// ---------------------------------------------------------------- queries

constexpr int kQueries = 7;
enum Cls { kPoint = 0, kTraverse = 1, kScan = 2 };
constexpr int kClasses = 3;
constexpr const char* kClassName[kClasses] = {"point", "traverse", "scan"};
constexpr Cls kClassOf[kQueries] = {kPoint, kTraverse, kTraverse, kPoint,
                                    kScan,  kScan,     kTraverse};

// SQ1-SQ7 as parameterized SQL. Column order matches the vanilla
// snb::RunShortQuery results the correctness check compares against.
const char* const kQuerySql[kQueries] = {
    "SELECT firstName, lastName, gender, birthday, creationDate, locationIP, "
    "browserUsed, cityId FROM person WHERE id = ?",
    "SELECT id, content, creationDate FROM post WHERE creatorId = ? "
    "ORDER BY creationDate DESC LIMIT 10",
    "SELECT p.id, p.firstName, p.lastName, k.creationDate AS friendshipDate "
    "FROM knows k JOIN person p ON k.person2Id = p.id WHERE k.person1Id = ? "
    "ORDER BY k.creationDate DESC",
    "SELECT creationDate, content FROM post WHERE id = ?",
    "SELECT p.id, p.firstName, p.lastName FROM comment c "
    "JOIN person p ON c.creatorId = p.id WHERE c.id = ?",
    "SELECT f.title AS forumTitle, m.firstName AS moderatorFirstName, "
    "m.lastName AS moderatorLastName FROM comment c "
    "JOIN post p ON c.replyOfPostId = p.id JOIN forum f ON p.forumId = f.id "
    "JOIN person m ON f.moderatorId = m.id WHERE c.id = ?",
    "SELECT c.content AS replyContent, p.firstName AS authorFirstName, "
    "p.lastName AS authorLastName FROM comment c "
    "JOIN person p ON c.creatorId = p.id WHERE c.replyOfPostId = ? "
    "ORDER BY c.creationDate DESC",
};

// Result column a query is sorted on (descending), -1 when the sort key is
// not projected; the correctness check verifies the order on it.
constexpr int kSortColumn[kQueries] = {-1, 2, 3, -1, -1, -1, -1};

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool closed_loop = false;
  int read_clients = 1;                 // closed loop: connections, one request each
  double read_rate = 0;                 // open loop: requests/s
  std::array<double, kQueries> mix{};   // weights of SQ1..SQ7
  double append_rate = 0;               // batches/s (0: no update stream)
  size_t batch_rows = 0;                // rows per batch
  bool live = false;                    // dashboards subscribed, compaction on
};

// Open-loop connections: enough that a request never waits for a free one
// at the rates used here.
constexpr int kPoolConnections = 16;

// The mix and the rates come from the one-off sweep (sweep.py; README.md
// records it): every query takes the same share of server time, and
// demo_mixed offers a sixth of the measured read and ingest capacities.
Result<Workload> GetWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "demo_mixed") {
    w.read_rate = 667;
    w.mix = {44, 3.9, 3.1, 45, 1.0, 0.2, 3.0};
    w.append_rate = 6.7;
    w.batch_rows = 32;
    w.live = true;
  } else if (name == "point_lookup") {
    w.closed_loop = true;
    w.read_clients = 2;
    w.mix = {50, 0, 0, 50, 0, 0, 0};
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return w;
}

bool Exercises(const Workload& w, Cls c) {
  for (int q = 0; q < kQueries; ++q) {
    if (kClassOf[q] == c && w.mix[q] > 0) return true;
  }
  return false;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double sf = 1.0;
  int setups = 5;
  double read_rate = -1;    // overrides (rate sweep)
  double append_rate = -1;
  bool calibrate = false;   // print per-query costs and the derived mix
};

e2e::Placement g_placement;

// ---------------------------------------------------------------- set-up

struct DashboardDef {
  std::string sql;
  std::vector<std::string> tables;
  int copies;
};

// Standing dashboards: select, aggregate and join views, most of them
// subscribed twice so the copies share one arrangement, plus one join
// aggregate that the view layer can only maintain by recomputing.
std::vector<DashboardDef> DashboardDefs(int64_t hot_person) {
  const std::string hot = std::to_string(hot_person);
  return {
      {"SELECT browserUsed, COUNT(*) AS posts FROM post GROUP BY browserUsed",
       {"post"}, 2},
      {"SELECT creatorId, COUNT(*) AS replies, MAX(creationDate) AS lastReply "
       "FROM comment GROUP BY creatorId",
       {"comment"}, 2},
      {"SELECT person2Id, creationDate FROM knows WHERE person1Id = " + hot,
       {"knows"}, 2},
      {"SELECT c.id AS commentId, c.creatorId AS replier, p.id AS postId "
       "FROM comment c JOIN post p ON c.replyOfPostId = p.id "
       "WHERE p.creatorId = " + hot,
       {"comment", "post"}, 2},
      {"SELECT COUNT(*) AS friends FROM knows k JOIN person p "
       "ON k.person2Id = p.id WHERE k.person1Id = " + hot,
       {"knows", "person"}, 1},
  };
}

struct Dashboard {
  std::string sql;
  std::vector<std::string> tables;
  ViewSubscriptionPtr sub;
  std::mutex mu;  // guards seen
  std::vector<std::pair<uint64_t, Clock::time_point>> seen;  // (epoch, when)
};

struct Conn {
  std::unique_ptr<net::Client> client;
  std::array<uint64_t, kQueries> handle{};
};

struct Deployment {
  snb::SnbDataset data;
  SessionPtr session;
  IndexedRelationPtr person, knows, comment, forum;
  std::shared_ptr<MultiIndexedTable> post;
  QueryServicePtr service;
  std::unique_ptr<net::Server> server;
  Conn conn;  // blocking connection: warm-up, checks, PREPARE timing
  std::unique_ptr<e2e::WirePool> pool;  // the load's connections
  std::array<uint64_t, kQueries> inproc{};  // in-process statement handles
  std::vector<std::unique_ptr<Dashboard>> dashboards;
  std::vector<double> prepare_us;  // wire PREPARE round trips

  ~Deployment() {
    conn.client.reset();
    pool.reset();
    if (server != nullptr) server->Stop();
    for (auto& d : dashboards) {
      if (d->sub != nullptr) (void)service->Unsubscribe(d->sub);
    }
  }

  size_t DataBytes() const {
    return person->data_bytes() + knows->data_bytes() + comment->data_bytes() +
           forum->data_bytes() + post->TotalDataBytes();
  }
  size_t IndexBytes() const {
    return person->index_bytes() + knows->index_bytes() +
           comment->index_bytes() + forum->index_bytes() +
           post->TotalIndexBytes();
  }
  size_t Rows() const {
    return person->num_rows() + knows->num_rows() + comment->num_rows() +
           forum->num_rows() + post->NumRows();
  }
};

EngineConfig BenchEngineConfig() {
  EngineConfig ec;
  ec.num_threads = 2;
  ec.num_partitions = 4;
  // Small row batches so appended rows spread a key's chain over several
  // batches within one run and the compactor has fragmentation to remove.
  ec.row_batch_bytes = 256 * 1024;
  return ec;
}

Result<IndexedRelationPtr> LoadIndexed(const SessionPtr& session,
                                       SchemaPtr schema, RowVec rows,
                                       const char* table, int key_col) {
  IDF_ASSIGN_OR_RETURN(DataFrame df,
                       session->CreateDataFrame(schema, std::move(rows), table));
  IDF_ASSIGN_OR_RETURN(IndexedDataFrame idf,
                       IndexedDataFrame::CreateIndex(df, key_col, table));
  return idf.relation();
}

Status SubscribeDashboards(Deployment* d) {
  for (const DashboardDef& def : DashboardDefs(d->data.first_person_id)) {
    for (int c = 0; c < def.copies; ++c) {
      auto dash = std::make_unique<Dashboard>();
      dash->sql = def.sql;
      dash->tables = def.tables;
      Dashboard* raw = dash.get();
      IDF_ASSIGN_OR_RETURN(
          dash->sub, d->service->Subscribe(def.sql, [raw](const ViewSnapshot& s) {
            std::lock_guard<std::mutex> lock(raw->mu);
            raw->seen.emplace_back(s.epoch, Clock::now());
          }));
      d->dashboards.push_back(std::move(dash));
    }
  }
  return Status::OK();
}

void UnsubscribeDashboards(Deployment* d) {
  for (auto& dash : d->dashboards) (void)d->service->Unsubscribe(dash->sub);
  d->dashboards.clear();
}

// Datagen, load, index build, service + server start, connect and
// prepare, subscribe: everything setup_s times.
Result<std::unique_ptr<Deployment>> SetUp(const Workload& w, const Options& o,
                                          e2e::SpanLog* spans) {
  auto d = std::make_unique<Deployment>();
  const EngineConfig ec = BenchEngineConfig();
  auto t0 = Clock::now();
  snb::SnbConfig cfg;
  // One fixed dataset per scale factor, as in LDBC SNB: the workload seed
  // drives arrivals, the query mix and parameters, not the graph.
  cfg.scale_factor = o.sf;
  d->data = snb::GenerateSnb(cfg);
  auto t1 = Clock::now();

  IDF_ASSIGN_OR_RETURN(d->session, Session::Make(ec));
  IDF_ASSIGN_OR_RETURN(d->person, LoadIndexed(d->session, snb::PersonSchema(),
                                              d->data.persons, "person",
                                              snb::person::kId));
  IDF_ASSIGN_OR_RETURN(d->knows, LoadIndexed(d->session, snb::KnowsSchema(),
                                             d->data.knows, "knows",
                                             snb::knows::kPerson1));
  IDF_ASSIGN_OR_RETURN(d->comment,
                       LoadIndexed(d->session, snb::CommentSchema(),
                                   d->data.comments, "comment",
                                   snb::comment::kReplyOfPostId));
  IDF_ASSIGN_OR_RETURN(d->forum, LoadIndexed(d->session, snb::ForumSchema(),
                                             d->data.forums, "forum",
                                             snb::forum::kId));
  IDF_ASSIGN_OR_RETURN(DataFrame post_df,
                       d->session->CreateDataFrame(snb::PostSchema(),
                                                   d->data.posts, "post"));
  IDF_ASSIGN_OR_RETURN(MultiIndexedTable post,
                       MultiIndexedTable::Create(post_df, {"id", "creatorId"},
                                                 "post"));
  d->post = std::make_shared<MultiIndexedTable>(std::move(post));
  IDF_RETURN_NOT_OK(d->post->AddBitmapIndex("browserUsed"));
  IDF_RETURN_NOT_OK(d->post->AddRangeIndex("creationDate"));
  auto t2 = Clock::now();

  ServiceConfig sc;
  sc.engine = ec;
  sc.max_inflight = 4;
  sc.max_queue = 64;
  IDF_ASSIGN_OR_RETURN(d->service, QueryService::Make(sc));
  IDF_RETURN_NOT_OK(d->service->RegisterTable("person", d->person));
  IDF_RETURN_NOT_OK(d->service->RegisterTable("knows", d->knows));
  IDF_RETURN_NOT_OK(d->service->RegisterTable("post", d->post));
  IDF_RETURN_NOT_OK(d->service->RegisterTable("comment", d->comment));
  IDF_RETURN_NOT_OK(d->service->RegisterTable("forum", d->forum));
  if (w.live) {
    // The default trigger (mean chain batch-span 4.0) never fires at this
    // scale within a run; at 1.1 the demo's stream triggers about one
    // partition rewrite per 1.5 s (README.md).
    CompactionConfig cc;
    cc.min_partition_rows = 1024;
    cc.max_mean_batch_span = 1.1;
    cc.interval = std::chrono::milliseconds(100);
    IDF_RETURN_NOT_OK(d->service->EnableCompaction(cc));
  }
  net::ServerConfig nc;
  nc.io_threads = 2;
  IDF_ASSIGN_OR_RETURN(d->server, net::Server::Start(d->service, nc));
  auto t3 = Clock::now();

  for (int q = 0; q < kQueries; ++q) {
    IDF_ASSIGN_OR_RETURN(PreparedInfo info, d->service->Prepare(kQuerySql[q]));
    d->inproc[q] = info.handle;
  }
  IDF_ASSIGN_OR_RETURN(d->conn.client,
                       net::Client::Connect("127.0.0.1", d->server->port()));
  for (int q = 0; q < kQueries; ++q) {
    auto p0 = Clock::now();
    IDF_ASSIGN_OR_RETURN(net::PreparedReply rep, d->conn.client->Prepare(kQuerySql[q]));
    d->prepare_us.push_back(
        static_cast<double>(e2e::NanosBetween(p0, Clock::now())) / 1000.0);
    d->conn.handle[q] = rep.handle;
  }
  IDF_ASSIGN_OR_RETURN(d->pool, e2e::WirePool::Connect(
                                    d->server->port(),
                                    w.closed_loop ? w.read_clients : kPoolConnections,
                                    std::vector<std::string>(kQuerySql, kQuerySql + kQueries)));
  auto t4 = Clock::now();
  if (w.live) IDF_RETURN_NOT_OK(SubscribeDashboards(d.get()));
  auto t5 = Clock::now();

  if (spans != nullptr) {
    spans->Add("setup.datagen", 0, -1, t0, t1);
    spans->Add("setup.load_and_index", 0, -1, t1, t2);
    spans->Add("setup.service_and_server", 0, -1, t2, t3);
    spans->Add("setup.connect_and_prepare", 0, -1, t3, t4);
    spans->Add("setup.subscribe", 0, -1, t4, t5);
  }
  return d;
}

// ---------------------------------------------------------------- streams

struct Batch {
  const char* table;
  RowVec rows;
};

// The tables the update stream grows.
constexpr size_t kStreamTables = 3;
constexpr const char* kStreamTable[kStreamTables] = {"post", "comment", "knows"};

size_t StreamTable(const char* table) {
  for (size_t t = 0; t + 1 < kStreamTables; ++t) {
    if (std::strcmp(table, kStreamTable[t]) == 0) return t;
  }
  return kStreamTables - 1;
}

// The update stream, generated up front from the dataset seed. Each of
// post, comment and knows grows in proportion to its base row count, so
// the graph keeps the shape the generator gave it: every batch goes to the
// table furthest behind its share (smooth weighted round robin).
std::vector<Batch> MakeStream(const snb::SnbDataset& base, size_t n_batches,
                              size_t rows) {
  snb::UpdateStreamGenerator gen(base);
  const std::array<double, 3> base_rows = {static_cast<double>(base.posts.size()),
                                           static_cast<double>(base.comments.size()),
                                           static_cast<double>(base.knows.size())};
  const double total = base_rows[0] + base_rows[1] + base_rows[2];
  std::array<double, 3> credit{};
  std::vector<Batch> out;
  out.reserve(n_batches);
  for (size_t j = 0; j < n_batches; ++j) {
    size_t t = 0;
    for (size_t k = 0; k < 3; ++k) {
      credit[k] += base_rows[k] / total;
      if (credit[k] > credit[t]) t = k;
    }
    credit[t] -= 1;
    switch (t) {
      case 0:
        out.push_back({"post", gen.NextPostBatch(rows)});
        break;
      case 1:
        out.push_back({"comment", gen.NextCommentBatch(rows)});
        break;
      default:  // two rows per edge
        out.push_back({"knows", gen.NextKnowsBatch(std::max<size_t>(1, rows / 2))});
        break;
    }
  }
  return out;
}

// Sleeps until shortly before `t`, then spins: a sleeping thread on a
// virtual machine can wake hundreds of microseconds late, which would
// count against the system under test.
void WaitUntil(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(500));
  while (Clock::now() < t) {
  }
}

double Uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t PickIn(std::mt19937_64& rng, int64_t lo, int64_t n) {
  return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(std::max<int64_t>(1, n)));
}

int PickQuery(std::mt19937_64& rng, const std::array<double, kQueries>& mix) {
  double total = 0;
  for (double m : mix) total += m;
  double x = Uniform01(rng) * total;
  for (int q = 0; q < kQueries; ++q) {
    if (x < mix[q]) return q;
    x -= mix[q];
  }
  for (int q = kQueries - 1; q >= 0; --q) {
    if (mix[q] > 0) return q;
  }
  return 0;
}

// Parameters drawn from the base dataset's id ranges.
int64_t BaseParam(int q, const snb::SnbDataset& data, std::mt19937_64& rng) {
  switch (q) {
    case 0:
    case 1:
    case 2:
      return PickIn(rng, data.first_person_id, data.num_persons);
    case 3:
    case 6:
      return PickIn(rng, data.first_post_id, data.num_posts);
    default:
      return PickIn(rng, data.first_comment_id, data.num_comments);
  }
}

// ---------------------------------------------------------------- run state

struct RunCtx {
  const Options* o = nullptr;
  Deployment* d = nullptr;
  const std::vector<Batch>* stream = nullptr;
  e2e::Schedule read_sched;  // open-loop arrivals
};

// One reader connection's measurements.
struct ReaderStats {
  explicit ReaderStats(Clock::time_point origin) : spans(origin) {}
  std::array<std::vector<double>, kQueries> lat_us;  // per query
  std::vector<double> send_lag_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Clock::time_point last_done{};
  // Traced run only.
  std::array<std::vector<double>, kClasses> overhead_us;
  std::array<std::vector<double>, kClasses> exec_us;
  std::vector<double> encode_us, decode_us, reply_bytes;
  e2e::SpanLog spans;
};

struct AppendStats {
  explicit AppendStats(Clock::time_point origin) : spans(origin) {}
  // Per appended table (kStreamTables order).
  std::array<std::vector<double>, kStreamTables> append_us;
  std::array<std::vector<double>, kStreamTables> view_lag_us;
  std::vector<double> send_lag_us;
  std::vector<size_t> appended;  // stream indexes committed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  uint64_t post_batches = 0;
  uint64_t lag_missing = 0;  // (batch, dashboard) pairs with no covering callback
  double backlog_s = 0;      // how far behind its schedule the stream ended
  e2e::SpanLog spans;
};

// EXECUTE with BUSY retries; CapacityError after the last retry is a
// failure like any other error.
Status Execute(Conn& c, int q, int64_t param, net::RowsReply* out) {
  for (int attempt = 0;; ++attempt) {
    Result<net::RowsReply> r = c.client->Execute(c.handle[q], {Value(param)});
    if (r.ok()) {
      *out = std::move(r).ValueUnsafe();
      return Status::OK();
    }
    if (!r.status().IsCapacityError() || attempt == 3) return r.status();
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (attempt + 1)));
  }
}

// Traced runs: the in-process execution of a read's statement and
// parameters, for the wire overhead (wire round trip minus in-process
// time) and the service's own exec time.
void TracePair(const RunCtx& rc, int q, int64_t param, double wire_us, uint64_t trace_id,
               ReaderStats* st) {
  const Cls cls = kClassOf[q];
  auto i0 = Clock::now();
  QueryResult r = rc.d->service->ExecutePrepared(rc.d->inproc[q], {Value(param)});
  auto i1 = Clock::now();
  if (r.ok()) {
    const double inproc_us = static_cast<double>(e2e::NanosBetween(i0, i1)) / 1000.0;
    st->overhead_us[cls].push_back(wire_us - inproc_us);
    st->exec_us[cls].push_back(static_cast<double>(r.exec_micros));
  }
  st->spans.Add("service.execute_prepared", trace_id, -1, i0, i1);
}

// Traced runs: the protocol encode and decode of a reply actually
// received.
void TraceCodec(const net::RowsReply& reply, uint64_t trace_id, int64_t root,
                ReaderStats* st) {
  auto e0 = Clock::now();
  std::string payload = net::EncodeOkRows(reply.epoch, *reply.schema, reply.rows);
  auto e1 = Clock::now();
  Result<net::RowsReply> decoded = net::DecodeOkRows(payload);
  auto e2 = Clock::now();
  (void)decoded;
  st->encode_us.push_back(static_cast<double>(e2e::NanosBetween(e0, e1)) / 1000.0);
  st->decode_us.push_back(static_cast<double>(e2e::NanosBetween(e1, e2)) / 1000.0);
  st->reply_bytes.push_back(static_cast<double>(payload.size()));
  st->spans.Add("net.encode_ok_rows", trace_id, root, e0, e1);
  st->spans.Add("net.decode_ok_rows", trace_id, root, e1, e2);
}

// Traced open-loop runs: re-executes a sample of the reads in process on
// a helper thread, so the load generator never blocks on them.
class Pairer {
 public:
  Pairer(const RunCtx& rc, ReaderStats* st) : rc_(rc), st_(st), thread_([this] { Loop(); }) {}
  ~Pairer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Pairer(const Pairer&) = delete;
  Pairer& operator=(const Pairer&) = delete;

  void Offer(int q, int64_t param, double wire_us, uint64_t trace_id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() >= 64) return;  // drop rather than fall behind
      queue_.push_back(Item{q, param, wire_us, trace_id});
    }
    cv_.notify_one();
  }

 private:
  struct Item {
    int q;
    int64_t param;
    double wire_us;
    uint64_t trace_id;
  };

  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      TracePair(rc_, item.q, item.param, item.wire_us, item.trace_id, st_);
    }
  }

  const RunCtx& rc_;
  ReaderStats* st_;
  std::mutex mu_;  // guards queue_ and stop_
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stop_ = false;
  std::thread thread_;
};

constexpr auto kMaxDrain = std::chrono::seconds(10);

// How a pool reader offers load. Open loop: arrival i is due at
// rc.read_sched.Due(i) whatever happened before. Closed loop:
// `concurrency` requests stay outstanding, each due when the one before it
// returned.
struct ReadLoad {
  std::array<double, kQueries> mix{};
  bool closed_loop = false;
  size_t concurrency = 1;              // closed loop
  uint64_t max_requests = UINT64_MAX;  // closed loop
  Clock::time_point end;               // no arrival at or after this
  uint64_t stream = 1;                 // seeds the mix and parameters
};

// Drives the connection pool from one thread that never sleeps: a request
// goes out on an idle connection (or waits for one) and its latency counts
// from its due time. BUSY replies are re-sent up to three times. With a
// `pairer` (traced runs) every 4th reply is decoded, re-encoded and
// re-executed in process.
Status PoolReader(const RunCtx& rc, const ReadLoad& load, Pairer* pairer, ReaderStats* st) {
  struct Req {
    uint64_t i;
    Clock::time_point due;
    Clock::time_point send;
    int q;
    int64_t param;
    int attempts;
  };
  e2e::Placement::OnLoadCpu on_load_cpu(g_placement);
  e2e::WirePool& pool = *rc.d->pool;
  std::mt19937_64 rng(rc.o->seed * 0x9E3779B97F4A7C15ULL + load.stream);
  std::deque<Req> pending;
  std::unordered_map<uint64_t, Req> inflight;
  std::vector<std::pair<uint64_t, net::Frame>> done;
  uint64_t next = 0;
  auto arrive = [&](Clock::time_point due) {
    const int q = PickQuery(rng, load.mix);
    pending.push_back(Req{next++, due, {}, q, BaseParam(q, rc.d->data, rng), 0});
  };
  Clock::time_point next_due = rc.read_sched.Due(0);
  for (;;) {
    const Clock::time_point now = Clock::now();
    bool more;
    if (load.closed_loop) {
      while (now < load.end && next < load.max_requests &&
             pending.size() + inflight.size() < load.concurrency) {
        arrive(now);
      }
      more = now < load.end && next < load.max_requests;
    } else {
      while (next_due <= now && next_due < load.end) {
        // How late the generator itself noticed the arrival.
        st->send_lag_us.push_back(static_cast<double>(e2e::NanosBetween(next_due, now)) / 1000.0);
        arrive(next_due);
        next_due = rc.read_sched.Due(next);
      }
      more = next_due < load.end;
    }
    while (!pending.empty() && pool.HasIdle()) {
      Req r = pending.front();
      pending.pop_front();
      r.send = Clock::now();
      IDF_RETURN_NOT_OK(pool.Send(static_cast<size_t>(r.q), {Value(r.param)}, r.i));
      inflight.emplace(r.i, r);
    }
    if (!more && pending.empty() && inflight.empty()) break;
    if (now >= load.end + kMaxDrain) {
      // A backlog that outlives the window by this much counts as failed.
      st->attempted += pending.size() + inflight.size();
      st->failed += pending.size() + inflight.size();
      return Status::OK();
    }
    done.clear();
    // Poll without blocking: the generator spins on its own vCPU, so an
    // arrival goes out and a reply counts when it is due or arrives, not
    // when a halted vCPU of the virtual machine wakes up (which took 0.1-1
    // ms here and made point latency track the host's load).
    IDF_RETURN_NOT_OK(pool.Poll(&done));
    for (auto& [tag, frame] : done) {
      const Clock::time_point t = Clock::now();
      auto it = inflight.find(tag);
      if (it == inflight.end()) return Status::Internal("unknown reply tag");
      Req r = it->second;
      inflight.erase(it);
      if (frame.op == net::Op::kBusy && r.attempts < 3) {
        ++r.attempts;
        pending.push_front(r);
        continue;
      }
      ++st->attempted;
      st->last_done = t;
      if (frame.op != net::Op::kOkRows) {
        ++st->failed;
        std::cerr << "read SQ" << (r.q + 1) << "(" << r.param << ") failed: "
                  << net::DecodeError(frame.payload, frame.op).ToString() << "\n";
        continue;
      }
      st->lat_us[r.q].push_back(e2e::LatencyFromDueUs(r.due, t));
      if (pairer != nullptr && r.i % 4 == 0) {
        Result<net::RowsReply> reply = net::DecodeOkRows(frame.payload);
        if (!reply.ok()) return reply.status();
        const int64_t root = st->spans.Add("client.execute", r.i, -1, r.send, t);
        st->spans.Add("loadgen.queued", r.i, root, r.due, r.send);
        TraceCodec(*reply, r.i, root, st);
        pairer->Offer(r.q, r.param,
                      static_cast<double>(e2e::NanosBetween(r.send, t)) / 1000.0, r.i);
      }
    }
  }
  return Status::OK();
}

// Collects callbacks of every dashboard reading `table` that cover `epoch`
// (the batch just committed) and records the lag from the Append call.
void RecordViewLag(Deployment& d, const char* table, uint64_t epoch,
                   Clock::time_point append_start, AppendStats* st) {
  for (auto& dash : d.dashboards) {
    std::vector<std::pair<uint64_t, Clock::time_point>> seen;
    {
      std::lock_guard<std::mutex> lock(dash->mu);
      seen.swap(dash->seen);
    }
    bool relevant = false;
    for (const std::string& t : dash->tables) relevant |= t == table;
    if (!relevant) continue;
    bool found = false;
    for (const auto& [e, when] : seen) {
      if (e >= epoch) {
        st->view_lag_us[StreamTable(table)].push_back(
            static_cast<double>(e2e::NanosBetween(append_start, when)) / 1000.0);
        found = true;
        break;
      }
    }
    if (!found) ++st->lag_missing;
  }
}

// The update stream: batch first + n is due at sched.Due(n) and commits
// through QueryService::Append.
void Appender(const RunCtx& rc, size_t first, size_t count,
              const e2e::Schedule& sched, Clock::time_point end, bool traced,
              AppendStats* st) {
  Deployment& d = *rc.d;
  const auto& stream = *rc.stream;
  Clock::time_point free_at = sched.start;
  for (size_t n = 0; n < count && first + n < stream.size(); ++n) {
    const Clock::time_point due = sched.Due(n);
    // Past the end of the window a stream that fell behind stops too.
    if (due >= end || Clock::now() >= end) break;
    WaitUntil(due);
    const Batch& b = stream[first + n];
    const Clock::time_point start = Clock::now();
    st->send_lag_us.push_back(
        static_cast<double>(e2e::NanosBetween(std::max(due, free_at), start)) / 1000.0);
    Status s = d.service->Append(b.table, b.rows);
    const Clock::time_point done = Clock::now();
    free_at = done;
    st->backlog_s = std::chrono::duration<double>(start - due).count();
    ++st->attempted;
    if (!s.ok()) {
      ++st->failed;
      std::cerr << "append to " << b.table << " failed: " << s.ToString() << "\n";
      continue;
    }
    st->appended.push_back(first + n);
    st->rows += b.rows.size();
    if (std::strcmp(b.table, "post") == 0) ++st->post_batches;
    st->append_us[StreamTable(b.table)].push_back(
        static_cast<double>(e2e::NanosBetween(start, done)) / 1000.0);
    RecordViewLag(d, b.table, d.service->epoch(), start, st);
    if (traced) st->spans.Add("service.append", first + n, -1, start, done);
  }
}

// ---------------------------------------------------------------- checks

std::vector<std::string> Canonical(const RowVec& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

bool SortedDescending(const RowVec& rows, int col) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1][static_cast<size_t>(col)] < rows[i][static_cast<size_t>(col)]) {
      return false;
    }
  }
  return true;
}

// A wire reply matches the reference when it holds the same rows (as a
// multiset) and, for ordered queries, is sorted on the projected key.
bool ReplyMatches(int q, const RowVec& got, const RowVec& want) {
  if (kSortColumn[q] >= 0 && !SortedDescending(got, kSortColumn[q])) return false;
  return Canonical(got) == Canonical(want);
}

struct CheckOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool corruption_caught = false;
};

// After the streams are quiesced: re-runs a fixed sample of every query
// over the wire against the vanilla DataFrame path over the same final
// rows, checks every dashboard against a one-shot Execute of its SQL, and
// proves the comparison catches a corrupted reply.
Result<CheckOutcome> CheckCorrectness(Deployment& d, const std::vector<Batch>& stream,
                                      const std::vector<size_t>& appended,
                                      uint64_t seed) {
  CheckOutcome out;
  snb::SnbDataset final_data = d.data;
  std::vector<int64_t> new_posts, new_comments, new_parents, new_creators;
  for (size_t j : appended) {
    const Batch& b = stream[j];
    RowVec* dst = std::strcmp(b.table, "post") == 0      ? &final_data.posts
                  : std::strcmp(b.table, "comment") == 0 ? &final_data.comments
                                                         : &final_data.knows;
    dst->insert(dst->end(), b.rows.begin(), b.rows.end());
    for (const Row& r : b.rows) {
      if (dst == &final_data.posts) {
        new_posts.push_back(r[snb::post::kId].int64_value());
        new_creators.push_back(r[snb::post::kCreatorId].int64_value());
      } else if (dst == &final_data.comments) {
        new_comments.push_back(r[snb::comment::kId].int64_value());
        new_parents.push_back(r[snb::comment::kReplyOfPostId].int64_value());
      }
    }
  }
  IDF_ASSIGN_OR_RETURN(SessionPtr ref_session, Session::Make(BenchEngineConfig()));
  IDF_ASSIGN_OR_RETURN(snb::SnbContext ref,
                       snb::MakeSnbContext(ref_session, std::move(final_data)));

  std::mt19937_64 rng(seed ^ 0xC0FFEEULL);
  auto pick = [&rng](const std::vector<int64_t>& v, int64_t fallback) {
    return v.empty() ? fallback : v[rng() % v.size()];
  };
  const snb::SnbDataset& base = d.data;
  net::RowsReply corrupt_src;
  RowVec corrupt_want;
  int corrupt_q = -1;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<int64_t> params;
    for (int i = 0; i < 4; ++i) params.push_back(BaseParam(q, base, rng));
    switch (q) {
      case 0:
      case 1:
      case 2:
        params.push_back(base.first_person_id);
        params.push_back(pick(new_creators, base.MidPersonId()));
        break;
      case 3:
        params.push_back(pick(new_posts, base.MidPostId()));
        params.push_back(-1);  // no such post
        break;
      case 6:
        params.push_back(base.first_post_id + 3);  // a hot post
        params.push_back(pick(new_parents, base.MidPostId()));
        params.push_back(pick(new_posts, base.MidPostId()));
        break;
      default:
        params.push_back(pick(new_comments, base.MidCommentId()));
        params.push_back(pick(new_comments, base.MidCommentId()));
        break;
    }
    for (int64_t p : params) {
      ++out.attempted;
      net::RowsReply reply;
      Status s = Execute(d.conn, q, p, &reply);
      Result<RowVec> want = snb::RunShortQuery(ref, q + 1, /*indexed=*/false, p);
      if (!s.ok() || !want.ok() || !ReplyMatches(q, reply.rows, *want)) {
        ++out.failed;
        std::cerr << "MISMATCH SQ" << (q + 1) << "(" << p << "): "
                  << (s.ok() ? "" : s.ToString())
                  << (want.ok() ? "" : want.status().ToString()) << "\n";
        continue;
      }
      if (corrupt_q < 0 && !reply.rows.empty()) {
        corrupt_q = q;
        corrupt_want = *want;
        corrupt_src = std::move(reply);
      }
    }
  }

  // Dashboards: the maintained result equals a one-shot execution.
  for (auto& dash : d.dashboards) {
    ++out.attempted;
    QueryResult fresh = d.service->Execute(dash->sql);
    ViewSnapshotPtr snap = dash->sub->Snapshot();
    if (!fresh.ok() || Canonical(*snap->rows) != Canonical(fresh.rows)) {
      ++out.failed;
      std::cerr << "MISMATCH dashboard: " << dash->sql << " "
                << fresh.status.ToString() << "\n";
    }
  }

  // Self-test: flip one byte of a matching reply's encoded payload; the
  // comparison (or the decoder) must reject it.
  if (corrupt_q >= 0) {
    std::string payload =
        net::EncodeOkRows(corrupt_src.epoch, *corrupt_src.schema, corrupt_src.rows);
    payload[payload.size() - 1] ^= 0x01;
    Result<net::RowsReply> bad = net::DecodeOkRows(payload);
    out.corruption_caught = !bad.ok() || !ReplyMatches(corrupt_q, bad->rows, corrupt_want);
  }
  return out;
}

// Percentile and due-time arithmetic on synthetic sequences with known
// answers.
bool HarnessSelfTest() {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(7));
  bool ok = e2e::Percentile(v, 50) == 500 && e2e::Percentile(v, 99) == 990 &&
            e2e::Percentile(v, 100) == 1000 && e2e::Percentile(v, 0.05) == 1;
  // 990 fast samples and 10 slow ones: p99 is still fast, p99.5 is slow.
  std::vector<double> tail(990, 100.0);
  tail.insert(tail.end(), 10, 5000.0);
  ok = ok && e2e::Percentile(tail, 50) == 100 && e2e::Percentile(tail, 99) == 100 &&
       e2e::Percentile(tail, 99.5) == 5000;
  // Class latency: the geometric mean of per-query medians.
  ok = ok && std::abs(e2e::GeoMean({100.0, 400.0}) - 200.0) < 1e-9 &&
       e2e::GeoMean({}) == 0;
  const Clock::time_point t0{};
  e2e::Schedule s{t0, 1000.0, 0.25};
  ok = ok && e2e::NanosBetween(t0, s.Due(0)) == 250000 &&
       e2e::NanosBetween(t0, s.Due(2500)) == 2500250000LL &&
       e2e::LatencyFromDueUs(s.Due(4), s.Due(4) + std::chrono::microseconds(1500)) == 1500.0;
  return ok;
}

// ---------------------------------------------------------------- per-class
// engine counters (traced run, after the streams stop)

struct EngineProfile {
  double rows_filtered = 0, vector_batches = 0, rows_returned = 0,
         scans_avoided = 0, examined_per_returned = 0;
};

EngineProfile ProfileClass(Deployment& d, const Workload& w, Cls cls, uint64_t seed) {
  EngineProfile p;
  if (!Exercises(w, cls)) return p;
  std::mt19937_64 rng(seed ^ 0x5EEDULL);
  const ServiceStats before = d.service->Stats();
  uint64_t n = 0, returned = 0;
  for (int q = 0; q < kQueries; ++q) {
    if (kClassOf[q] != cls || w.mix[q] <= 0) continue;
    for (int i = 0; i < 50; ++i) {
      QueryResult r = d.service->ExecutePrepared(d.inproc[q], {Value(BaseParam(q, d.data, rng))});
      if (!r.ok()) continue;
      ++n;
      returned += r.rows.size();
    }
  }
  const ServiceStats after = d.service->Stats();
  if (n == 0) return p;
  const double filtered =
      static_cast<double>(after.rows_filtered_vectorized - before.rows_filtered_vectorized);
  p.rows_filtered = filtered / static_cast<double>(n);
  p.vector_batches = static_cast<double>(after.vector_batches_evaluated -
                                         before.vector_batches_evaluated) / static_cast<double>(n);
  p.rows_returned = static_cast<double>(returned) / static_cast<double>(n);
  p.scans_avoided = static_cast<double>(after.index_scans_avoided -
                                        before.index_scans_avoided) / static_cast<double>(n);
  p.examined_per_returned =
      (filtered + static_cast<double>(returned)) / static_cast<double>(std::max<uint64_t>(1, returned));
  return p;
}

// ---------------------------------------------------------------- main

// A class's latency: the geometric mean of the medians of its queries that
// ran. The pooled median of a class whose queries cost 0.5-13 ms would sit
// on whichever query's mode holds the middle sample, and jump between them
// from run to run; each query's own median does not, and the geometric
// mean moves by the same share when any one query gets faster. Append and
// view-lag medians are combined the same way over the appended tables
// (knows commits take a tenth of a post or comment commit).
template <size_t N, typename Pick>
double GeoMeanOfMedians(const std::array<std::vector<double>, N>& sets, Pick pick) {
  std::vector<double> medians;
  for (size_t i = 0; i < N; ++i) {
    if (pick(i) && !sets[i].empty()) medians.push_back(e2e::Median(sets[i]));
  }
  return e2e::GeoMean(medians);
}

double ClassP50(const std::array<std::vector<double>, kQueries>& lat, Cls c) {
  return GeoMeanOfMedians(lat, [c](size_t q) { return kClassOf[q] == c; });
}

double TableP50(const std::array<std::vector<double>, kStreamTables>& by_table) {
  return GeoMeanOfMedians(by_table, [](size_t) { return true; });
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--trace-out") o.trace_out = v;
    else if (a == "--sf") o.sf = std::strtod(v.c_str(), nullptr);
    else if (a == "--setups") o.setups = std::atoi(v.c_str());
    else if (a == "--read-rate") o.read_rate = std::strtod(v.c_str(), nullptr);
    else if (a == "--append-rate") o.append_rate = std::strtod(v.c_str(), nullptr);
    else if (a == "--calibrate") o.calibrate = v == "1";
    else return Status::InvalidArgument("unknown argument " + a);
  }
  if (o.workload.empty()) return Status::InvalidArgument("--workload is required");
  if (o.seconds <= 0 || o.sf <= 0 || o.setups < 1) {
    return Status::InvalidArgument("--seconds, --sf and --setups must be positive");
  }
  return o;
}

// Idle-probe sample counts per class and for the update stream: fixed, so
// a probe measures the same amount of work whatever the host's speed, and
// large enough that each probe spans several seconds of the host's
// second-to-second speed changes (README.md).
constexpr uint64_t kProbeReads[kClasses] = {4000, 8000, 2400};
constexpr size_t kProbeBatches = 400;
// A probe that has not finished by then stops (a host far slower than the
// one the counts were sized on); its samples so far still count.
constexpr auto kMaxProbe = std::chrono::seconds(20);
// Window/probe rounds of a workload with probes (each probe does its
// share of the counts above per round), and the parameter streams each
// round draws from.
constexpr int kProbeRounds = 4;
constexpr uint64_t kStreamsPerRound = 16;

// ServiceStats deltas summed over the window segments, so counters of
// the probes between them stay out of the per-layer metrics. Gauges and
// the admission-wait percentiles come from the last segment.
struct WindowCounters {
  uint64_t busy = 0, requests = 0, replans = 0, executions = 0, deltas = 0,
           rows_maintained = 0, recomputed = 0, compactions = 0, bytes_reclaimed = 0,
           links_rewritten = 0, bitmap_us = 0, range_us = 0;
  ServiceStats last;

  void Add(const ServiceStats& s0, const ServiceStats& s1, uint64_t bitmap, uint64_t range) {
    busy += s1.net_busy_rejections - s0.net_busy_rejections;
    requests += s1.net_requests - s0.net_requests;
    replans += s1.prepared_replans - s0.prepared_replans;
    executions += s1.prepared_executions - s0.prepared_executions;
    deltas += s1.deltas_propagated - s0.deltas_propagated;
    rows_maintained += s1.rows_maintained_incrementally - s0.rows_maintained_incrementally;
    recomputed += s1.views_recomputed - s0.views_recomputed;
    compactions += s1.compactions_run - s0.compactions_run;
    bytes_reclaimed += s1.bytes_reclaimed - s0.bytes_reclaimed;
    links_rewritten += s1.chain_links_rewritten - s0.chain_links_rewritten;
    bitmap_us += bitmap;
    range_us += range;
    last = s1;
  }
};

// Rate-sweep helper (--calibrate 1): the median wire round trip of each
// query alone on the idle server (closed loop, one connection), and the
// mix that gives every query the same share of server time: weights
// proportional to 1 / cost. Prints one JSON line.
int Calibrate(const RunCtx& rc) {
  std::array<double, kQueries> cost{};
  double inv_total = 0;
  for (int q = 0; q < kQueries; ++q) {
    ReadLoad load;
    load.mix[q] = 1;
    load.closed_loop = true;
    load.max_requests = 200;
    load.end = Clock::now() + kMaxProbe;
    load.stream = 100 + static_cast<uint64_t>(q);
    ReaderStats st(Clock::now());
    Status s = PoolReader(rc, load, nullptr, &st);
    if (!s.ok() || st.failed > 0) {
      std::cerr << "calibration of SQ" << (q + 1) << " failed: " << s.ToString() << "\n";
      return 1;
    }
    cost[q] = e2e::Median(st.lat_us[q]);
    inv_total += 1.0 / cost[q];
  }
  std::string costs, mix;
  for (int q = 0; q < kQueries; ++q) {
    const char* sep = q > 0 ? ", " : "";
    costs += sep;
    costs += std::to_string(cost[q]);
    mix += sep;
    mix += std::to_string(100.0 / cost[q] / inv_total);
  }
  std::cout << "{\"cost_us\": [" << costs << "], \"mix_percent\": [" << mix << "]}"
            << std::endl;
  return 0;
}

int Run(const Options& o) {
  Result<Workload> wr = GetWorkload(o.workload);
  if (!wr.ok()) {
    std::cerr << wr.status().ToString() << "\n";
    return 2;
  }
  Workload w = *wr;
  if (o.read_rate >= 0) w.read_rate = o.read_rate;
  if (o.append_rate >= 0) w.append_rate = o.append_rate;

  const e2e::IdleSpinners awake;
  g_placement.Confine();
  if (!HarnessSelfTest()) {
    std::cerr << "harness self-test failed\n";
    return 2;
  }

  const Clock::time_point origin = Clock::now();
  e2e::SpanLog setup_spans(origin);

  // Set up `setups` times; setup_s is the median, the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int s = 0; s < o.setups; ++s) {
    d.reset();
    auto t0 = Clock::now();
    auto dr = SetUp(w, o, o.trace ? &setup_spans : nullptr);
    if (!dr.ok()) {
      std::cerr << "set-up failed: " << dr.status().ToString() << "\n";
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    d = std::move(dr).ValueUnsafe();
  }
  const uint64_t llc = e2e::LastLevelCacheBytes();
  std::cerr << "data: " << d->Rows() << " rows (post " << d->data.posts.size() << ", comment "
            << d->data.comments.size() << ", knows " << d->data.knows.size() << "), " << d->DataBytes() << " data bytes + "
            << d->IndexBytes() << " index bytes; LLC " << llc << " bytes ("
            << Ratio(d->DataBytes() + d->IndexBytes(), llc) << "x)\n";

  // The update stream for the measured window (plus the idle probe of a
  // workload without one).
  const Workload demo = *GetWorkload("demo_mixed");
  const size_t n_batches =
      w.append_rate > 0
          ? std::min<size_t>(static_cast<size_t>(w.append_rate * o.seconds) + 4, 3000)
          : kProbeBatches;
  const std::vector<Batch> stream =
      MakeStream(d->data, n_batches, w.append_rate > 0 ? w.batch_rows : demo.batch_rows);

  // A workload that leaves a read class or the update stream idle gets
  // those metrics from idle probes. Window and probes then alternate in
  // kProbeRounds rounds, so every metric samples the whole run rather than
  // one stretch of the host's drifting speed; a workload without probes
  // runs one window.
  std::array<bool, kClasses> probed{};
  bool any_probe = w.append_rate <= 0;
  for (int c = 0; c < kClasses; ++c) {
    probed[c] = !Exercises(w, static_cast<Cls>(c));
    any_probe |= probed[c];
  }
  const int rounds = any_probe ? kProbeRounds : 1;
  const Clock::duration segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(o.seconds / rounds));

  // The post table's secondary indexes are maintained on the executor of
  // the session that built the table, not the service's, so their upkeep
  // time is read there.
  const QueryMetrics& post_metrics = d->session->exec().metrics();
  std::mt19937_64 phase_rng(o.seed ^ 0xA11CEULL);
  const double read_phase = Uniform01(phase_rng);
  const double append_phase = Uniform01(phase_rng);
  RunCtx rc;
  rc.o = &o;
  rc.d = d.get();
  rc.stream = &stream;
  rc.read_sched = {Clock::now(), std::max(1.0, w.read_rate), read_phase};
  if (o.calibrate) return Calibrate(rc);

  std::vector<std::unique_ptr<ReaderStats>> readers;
  AppendStats app(origin), probe_app(origin);
  WindowCounters wc;
  std::array<std::vector<double>, kQueries> lat;
  uint64_t attempted = 0, failed = 0, reads_done = 0;
  double window_s = 0, peak_rss_mb = 0;
  size_t rows_end = 0, data_bytes_end = 0, index_bytes_end = 0;
  for (int round = 0; round < rounds; ++round) {
    // The window runs without the dashboards an append probe subscribed.
    if (round > 0) UnsubscribeDashboards(d.get());
    // Warm-up: every statement a few times, which also re-binds the plans
    // to the epoch an append probe left.
    std::mt19937_64 warm_rng(o.seed + static_cast<uint64_t>(round));
    for (int q = 0; q < kQueries; ++q) {
      for (int i = 0; i < 5; ++i) {
        net::RowsReply reply;
        (void)Execute(d->conn, q, BaseParam(q, d->data, warm_rng), &reply);
      }
    }
    d->service->ResetStats();
    const ServiceStats s0 = d->service->Stats();
    const uint64_t bitmap_us0 = post_metrics.bitmap_maintenance_us();
    const uint64_t range_us0 = post_metrics.range_maintenance_us();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    rc.read_sched = {t0, std::max(1.0, w.read_rate), read_phase};
    const e2e::Schedule append_sched{t0, std::max(1.0, w.append_rate), append_phase};
    const Clock::time_point end = t0 + segment;

    std::vector<std::thread> threads;
    Status reader_status;
    ReadLoad load;
    load.mix = w.mix;
    load.closed_loop = w.closed_loop;
    load.concurrency = static_cast<size_t>(w.read_clients);
    load.end = end;
    load.stream = 1 + kStreamsPerRound * static_cast<uint64_t>(round);
    ReaderStats* reader = readers.emplace_back(std::make_unique<ReaderStats>(origin)).get();
    ReaderStats* pairs =  // in-process pairs
        readers.emplace_back(std::make_unique<ReaderStats>(origin)).get();
    threads.emplace_back([&rc, &o, &load, reader, pairs, &reader_status] {
      std::unique_ptr<Pairer> pairer;
      if (o.trace) pairer = std::make_unique<Pairer>(rc, pairs);
      reader_status = PoolReader(rc, load, pairer.get(), reader);
    });
    if (w.append_rate > 0) {
      threads.emplace_back(Appender, std::cref(rc), 0, stream.size(),
                           std::cref(append_sched), end, o.trace, &app);
    }
    for (std::thread& t : threads) t.join();
    if (!reader_status.ok()) {
      std::cerr << "load generator failed: " << reader_status.ToString() << "\n";
      return 1;
    }
    wc.Add(s0, d->service->Stats(), post_metrics.bitmap_maintenance_us() - bitmap_us0,
           post_metrics.range_maintenance_us() - range_us0);
    peak_rss_mb = e2e::PeakRssMb();
    rows_end = d->Rows();
    data_bytes_end = d->DataBytes();
    index_bytes_end = d->IndexBytes();
    Clock::time_point last_done = t0;
    for (ReaderStats* r : {reader, pairs}) last_done = std::max(last_done, r->last_done);
    window_s += std::chrono::duration<double>(last_done - t0).count();

    // Idle probes on the quiesced system: each missing class's queries in
    // demo_mixed's proportions, closed loop on one connection for a fixed
    // number of reads; then the update stream back to back with the
    // dashboards subscribed.
    for (int c = 0; c < kClasses; ++c) {
      if (!probed[c]) continue;
      ReadLoad probe;
      for (int q = 0; q < kQueries; ++q) probe.mix[q] = kClassOf[q] == c ? demo.mix[q] : 0;
      probe.closed_loop = true;
      probe.max_requests = kProbeReads[c] / static_cast<uint64_t>(rounds);
      probe.end = Clock::now() + kMaxProbe;
      probe.stream = 2 + static_cast<uint64_t>(c) + kStreamsPerRound * static_cast<uint64_t>(round);
      ReaderStats ps(origin);
      Status st = PoolReader(rc, probe, nullptr, &ps);
      if (!st.ok()) {
        std::cerr << "probe failed: " << st.ToString() << "\n";
        return 1;
      }
      for (int q = 0; q < kQueries; ++q) {
        lat[q].insert(lat[q].end(), ps.lat_us[q].begin(), ps.lat_us[q].end());
      }
      attempted += ps.attempted;
      failed += ps.failed;
    }
    if (w.append_rate <= 0) {
      Status st = SubscribeDashboards(d.get());
      if (!st.ok()) {
        std::cerr << "subscribe failed: " << st.ToString() << "\n";
        return 1;
      }
      // Back to back: every batch is due before the previous one commits.
      const size_t per_round = kProbeBatches / static_cast<size_t>(rounds);
      e2e::Schedule ps{Clock::now(), 1e6, 0};
      Appender(rc, per_round * static_cast<size_t>(round), per_round, ps,
               ps.start + kMaxProbe, false, &probe_app);
    }
  }
  attempted += probe_app.attempted;
  failed += probe_app.failed;

  // Merge the measured window.
  std::vector<double> gen_lag = app.send_lag_us;
  attempted += app.attempted;
  failed += app.failed;
  for (auto& r : readers) {
    for (int q = 0; q < kQueries; ++q) {
      lat[q].insert(lat[q].end(), r->lat_us[q].begin(), r->lat_us[q].end());
      reads_done += r->lat_us[q].size();
    }
    gen_lag.insert(gen_lag.end(), r->send_lag_us.begin(), r->send_lag_us.end());
    attempted += r->attempted;
    failed += r->failed;
  }
  const double read_qps = window_s > 0 ? static_cast<double>(reads_done) / window_s : 0;
  std::vector<double> lag_copy = gen_lag;
  const double send_lag_p99 = e2e::Percentile(lag_copy, 99);
  AppendStats& appends = w.append_rate > 0 ? app : probe_app;

  // Per-class engine counters (traced run only).
  std::array<EngineProfile, kClasses> profile{};
  if (o.trace) {
    for (int c = 0; c < kClasses; ++c) {
      profile[c] = ProfileClass(*d, w, static_cast<Cls>(c), o.seed);
    }
  }

  Result<CheckOutcome> check = CheckCorrectness(*d, stream, appends.appended, o.seed);
  if (!check.ok()) {
    std::cerr << "correctness check could not run: " << check.status().ToString() << "\n";
    return 1;
  }
  attempted += check->attempted;
  failed += check->failed;
  if (!check->corruption_caught) {
    std::cerr << "self-test failed: a corrupted reply passed the correctness check\n";
    return 2;
  }

  // Validity: the generator must have kept to its own schedule.
  const double kMaxSendLagP99Us = 20000;
  const bool valid = send_lag_p99 <= kMaxSendLagP99Us;

  auto pct = [](std::vector<double> v, double p) { return e2e::Percentile(v, p); };
  std::array<std::vector<double>, kClasses> pooled;
  for (int q = 0; q < kQueries; ++q) {
    auto& v = pooled[kClassOf[q]];
    v.insert(v.end(), lat[q].begin(), lat[q].end());
  }
  std::vector<double> append_all, view_lag_all;
  for (size_t t = 0; t < kStreamTables; ++t) {
    append_all.insert(append_all.end(), appends.append_us[t].begin(), appends.append_us[t].end());
    view_lag_all.insert(view_lag_all.end(), appends.view_lag_us[t].begin(),
                        appends.view_lag_us[t].end());
  }
  // The gated end-to-end metrics. The p99 tails spread across runs far
  // beyond any bound a gate could use on a shared virtual machine
  // (README.md), so the traced run reports them beside the layers.
  const std::vector<e2e::Metric> e2e_metrics = {
      {"point_p50_us", ClassP50(lat, kPoint), "us"},
      {"traverse_p50_us", ClassP50(lat, kTraverse), "us"},
      {"scan_p50_us", ClassP50(lat, kScan), "us"},
      {"read_qps", read_qps, "req/s"},
      {"success_rate", 1.0 - Ratio(failed, attempted), "ratio"},
      {"append_p50_us", TableP50(appends.append_us), "us"},
      {"view_lag_p50_us", TableP50(appends.view_lag_us), "us"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"setup_s", e2e::Median(setup_s), "s"},
  };
  const std::vector<e2e::Metric> tails = {
      {"tail.point_p99_us", pct(pooled[kPoint], 99), "us"},
      {"tail.traverse_p99_us", pct(pooled[kTraverse], 99), "us"},
      {"tail.scan_p99_us", pct(pooled[kScan], 99), "us"},
      {"tail.append_p99_us", pct(append_all, 99), "us"},
      {"tail.view_lag_p99_us", pct(view_lag_all, 99), "us"},
  };

  // Diagnostics on stderr: sample counts, probes, validity, rates.
  std::cerr << "samples: point=" << pooled[kPoint].size() << (probed[kPoint] ? "(probe)" : "")
            << " traverse=" << pooled[kTraverse].size() << (probed[kTraverse] ? "(probe)" : "")
            << " scan=" << pooled[kScan].size() << (probed[kScan] ? "(probe)" : "")
            << " appends=" << append_all.size()
            << (w.append_rate > 0 ? "" : "(probe)")
            << " view_lags=" << view_lag_all.size()
            << " lag_missing=" << appends.lag_missing << "\n";
  std::cerr << "p50_us by query:";
  for (int q = 0; q < kQueries; ++q) {
    std::cerr << " SQ" << (q + 1) << "=" << e2e::Median(lat[q]) << "(" << lat[q].size() << ")";
  }
  std::cerr << "\nappend/view lag p50_us by table:";
  for (size_t t = 0; t < kStreamTables; ++t) {
    std::cerr << " " << kStreamTable[t] << "=" << e2e::Median(appends.append_us[t]) << "/"
              << e2e::Median(appends.view_lag_us[t]) << "(" << appends.append_us[t].size() << ")";
  }
  std::cerr << "\n";
  std::cerr << "summary: {\"workload\": \"" << w.name << "\", \"valid\": "
            << (valid ? "true" : "false") << ", \"send_lag_p99_us\": " << send_lag_p99
            << ", \"offered_read_rate\": " << w.read_rate << ", \"read_qps\": " << read_qps
            << ", \"append_rate\": " << w.append_rate
            << ", \"append_backlog_s\": " << app.backlog_s
            << ", \"batches_appended\": " << app.appended.size()
            << ", \"point_p99_us\": " << tails[0].value
            << ", \"traverse_p99_us\": " << tails[1].value
            << ", \"scan_p99_us\": " << tails[2].value
            << ", \"append_p99_us\": " << tails[3].value << "}\n";

  std::vector<e2e::Metric> metrics = e2e_metrics;
  if (o.trace) {
    for (const e2e::Metric& m : e2e_metrics) {
      std::cerr << "traced " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    std::array<std::vector<double>, kClasses> overhead, exec;
    std::vector<double> enc, dec, bytes;
    for (auto& r : readers) {
      for (int c = 0; c < kClasses; ++c) {
        overhead[c].insert(overhead[c].end(), r->overhead_us[c].begin(), r->overhead_us[c].end());
        exec[c].insert(exec[c].end(), r->exec_us[c].begin(), r->exec_us[c].end());
      }
      enc.insert(enc.end(), r->encode_us.begin(), r->encode_us.end());
      dec.insert(dec.end(), r->decode_us.begin(), r->decode_us.end());
      bytes.insert(bytes.end(), r->reply_bytes.begin(), r->reply_bytes.end());
    }
    std::vector<double> all_overhead;
    for (auto& v : overhead) all_overhead.insert(all_overhead.end(), v.begin(), v.end());
    double mean_bytes = 0;
    for (double b : bytes) mean_bytes += b;
    if (!bytes.empty()) mean_bytes /= static_cast<double>(bytes.size());
    const uint64_t batches = app.appended.size();
    metrics = {
        {"net.overhead_p50_us", e2e::Median(all_overhead), "us"},
        {"net.encode_us", e2e::Median(enc), "us"},
        {"net.decode_us", e2e::Median(dec), "us"},
        {"net.reply_bytes", mean_bytes, "bytes"},
        {"net.busy_ratio", Ratio(wc.busy, wc.requests), "ratio"},
        {"service.queue_p50_us", static_cast<double>(wc.last.queue.p50_micros), "us"},
        {"service.queue_p99_us", static_cast<double>(wc.last.queue.p99_micros), "us"},
        {"service.exec_p50_us.point", e2e::Median(exec[kPoint]), "us"},
        {"service.exec_p50_us.traverse", e2e::Median(exec[kTraverse]), "us"},
        {"service.exec_p50_us.scan", e2e::Median(exec[kScan]), "us"},
        {"service.replans_per_exec", Ratio(wc.replans, wc.executions), "ratio"},
        {"service.prepare_us", e2e::Median(d->prepare_us), "us"},
    };
    for (int c = 0; c < kClasses; ++c) {
      const std::string suffix = std::string(".") + kClassName[c];
      metrics.push_back({"engine.rows_filtered_per_query" + suffix, profile[c].rows_filtered, "rows"});
      metrics.push_back({"engine.vector_batches_per_query" + suffix, profile[c].vector_batches, "count"});
      metrics.push_back({"engine.rows_returned_per_query" + suffix, profile[c].rows_returned, "rows"});
      metrics.push_back({"engine.index_scans_avoided_per_query" + suffix, profile[c].scans_avoided, "rows"});
      metrics.push_back({"engine.examined_per_returned" + suffix, profile[c].examined_per_returned, "ratio"});
    }
    const std::vector<e2e::Metric> rest = {
        {"ingest.rows_per_batch", Ratio(app.rows, batches), "rows"},
        {"ingest.bitmap_maintenance_us_per_batch",
         Ratio(wc.bitmap_us, app.post_batches), "us"},
        {"ingest.range_maintenance_us_per_batch",
         Ratio(wc.range_us, app.post_batches), "us"},
        {"view.deltas_propagated", static_cast<double>(wc.deltas), "count"},
        {"view.rows_maintained_per_commit",
         Ratio(wc.rows_maintained, batches), "rows"},
        {"view.views_recomputed", static_cast<double>(wc.recomputed), "count"},
        {"view.arrangements_per_subscriber",
         Ratio(wc.last.views_registered, wc.last.view_subscribers), "ratio"},
        {"compact.runs", static_cast<double>(wc.compactions), "count"},
        {"compact.bytes_reclaimed", static_cast<double>(wc.bytes_reclaimed), "bytes"},
        {"compact.chain_links_rewritten",
         static_cast<double>(wc.links_rewritten), "count"},
        {"compact.retired_pending", static_cast<double>(wc.last.retired_pending), "count"},
        {"storage.data_bytes_per_row", Ratio(data_bytes_end, rows_end), "bytes"},
        {"storage.index_bytes_per_row", Ratio(index_bytes_end, rows_end), "bytes"},
        {"loadgen.send_lag_p99_us", send_lag_p99, "us"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    metrics.insert(metrics.end(), tails.begin(), tails.end());

    if (!o.trace_out.empty()) {
      std::vector<const e2e::SpanLog*> logs = {&setup_spans, &app.spans};
      for (auto& r : readers) logs.push_back(&r->spans);
      if (!e2e::WriteSpans(o.trace_out, logs)) {
        std::cerr << "could not write spans to " << o.trace_out << "\n";
      }
    }
  }

  if (!valid) {
    std::cerr << "INVALID RUN: the load generator fell behind its schedule (send lag p99 "
              << send_lag_p99 << " us > " << kMaxSendLagP99Us << " us)\n";
    return 3;
  }
  const bool correct = check->failed == 0;
  std::cout << e2e::ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Options> o = ParseArgs(argc, argv);
  if (!o.ok()) {
    std::cerr << o.status().ToString() << "\n";
    return 2;
  }
  return Run(*o);
}
