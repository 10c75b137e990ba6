// serve: the resident server. The 4x planted world, Distinct::Create, then
// ServeService (2 kernel threads, CLI defaults otherwise) behind a
// ServeServer on loopback, fresh for every pass. One generator thread
// drives the connections: 90% resolve_name with names drawn Zipf(1) over
// every servable name group, 10% classify_row on uniform reference rows.
// Each cost pass sends a stream closed loop over kThreads connections (CPU
// seconds per reference answered, cold start included); a sweep then asks
// for kSweepNames distinct names, serially over one connection (CPU time
// of each request). The traced run adds an open-loop pass at the reference rate
// and a rate ladder that stops at the first rate missing the latency
// limit.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace perfbench {

using namespace distinct;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetups = 3;
constexpr int kServiceThreads = 2;
/// Latency limit on the tail percentile: a resolve_name answers an
/// interactive lookup, which should finish well within a page load.
constexpr double kLimitMs = 50.0;
/// The Zipf stream: kWarmRequests + kStreamRequests requests. A cost pass
/// sends a whole stream closed loop over kThreads connections (one
/// outstanding each) to a fresh server, cold start included, timed as a
/// whole on the process CPU clock; each of the kPasses passes has its own
/// stream, and the passes are pooled. The sweep then asks a fresh server
/// for kSweepNames distinct servable names drawn uniformly (a seeded half
/// of the about 3990), serially over one connection, each request timed on
/// the process CPU clock from its send to its answer. Every sweep request
/// is a result-cache miss that runs propagation, the pair kernel and
/// clustering, and a uniform draw samples the world's whole spread of name
/// sizes (20 requests lie beyond the p99). The open-loop passes of the traced run
/// send the first kWarmRequests of the first stream closed loop, then
/// Poisson arrivals.
constexpr size_t kWarmRequests = 1500;
constexpr size_t kStreamRequests = 1500;
constexpr double kReferenceRate = 400.0;  // requests per second
constexpr int kPasses = 3;
constexpr size_t kSweepNames = 2000;
/// The rate ladder of the traced run, on the first kRungRequests of the
/// stream (the p99 then has ten samples beyond it); it stops at the first
/// rung that misses the limit.
constexpr size_t kRungRequests = 1000;
constexpr double kLadder[] = {200, 300, 400, 500, 600, 700, 800, 1000,
                              1200, 1400, 1600, 2000, 2500, 3200};
/// A rung whose last answer is this late is abandoned (counted missed).
constexpr double kDrainSeconds = 10.0;
/// Longest a closed-loop pass may take before it is abandoned.
constexpr double kClosedLoopSeconds = 60.0;
/// The generator polls without sleeping this close to a scheduled send.
constexpr double kSpinSeconds = 250e-6;
constexpr double kMaxPollSeconds = 0.05;

struct Query {
  bool classify = false;
  size_t group = 0;  // index into engine.name_groups()
  int32_t row = -1;  // classify_row only
};

class TrafficModel {
 public:
  TrafficModel(const Distinct& engine, uint64_t seed) : rng_(seed) {
    const auto& groups = engine.name_groups();
    // Names without references (authors with no Publish row) are not
    // servable; every other group is a candidate. Zipf ranks go to them in
    // a seeded order.
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!groups[g].second.empty()) rank_to_group_.push_back(g);
      for (const int32_t ref : groups[g].second) rows_.emplace_back(ref, g);
    }
    for (size_t i = rank_to_group_.size(); i > 1; --i) {
      std::swap(rank_to_group_[i - 1], rank_to_group_[rng_.Below(i)]);
    }
    std::sort(rows_.begin(), rows_.end());
    zipf_ = std::make_unique<ZipfSampler>(rank_to_group_.size(), 1.0);
  }

  /// The next `count` queries of the seeded stream.
  std::vector<Query> Make(size_t count) {
    std::vector<Query> queries;
    for (size_t i = 0; i < count; ++i) {
      Query q;
      if (rng_.Uniform() < 0.1) {
        const auto& [row, group] = rows_[rng_.Below(rows_.size())];
        q.classify = true;
        q.row = row;
        q.group = group;
      } else {
        q.group = rank_to_group_[zipf_->Sample(rng_)];
      }
      queries.push_back(q);
    }
    return queries;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<size_t> rank_to_group_;
  std::vector<std::pair<int32_t, size_t>> rows_;  // (row, group), by row
};

std::string RequestLine(const Distinct& engine, int64_t id, const Query& q) {
  char buf[64];
  if (q.classify) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%lld,\"method\":\"classify_row\",\"row\":%d}",
                  static_cast<long long>(id), q.row);
    return buf;
  }
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"method\":\"resolve_name\",\"name\":\"";
  for (const char ch : engine.name_groups()[q.group].first) {
    if (ch == '"' || ch == '\\') line += '\\';
    line += ch;
  }
  return line + "\"}";
}

/// One seeded request stream: the queries, their wire lines (request i
/// carries id i + 1), and unit-rate Poisson arrival times.
struct Stream {
  std::vector<Query> queries;
  std::vector<std::string> lines;
  std::vector<double> unit_arrivals;
};

Stream MakeStream(const Distinct& engine, uint64_t seed, size_t count) {
  TrafficModel traffic(engine, seed);
  Stream stream;
  stream.queries = traffic.Make(count);
  stream.unit_arrivals = PoissonArrivals(1.0, count, traffic.rng());
  for (size_t i = 0; i < count; ++i) {
    stream.lines.push_back(
        RequestLine(engine, static_cast<int64_t>(i + 1), stream.queries[i]));
  }
  return stream;
}

/// kSweepNames distinct servable names (all of them if there are fewer),
/// as resolve_name, in a seeded order.
Stream MakeSweep(const Distinct& engine, uint64_t seed) {
  Stream sweep;
  const auto& groups = engine.name_groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!groups[g].second.empty()) sweep.queries.push_back(Query{false, g, -1});
  }
  Rng rng(seed);
  for (size_t i = sweep.queries.size(); i > 1; --i) {
    std::swap(sweep.queries[i - 1], sweep.queries[rng.Below(i)]);
  }
  sweep.queries.resize(std::min(sweep.queries.size(), kSweepNames));
  for (size_t i = 0; i < sweep.queries.size(); ++i) {
    sweep.lines.push_back(
        RequestLine(engine, static_cast<int64_t>(i + 1), sweep.queries[i]));
  }
  sweep.unit_arrivals.assign(sweep.queries.size(), 0.0);
  return sweep;
}

/// What one phase measured.
struct PhaseResult {
  const Stream* stream = nullptr;
  size_t first = 0;  // stream position of requests[0]
  std::vector<Request> requests;
  std::vector<std::string> responses;  // "" = never answered
  std::vector<double> cpu_ms;  // per request; serial phases only
  int64_t backlog_at_last_send = 0;
  double wall_s = 0.0;
};

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, int connections) {
    // Timed waits of this thread wake on time rather than up to 50 µs
    // late (the default timer slack).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (int c = 0; c < connections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        ok_ = false;
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conns_.push_back(Conn{fd, {}, 0});
    }
  }
  ~LoadGenerator() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool ok() const { return ok_ && !conns_.empty(); }

  /// Sends lines[first + i] (whose id is first + i + 1) for every i of
  /// `arrivals`. Open loop (`window` 0): at `start + arrivals[i]` — a late
  /// answer never delays a later send. Closed loop (`window` > 0): ignores
  /// the arrival times and keeps `window` requests outstanding per
  /// connection, each scheduled when it is sent. Collects every answer.
  PhaseResult Run(const std::vector<double>& arrivals,
                  const std::vector<std::string>& lines, size_t first,
                  int64_t window) {
    PhaseResult out;
    out.first = first;
    const size_t n = arrivals.size();
    out.requests.resize(n);
    out.responses.assign(n, "");
    const Clock::time_point origin = Clock::now();
    const double start = 0.002;  // first arrival offset base
    for (size_t i = 0; i < n; ++i) out.requests[i].scheduled = start + arrivals[i];
    auto now_s = [&] { return SecondsSince(origin); };
    size_t next = 0, answered = 0;
    std::unordered_map<int64_t, size_t> pending;  // request id -> index
    const double give_up =
        (window > 0 ? kClosedLoopSeconds : 0.0) +
        (n ? out.requests[n - 1].scheduled : 0.0) + kDrainSeconds;
    std::vector<pollfd> fds(conns_.size());
    while (answered < n) {
      double now = now_s();
      for (;;) {
        if (next >= n) break;
        // Least-loaded connection, ties to the lowest index.
        size_t c = 0;
        for (size_t k = 1; k < conns_.size(); ++k) {
          if (conns_[k].outstanding < conns_[c].outstanding) c = k;
        }
        if (window > 0) {
          if (conns_[c].outstanding >= window) break;
          out.requests[next].scheduled = now;
        } else if (out.requests[next].scheduled > now) {
          break;
        }
        const std::string line = lines[first + next] + "\n";
        if (!WriteAll(conns_[c].fd, line)) return out;
        out.requests[next].sent = now_s();
        pending.emplace(static_cast<int64_t>(first + next + 1), next);
        ++conns_[c].outstanding;
        ++next;
        if (next == n) {
          out.backlog_at_last_send = static_cast<int64_t>(pending.size());
        }
        now = now_s();
      }
      if (now > give_up) break;
      const double wait_s = next < n && window == 0
                                ? out.requests[next].scheduled - now
                                : give_up - now;
      // Sleep until shortly before the next send, then poll without
      // blocking: a timed sleep wakes late by tens of microseconds, and
      // that lateness would be charged to the request.
      const double sleep_s =
          std::clamp(wait_s - kSpinSeconds, 0.0, kMaxPollSeconds);
      timespec timeout{};
      timeout.tv_nsec = static_cast<long>(sleep_s * 1e9);
      for (size_t k = 0; k < conns_.size(); ++k) {
        fds[k] = pollfd{conns_[k].fd, POLLIN, 0};
      }
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (size_t k = 0; k < conns_.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char buf[1 << 16];
        const ssize_t got = ::recv(conns_[k].fd, buf, sizeof(buf), 0);
        if (got <= 0) {
          if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          return out;  // connection lost: the rest stay unanswered
        }
        const double done = now_s();
        conns_[k].inbox.append(buf, static_cast<size_t>(got));
        size_t eol;
        while ((eol = conns_[k].inbox.find('\n')) != std::string::npos) {
          std::string response = conns_[k].inbox.substr(0, eol);
          conns_[k].inbox.erase(0, eol + 1);
          const int64_t id = ResponseId(response);
          auto it = pending.find(id);
          if (it == pending.end()) continue;
          out.requests[it->second].done = done;
          out.responses[it->second] = std::move(response);
          pending.erase(it);
          --conns_[k].outstanding;
          ++answered;
        }
      }
    }
    out.wall_s = now_s() - start;
    return out;
  }

  /// Sends lines[first + i] for i < count one at a time over the first
  /// connection, each after the previous answer, and records each
  /// request's process CPU time from its send to its answer (nothing else
  /// runs meanwhile, so that is the request's cost on both sides of the
  /// socket).
  PhaseResult RunSerial(const std::vector<std::string>& lines, size_t first,
                        size_t count) {
    PhaseResult out;
    out.first = first;
    out.requests.resize(count);
    out.responses.assign(count, "");
    out.cpu_ms.assign(count, 0.0);
    Conn& conn = conns_.front();
    const Clock::time_point origin = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      const double cpu_start = ProcessCpuSeconds();
      out.requests[i].scheduled = out.requests[i].sent = SecondsSince(origin);
      if (!WriteAll(conn.fd, lines[first + i] + "\n")) return out;
      size_t eol;
      while ((eol = conn.inbox.find('\n')) == std::string::npos) {
        pollfd pfd{conn.fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(kDrainSeconds * 1e3)) <= 0) {
          return out;  // no answer in time: the rest stay unanswered
        }
        char buf[1 << 16];
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (got <= 0) return out;
        conn.inbox.append(buf, static_cast<size_t>(got));
      }
      out.cpu_ms[i] = (ProcessCpuSeconds() - cpu_start) * 1e3;
      out.requests[i].done = SecondsSince(origin);
      out.responses[i] = conn.inbox.substr(0, eol);
      conn.inbox.erase(0, eol + 1);
    }
    out.wall_s = SecondsSince(origin);
    return out;
  }

 private:
  struct Conn {
    int fd;
    std::string inbox;
    int64_t outstanding;
  };

  static bool WriteAll(int fd, const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t put =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(put);
    }
    return true;
  }

  static int64_t ResponseId(const std::string& response) {
    // Every response starts {"id":N,...
    const size_t at = response.find("\"id\":");
    if (at == std::string::npos) return -1;
    return std::strtoll(response.c_str() + at + 5, nullptr, 10);
  }

  std::vector<Conn> conns_;
  bool ok_ = true;
};

/// Expected response bytes of a query answered with `answer`.
std::string ExpectedResponse(const Distinct& engine, int64_t id,
                             const Query& q,
                             const serve::ResolveAnswer& answer) {
  const std::string& name = engine.name_groups()[q.group].first;
  if (!q.classify) {
    return serve::AnswerResponseJson(id, serve::Method::kResolveName, name,
                                     answer);
  }
  const auto pos = static_cast<size_t>(
      std::find(answer.refs.begin(), answer.refs.end(), q.row) -
      answer.refs.begin());
  const int cluster =
      pos < answer.refs.size() ? answer.clustering.assignment[pos] : -1;
  return serve::AnswerResponseJson(id, serve::Method::kClassifyRow, name,
                                   answer, q.row, cluster);
}

bool IsRefusal(const std::string& response) {
  return response.find("\"ok\":false") != std::string::npos;
}

struct RungSummary {
  double rate = 0.0;
  double p50_ms = 0.0;
  TailPercentile tail;
  int64_t failed = 0;
  int64_t backlog = 0;
  bool passed = false;
  double answered_refs_per_s = 0.0;
  double lag_p99_ms = 0.0;  // how late the generator sent (open loop)
  std::vector<double> latencies_ms;  // refused or unanswered: +inf
  int64_t answered_refs = 0;
  double wall_s = 0.0;
  serve::ServiceStats stats;
};

/// One service + server stack over a shared engine. The server points
/// at the service, so it is declared (and destroyed) after it.
struct Stack {
  std::unique_ptr<serve::ServeService> service;
  std::unique_ptr<serve::ServeServer> server;

  void Stop() {
    server.reset();  // drains and joins its connection threads first
    service.reset();
  }
};

Status StartStack(const Distinct& engine,
                  const serve::ServiceOptions& options, Stack* stack) {
  stack->Stop();
  stack->service = std::make_unique<serve::ServeService>(engine, options);
  stack->server = std::make_unique<serve::ServeServer>(stack->service.get(),
                                                       serve::ServerOptions{});
  return stack->server->Start();
}

/// Summarizes one measured pass over requests [run.first, +size).
RungSummary Summarize(const Distinct& engine, double rate,
                      const PhaseResult& run,
                      const serve::ServiceStats& stats) {
  const std::vector<Query>& queries = run.stream->queries;
  RungSummary rung;
  rung.rate = rate;
  rung.stats = stats;
  std::vector<bool> refused(run.requests.size());
  int64_t answered_refs = 0;
  for (size_t i = 0; i < run.requests.size(); ++i) {
    refused[i] = run.responses[i].empty() || IsRefusal(run.responses[i]);
    rung.failed += refused[i];
    if (!refused[i]) {
      answered_refs += static_cast<int64_t>(
          engine.name_groups()[queries[run.first + i].group].second.size());
    }
  }
  rung.latencies_ms = LatenciesWithMisses(run.requests, refused);
  rung.p50_ms = Median(rung.latencies_ms);
  rung.tail = HighestTailPercentile(rung.latencies_ms);
  rung.answered_refs = answered_refs;
  rung.wall_s = run.wall_s;
  rung.backlog = run.backlog_at_last_send;
  // Little's law: more requests in the system than rate × limit means the
  // mean wait is already past the limit — the backlog is growing.
  const bool backlog_grew = static_cast<double>(rung.backlog) >
                            std::max<double>(kThreads, rate * kLimitMs / 1e3);
  rung.passed =
      rung.failed == 0 && !backlog_grew && rung.tail.value <= kLimitMs;
  rung.answered_refs_per_s = answered_refs / std::max(run.wall_s, 1e-9);
  std::vector<double> lag_ms;
  for (const Request& r : run.requests) lag_ms.push_back(GeneratorLagMs(r));
  rung.lag_p99_ms = HighestTailPercentile(lag_ms).value;
  if (rate > 0) {
    std::printf("serve %5.0f/s open loop: requests %zu..%zu, p50 %.3f ms, "
                "p%.0f %.3f ms, lag p50 %.3f ms p99 %.3f ms, failed %lld, backlog %lld%s\n",
                rate, run.first, run.first + run.requests.size(), rung.p50_ms,
                rung.tail.percentile, rung.tail.value, Median(lag_ms), rung.lag_p99_ms,
                static_cast<long long>(rung.failed),
                static_cast<long long>(rung.backlog),
                rung.passed ? "" : "  (misses the limit)");
  } else {
    std::printf("serve closed loop: requests %zu..%zu in %.3f s, %.0f refs/s, "
                "failed %lld\n",
                run.first, run.first + run.requests.size(), run.wall_s,
                rung.answered_refs_per_s, static_cast<long long>(rung.failed));
  }
  return rung;
}

/// One pass on a fresh service: a closed-loop warm-up over requests
/// [0, warm) (answers kept for checking, not timed), then requests
/// [warm, warm + arrivals.size()) — open loop at `rate`, or closed loop
/// (one outstanding request per connection) when `rate` is 0. Every
/// phase's answers are appended to `runs`.
StatusOr<RungSummary> RunPass(const Distinct& engine,
                              const serve::ServiceOptions& options,
                              const Stream& stream, double rate, size_t warm,
                              size_t count, std::vector<PhaseResult>* runs) {
  const std::vector<std::string>& lines = stream.lines;
  Stack stack;
  DISTINCT_RETURN_IF_ERROR(StartStack(engine, options, &stack));
  LoadGenerator generator(stack.server->port(), kThreads);
  if (!generator.ok()) return InternalError("could not connect to the server");
  if (warm > 0) {
    runs->push_back(generator.Run(std::vector<double>(warm, 0.0), lines, 0, 1));
    runs->back().stream = &stream;
  }
  std::vector<double> arrivals(count, 0.0);
  for (size_t i = 0; rate > 0 && i < count; ++i) {
    arrivals[i] = stream.unit_arrivals[i] / rate;
  }
  runs->push_back(generator.Run(arrivals, lines, warm, rate > 0 ? 0 : 1));
  runs->back().stream = &stream;
  stack.server->Shutdown();
  return Summarize(engine, rate, runs->back(), stack.service->stats());
}

/// What one cost pass measured.
struct CostPass {
  int64_t refs = 0;  // references answered
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// One cost pass: the whole stream closed loop over kThreads connections
/// on a fresh service, timed as a whole on the process CPU clock. Its
/// answers are appended to `runs`.
StatusOr<CostPass> RunCostPass(const Distinct& engine,
                               const serve::ServiceOptions& options,
                               const Stream& stream,
                               std::vector<PhaseResult>* runs) {
  Stack stack;
  DISTINCT_RETURN_IF_ERROR(StartStack(engine, options, &stack));
  LoadGenerator generator(stack.server->port(), kThreads);
  if (!generator.ok()) return InternalError("could not connect to the server");
  const double cpu_start = ProcessCpuSeconds();
  runs->push_back(generator.Run(std::vector<double>(stream.lines.size(), 0.0),
                                stream.lines, 0, 1));
  CostPass cost;
  cost.cpu_s = ProcessCpuSeconds() - cpu_start;
  runs->back().stream = &stream;
  stack.server->Shutdown();
  const RungSummary closed =
      Summarize(engine, 0.0, runs->back(), stack.service->stats());
  cost.refs = closed.answered_refs;
  cost.wall_s = closed.wall_s;
  return cost;
}

/// The sweep: every request of `sweep` serially over one connection on a
/// fresh service. Its answers (with each request's CPU time) are appended
/// to `runs`.
Status RunSweep(const Distinct& engine, const serve::ServiceOptions& options,
                const Stream& sweep, std::vector<PhaseResult>* runs) {
  Stack stack;
  DISTINCT_RETURN_IF_ERROR(StartStack(engine, options, &stack));
  LoadGenerator serial(stack.server->port(), 1);
  if (!serial.ok()) return InternalError("could not connect to the server");
  runs->push_back(serial.RunSerial(sweep.lines, 0, sweep.lines.size()));
  runs->back().stream = &sweep;
  stack.server->Shutdown();
  return Status::Ok();
}

}  // namespace

void RunServeWorkload(const Args& args, Result* result) {
  auto step = Clock::now();
  auto world = GenerateDblpDataset(ScaledWorld(args.seed));
  LogStep("generating the world", step);
  if (!world.ok()) {
    result->Fail("GenerateDblpDataset: " + world.status().ToString());
    return;
  }
  const DistinctConfig config = EngineConfig(/*supervised=*/true);
  serve::ServiceOptions service_options;
  service_options.num_threads = kServiceThreads;

  // Set-up: Create + service + server start, several times (each stack is
  // torn down again; every measured pass starts its own).
  std::vector<double> setup_cpu_s;
  std::unique_ptr<Distinct> engine;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.Stop();
    engine.reset();
    const double cpu_start = ProcessCpuSeconds();
    auto created = Distinct::Create(world->db, DblpReferenceSpec(), config);
    if (!created.ok()) {
      result->Fail("Distinct::Create: " + created.status().ToString());
      return;
    }
    engine = std::make_unique<Distinct>(*std::move(created));
    if (Status s = StartStack(*engine, service_options, &stack); !s.ok()) {
      result->Fail("ServeServer::Start: " + s.ToString());
      return;
    }
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
  }
  stack.Stop();

  // The request streams, generated before any timing: one per cost pass,
  // each with its own seeded hot set, so a run averages over several, and
  // the sweep. Every pass runs on a fresh service.
  std::vector<Stream> streams;
  for (int p = 0; p < kPasses; ++p) {
    streams.push_back(MakeStream(*engine, args.seed * kPasses + p,
                                 kWarmRequests + kStreamRequests));
  }
  const Stream sweep = MakeSweep(*engine, args.seed ^ 0x5eedull);
  std::vector<PhaseResult> measured;
  auto pass = [&](const Stream& stream, double rate, size_t warm,
                  size_t count) -> std::optional<RungSummary> {
    auto rung = RunPass(*engine, service_options, stream, rate, warm, count,
                        &measured);
    if (!rung.ok()) {
      result->Fail("serve pass: " + rung.status().ToString());
      return std::nullopt;
    }
    return *rung;
  };
  // The untraced run: the cost passes, one per stream, pooled; then the
  // sweep. The traced run instead adds an open-loop pass at the reference
  // rate (for the serve.* figures) and the rate ladder (for serve.max_qps).
  int64_t cost_refs = 0;
  double cost_cpu_s = 0.0, cost_wall_s = 0.0;
  for (const Stream& stream : streams) {
    if (args.trace) break;
    auto cost = RunCostPass(*engine, service_options, stream, &measured);
    if (!cost.ok()) {
      result->Fail("serve pass: " + cost.status().ToString());
      return;
    }
    cost_refs += cost->refs;
    cost_cpu_s += cost->cpu_s;
    cost_wall_s += cost->wall_s;
  }
  std::vector<double> sweep_cpu_ms, sweep_wall_ms;
  if (!args.trace) {
    if (Status s = RunSweep(*engine, service_options, sweep, &measured);
        !s.ok()) {
      result->Fail("serve sweep: " + s.ToString());
      return;
    }
    const PhaseResult& run = measured.back();
    for (size_t i = 0; i < run.requests.size(); ++i) {
      const bool answered =
          !run.responses[i].empty() && !IsRefusal(run.responses[i]);
      const double inf = std::numeric_limits<double>::infinity();
      sweep_cpu_ms.push_back(answered ? run.cpu_ms[i] : inf);
      sweep_wall_ms.push_back(
          answered ? (run.requests[i].done - run.requests[i].sent) * 1e3 : inf);
    }
  }
  std::optional<RungSummary> reference;
  double max_qps = 0.0;
  std::string rates_run;
  if (args.trace) {
    reference = pass(streams.front(), kReferenceRate, kWarmRequests,
                     kStreamRequests);
    if (!reference) return;
  }
  for (size_t r = 0; args.trace && r < std::size(kLadder); ++r) {
    const std::optional<RungSummary> rung =
        pass(streams.front(), kLadder[r], kWarmRequests, kRungRequests);
    if (!rung) return;
    if (!rates_run.empty()) rates_run += ',';
    rates_run += std::to_string(static_cast<int>(kLadder[r]));
    if (!rung->passed) break;  // higher rates only miss more
    max_qps = kLadder[r];
  }
  const double peak_rss = PeakRssMb();

  LogStep("set-up and the measured passes", step);
  step = Clock::now();
  // Correctness, untimed: every answer against the batch resolver.
  std::vector<NameGroup> asked;
  std::unordered_map<size_t, size_t> asked_index;  // group -> asked pos
  std::vector<const Stream*> sent;
  for (const Stream& stream : streams) sent.push_back(&stream);
  if (!args.trace) sent.push_back(&sweep);
  for (const Stream* stream : sent) {
    for (const Query& q : stream->queries) {
      if (asked_index.emplace(q.group, asked.size()).second) {
        const auto& group = engine->name_groups()[q.group];
        asked.push_back(NameGroup{group.first, group.second});
      }
    }
  }
  ShardedScanOptions scan_options;
  scan_options.num_threads = kThreads;
  auto batch = RunShardedScan(*engine, asked, scan_options);
  if (!batch.ok() || batch->results.size() != asked.size()) {
    result->Fail("batch resolver failed on the asked names");
    return;
  }
  // The batch scan stands in for Distinct::ResolveName; confirm that on a
  // seeded sample of the asked names.
  Rng sample_rng(args.seed ^ 0x5e7e5e7eull);
  for (int k = 0; k < 16 && !asked.empty(); ++k) {
    const size_t a = sample_rng.Below(asked.size());
    auto single = engine->ResolveName(asked[a].name);
    if (!single.ok() || single->refs != asked[a].refs ||
        !SameClustering(single->clustering, batch->results[a].clustering)) {
      result->Fail("batch resolver differs from ResolveName on '" +
                   asked[a].name + "'");
    }
  }
  auto expected = [&](const Stream& stream, size_t i) {
    const Query& q = stream.queries[i];
    const size_t a = asked_index.at(q.group);
    return ExpectedResponse(
        *engine, static_cast<int64_t>(i + 1), q,
        serve::ResolveAnswer{asked[a].refs, batch->results[a].clustering});
  };
  int64_t mismatched = 0;
  for (const PhaseResult& run : measured) {
    for (size_t i = 0; i < run.responses.size(); ++i) {
      const std::string& got = run.responses[i];
      const size_t at = run.first + i;
      if (got.empty() || IsRefusal(got)) {
        result->account().Record(Outcome::kRefused);
        if (result->account().refused() <= 3) {
          std::fprintf(stderr, "serve: refused: %s -> %s\n",
                       run.stream->lines[at].c_str(),
                       got.empty() ? "(no answer)" : got.c_str());
        }
        continue;
      }
      const bool same = got == expected(*run.stream, at);
      result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
      mismatched += !same;
    }
  }
  LogStep("the answer check", step);
  if (mismatched > 0) {
    result->Fail(std::to_string(mismatched) +
                 " served answers differ from the batch resolver");
  }

  int64_t refs = 0;
  for (const auto& group : engine->name_groups()) refs += group.second.size();
  result->Info("refs", refs);
  result->Info("names", static_cast<int64_t>(engine->name_groups().size()));
  result->Info("distinct_names_asked", static_cast<int64_t>(asked.size()));
  result->Info("service_threads", static_cast<int64_t>(kServiceThreads));
  result->Info("connections", static_cast<int64_t>(kThreads));
  result->Info("latency_limit_ms", kLimitMs);
  result->Info("stream_requests",
               static_cast<int64_t>(kWarmRequests + kStreamRequests));
  result->Info("flush_policy",
               std::string("in memory: serving writes no file"));
  if (args.trace) {
    result->Info("reference_rate", kReferenceRate);
    result->Info("serve_p50_ms", reference->p50_ms);
    result->Info("reference_tail_percentile", reference->tail.percentile);
    result->Info("serve_p99_ms", reference->tail.value);
    result->Info("ladder_requests_per_rung",
                 static_cast<int64_t>(kRungRequests));
    result->Info("ladder_rates_run", rates_run);
    result->Info("serve_max_qps", max_qps);
  }

  if (!args.trace) {
    const TailPercentile sweep_cpu_tail = HighestTailPercentile(sweep_cpu_ms);
    result->Info("cost_passes", static_cast<int64_t>(kPasses));
    result->Info("sweep_requests", static_cast<int64_t>(sweep_cpu_ms.size()));
    result->Info("sweep_cpu_tail_percentile", sweep_cpu_tail.percentile);
    result->Info("sweep_wall_p50_ms", Median(sweep_wall_ms));
    result->Info("sweep_wall_tail_ms",
                 HighestTailPercentile(sweep_wall_ms).value);
    result->Info("closed_loop_refs_per_wall_s", cost_refs / cost_wall_s);
    result->Metric("setup_s", Median(setup_cpu_s), "s");
    result->Metric("peak_rss_mb", peak_rss, "MB");
    result->Metric("ok_share", 1.0 - result->account().fail_share(), "share");
    result->Metric("refs_per_cpu_s", cost_refs / cost_cpu_s, "1/s");
    result->Metric("op_cpu_p50_ms", Median(sweep_cpu_ms), "ms");
    result->Metric("op_cpu_tail_ms", sweep_cpu_tail.value, "ms");
    return;
  }

  // Traced run: the same stream through ServeService::HandleLine in
  // process, serially, on fresh services — once untraced, once with a
  // span per request. Latencies are those of the measured segment.
  auto replay = [&](SpanRecorder* spans) {
    serve::ServeService fresh(*engine, service_options);
    std::vector<double> ms;
    const auto start = Clock::now();
    const std::vector<std::string>& lines = streams.front().lines;
    for (size_t i = 0; i < lines.size(); ++i) {
      const auto t0 = Clock::now();
      ScopedSpan span(spans, "serve.handle_line");
      fresh.HandleLine(lines[i]);
      if (i >= kWarmRequests) ms.push_back(SecondsSince(t0) * 1e3);
    }
    return std::make_pair(SecondsSince(start), ms);
  };
  SpanRecorder spans;
  MeasureOfflineLayers(world->db, config, &spans, result);
  const auto untraced = replay(nullptr);
  const auto traced = replay(&spans);
  const double service_p50 = Median(traced.second);
  result->Metric("serve.service_p50_ms", service_p50, "ms");
  result->Metric("serve.service_p99_ms",
                 HighestTailPercentile(traced.second).value, "ms");
  result->Metric("serve.transport_ms", reference->p50_ms - service_p50, "ms");
  const serve::ServiceStats& stats = reference->stats;
  const double asked_queries =
      std::max<double>(1.0, static_cast<double>(stats.queries));
  result->Metric("serve.cache_hit_share", stats.cache_hits / asked_queries,
                 "share");
  result->Metric("serve.batched_share", stats.batched / asked_queries, "share");
  result->Metric("serve.rejected_share",
                 (stats.rejected_inflight + stats.rejected_memory) /
                     asked_queries,
                 "share");
  result->Metric("serve.admission_peak_mb",
                 static_cast<double>(stats.admission_peak_bytes) / (1 << 20),
                 "MB");
  result->Metric("serve.generator_lag_p99_ms", reference->lag_p99_ms, "ms");
  result->Metric("serve.max_qps", max_qps, "1/s");
  result->Metric("obs.trace_overhead_share",
                 (traced.first - untraced.first) / untraced.first, "share");
  WriteTrace(args, spans, *result);
}

}  // namespace perfbench
