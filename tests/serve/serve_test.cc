// End-to-end coverage of the resident disambiguation service: the service
// layer (single-flight batching, deadlines, admission control, caching)
// and the socket transport (framing, malformed/oversized requests,
// graceful shutdown). The concurrency tests are what the TSan job
// race-checks (LABEL parallel).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "../test_util.h"
#include "common/io_util.h"
#include "core/distinct.h"
#include "obs/memory.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace distinct {
namespace serve {
namespace {

Distinct MiniEngine(const Database& db) {
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  DISTINCT_CHECK(engine.ok());
  return *std::move(engine);
}

/// The batch answer serialized exactly as the server would serialize it.
std::string ExpectedResolveJson(Distinct& engine, int64_t id,
                                const std::string& name) {
  auto result = engine.ResolveName(name);
  DISTINCT_CHECK(result.ok());
  ResolveAnswer answer;
  answer.refs = result->refs;
  answer.clustering = result->clustering;
  return AnswerResponseJson(id, Method::kResolveName, name, answer);
}

TEST(ServeServiceTest, ResolveMatchesBatchByteForByte) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  const std::string got = service.HandleLine(
      R"({"id":7,"method":"resolve_name","name":"Wei Wang"})");
  EXPECT_EQ(got, ExpectedResolveJson(engine, 7, "Wei Wang"));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.answered, 1);
}

TEST(ServeServiceTest, RepeatQueryIsServedFromCacheIdentically) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  const std::string first = service.HandleLine(
      R"({"id":1,"method":"resolve_name","name":"Wei Wang"})");
  const std::string second = service.HandleLine(
      R"({"id":1,"method":"resolve_name","name":"Wei Wang"})");
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.stats().cache_hits, 1);
}

TEST(ServeServiceTest, UnknownNameIsNotFound) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  const std::string got = service.HandleLine(
      R"({"id":2,"method":"resolve_name","name":"Nobody"})");
  EXPECT_NE(got.find(R"("ok":false)"), std::string::npos) << got;
  EXPECT_NE(got.find(R"("code":"not_found")"), std::string::npos) << got;
  EXPECT_EQ(service.stats().not_found, 1);
}

TEST(ServeServiceTest, ClassifyRowReturnsTheRowsCluster) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  // Row 2 is Wei Wang's second reference.
  const std::string got = service.HandleLine(
      R"({"id":3,"method":"classify_row","row":2})");
  EXPECT_NE(got.find(R"("name":"Wei Wang")"), std::string::npos) << got;
  EXPECT_NE(got.find(R"("row":2,"cluster":)"), std::string::npos) << got;

  const std::string missing = service.HandleLine(
      R"({"id":4,"method":"classify_row","row":999})");
  EXPECT_NE(missing.find(R"("code":"not_found")"), std::string::npos)
      << missing;
}

TEST(ServeServiceTest, StatsAndHealthAnswer) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  const std::string health =
      service.HandleLine(R"({"id":1,"method":"health"})");
  EXPECT_NE(health.find(R"("status":"serving")"), std::string::npos)
      << health;
  EXPECT_NE(health.find(R"("protocol":1)"), std::string::npos) << health;
  const std::string stats =
      service.HandleLine(R"({"id":2,"method":"stats"})");
  EXPECT_NE(stats.find(R"("queries")"), std::string::npos) << stats;
}

TEST(ServeServiceTest, ExpiredDeadlineIsRejectedAndNeverCached) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  auto late = service.ResolveNameAt(
      "Wei Wang", std::chrono::steady_clock::time_point::min());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
  EXPECT_EQ(service.stats().cache_entries, 0);
  // The failure poisoned nothing: the same name then resolves normally.
  auto fine = service.ResolveNameAt(
      "Wei Wang", std::chrono::steady_clock::time_point::max());
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST(ServeServiceTest, AdmissionRejectsWhenStandingBytesExceedBudget) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServiceOptions options;
  options.memory_budget_mb = 1;
  ServeService service(engine, options);
  // Inflate the standing tracked bytes past the 1 MiB budget; admission
  // must reject with the overloaded code and a retry hint, and the peak
  // metric must stay within budget (nothing was admitted).
  auto& tracker = obs::MemoryTracker::Global();
  tracker.Add(obs::MemoryTracker::kPairMatrix, 2 << 20);
  const std::string got = service.HandleLine(
      R"({"id":5,"method":"resolve_name","name":"Wei Wang"})");
  tracker.Add(obs::MemoryTracker::kPairMatrix, -(2 << 20));
  EXPECT_NE(got.find(R"("code":"overloaded")"), std::string::npos) << got;
  EXPECT_NE(got.find(R"("retry_after_ms")"), std::string::npos) << got;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_memory, 1);
  EXPECT_LE(stats.admission_peak_bytes, int64_t{1} << 20);
  // With the pressure gone the same query is admitted.
  const std::string retry = service.HandleLine(
      R"({"id":6,"method":"resolve_name","name":"Wei Wang"})");
  EXPECT_NE(retry.find(R"("ok":true)"), std::string::npos) << retry;
}

TEST(ServeServiceTest, ConcurrentSameNameQueriesShareOneAnswer) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServiceOptions options;
  options.result_cache_entries = 0;  // force flights, not cache hits
  ServeService service(engine, options);
  const std::string expected = ExpectedResolveJson(engine, 1, "Wei Wang");
  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&service, &responses, t] {
        responses[static_cast<size_t>(t)] = service.HandleLine(
            R"({"id":1,"method":"resolve_name","name":"Wei Wang"})");
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  for (const std::string& response : responses) {
    EXPECT_EQ(response, expected);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.answered, kThreads);
}

TEST(ServeServiceTest, ConcurrentDistinctNamesAllMatchBatch) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServiceOptions options;
  options.result_cache_entries = 0;
  ServeService service(engine, options);
  // Every published author in the mini database, resolved concurrently
  // over the shared workspaces/pool, must equal its batch answer. (Aidong Zhang
  // has no publish rows, hence no references to resolve.)
  const std::vector<std::string> names = {"Wei Wang", "Jiong Yang",
                                          "Jian Pei", "Haixun Wang"};
  std::vector<std::string> expected;
  for (size_t i = 0; i < names.size(); ++i) {
    expected.push_back(
        ExpectedResolveJson(engine, static_cast<int64_t>(i), names[i]));
  }
  std::vector<std::string> responses(names.size());
  {
    std::vector<std::thread> workers;
    for (size_t i = 0; i < names.size(); ++i) {
      workers.emplace_back([&service, &names, &responses, i] {
        responses[i] = service.HandleLine(
            R"({"id":)" + std::to_string(i) +
            R"(,"method":"resolve_name","name":")" + names[i] + R"("})");
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(responses[i], expected[i]) << names[i];
  }
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DISTINCT_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  DISTINCT_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  DISTINCT_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0);
  return fd;
}

TEST(ServeServerTest, AnswersOverALoopbackSocket) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  ServeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  const int fd = ConnectLoopback(server.port());
  FdLineReader reader(fd, kMaxRequestBytes, "test");
  std::string line;
  bool eof = false;

  ASSERT_TRUE(WriteFdAll(fd, "{\"id\":1,\"method\":\"health\"}\n", "test")
                  .ok());
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_NE(line.find(R"("ok":true)"), std::string::npos) << line;

  ASSERT_TRUE(
      WriteFdAll(fd,
                 "{\"id\":2,\"method\":\"resolve_name\","
                 "\"name\":\"Wei Wang\"}\n",
                 "test")
          .ok());
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, ExpectedResolveJson(engine, 2, "Wei Wang"));

  // Malformed request: an error response, connection stays usable.
  ASSERT_TRUE(WriteFdAll(fd, "not json\n", "test").ok());
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_NE(line.find(R"("code":"invalid_argument")"), std::string::npos)
      << line;
  ASSERT_TRUE(WriteFdAll(fd, "{\"id\":3,\"method\":\"health\"}\n", "test")
                  .ok());
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_NE(line.find(R"("ok":true)"), std::string::npos) << line;

  ::close(fd);
  server.Shutdown();
  EXPECT_EQ(server.connections(), 0);
}

TEST(ServeServerTest, OversizedRequestGetsErrorThenClose) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  ServeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectLoopback(server.port());
  // One newline-less request beyond the per-line cap: the server must
  // answer with a single error line and drop the connection instead of
  // buffering without bound.
  const std::string flood(kMaxRequestBytes + 16, 'x');
  ASSERT_TRUE(WriteFdAll(fd, flood, "test").ok());
  FdLineReader reader(fd, kMaxRequestBytes + 64, "test");
  std::string line;
  bool eof = false;
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_NE(line.find(R"("ok":false)"), std::string::npos) << line;
  // Then EOF: the connection is gone.
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_TRUE(eof);
  ::close(fd);
  server.Shutdown();
}

TEST(ServeServerTest, ConcurrentClientsGetBitIdenticalAnswers) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServiceOptions options;
  options.result_cache_entries = 0;  // every request computes or coalesces
  ServeService service(engine, options);
  ServeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> names = {"Wei Wang", "Jiong Yang",
                                          "Jian Pei"};
  std::vector<std::string> expected;
  for (const std::string& name : names) {
    expected.push_back(ExpectedResolveJson(engine, 1, name));
  }

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = ConnectLoopback(server.port());
        FdLineReader reader(fd, kMaxRequestBytes, "test");
        std::string line;
        bool eof = false;
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const size_t idx =
              (static_cast<size_t>(c) + static_cast<size_t>(q)) %
              names.size();
          const std::string request =
              R"({"id":1,"method":"resolve_name","name":")" + names[idx] +
              "\"}\n";
          if (!WriteFdAll(fd, request, "test").ok() ||
              !reader.ReadLine(&line, &eof).ok() || eof ||
              line != expected[idx]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ::close(fd);
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  server.Shutdown();
  EXPECT_EQ(server.connections(), 0);
}

TEST(ServeServerTest, ShutdownIsIdempotentAndStopsAccepting) {
  Database db = testing_util::MakeMiniDblp();
  Distinct engine = MiniEngine(db);
  ServeService service(engine, ServiceOptions{});
  auto server = std::make_unique<ServeServer>(&service, ServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  server->Shutdown();
  server->Shutdown();  // second call is a no-op
  server.reset();      // destructor after explicit Shutdown is safe
}

}  // namespace
}  // namespace serve
}  // namespace distinct
