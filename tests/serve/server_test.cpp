// End-to-end daemon tests: jobs over the wire (byte-identical to direct
// runs), per-client admission, disconnect cancellation, graceful drain,
// hot reload, persistent cache across a server restart, and the protocol
// hardening suite (garbage/oversized/truncated frames, slow-loris) — a
// malformed client must never crash or wedge the server.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "common/json_util.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"

namespace ofl::serve {
namespace {

namespace fs = std::filesystem;

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (fs::path(testing::TempDir()) / "ofl_serve_test").string());
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    ASSERT_EQ(0, cli::run(cli::Args::parse(
                     {"generate", "--suite", "tiny", "--out", wires()})));
    ASSERT_EQ(0, cli::run(cli::Args::parse(
                     {"generate", "--suite", "s", "--out", wiresSlow()})));
  }

  static std::string path(const std::string& name) {
    return (fs::path(*dir_) / name).string();
  }
  static std::string wires() { return path("wires.gds"); }
  static std::string wiresSlow() { return path("wires_s.gds"); }

  /// A fill spec that completes in well under a second.
  static std::string fastSpec(const std::string& out) {
    return wires() + " --out " + path(out);
  }
  /// A fill spec that runs for over a second at one thread — long enough
  /// that "while the job is running" test steps are not races.
  static std::string slowSpec(const std::string& out) {
    return wiresSlow() + " --out " + path(out) + " --window 100";
  }

  static ServeConfig baseConfig() {
    ServeConfig cfg;
    cfg.port = 0;
    cfg.jobs = 2;
    cfg.threadsPerJob = 1;  // keep the slow spec slow on big machines
    return cfg;
  }

  static Request fillRequest(const std::string& spec,
                             const std::string& client = "test") {
    Request req;
    req.type = Request::Type::kFill;
    req.client = client;
    req.spec = spec;
    return req;
  }

  static std::string readFile(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static const json::Value* field(const ParsedResponse& r,
                                  const char* name) {
    return r.body.find(name);
  }

  static std::string dumpCounters(const Server& server) {
    const Server::Counters c = server.counters();
    std::ostringstream out;
    out << "accepted=" << c.connectionsAccepted
        << " requests=" << c.requests << " jobs=" << c.jobsSubmitted;
    return out.str();
  }

  static std::string* dir_;
};

std::string* ServerTest::dir_ = nullptr;

TEST_F(ServerTest, PingStatsMetricsOverOneConnection) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  Request ping;
  ping.type = Request::Type::kPing;
  auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);

  Request stats;
  stats.type = Request::Type::kStats;
  resp = client.call(stats);
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  const json::Value* body = field(*resp, "stats");
  ASSERT_NE(nullptr, body);
  ASSERT_NE(nullptr, body->find("service"));
  ASSERT_NE(nullptr, body->find("serve"));

  Request metrics;
  metrics.type = Request::Type::kMetrics;
  resp = client.call(metrics);
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok);
  const json::Value* text = field(*resp, "metrics");
  ASSERT_NE(nullptr, text);
  EXPECT_NE(std::string::npos,
            text->str.find("openfill_serve_requests_total"));
  EXPECT_NE(std::string::npos,
            text->str.find("openfill_serve_connections_accepted_total"));
  server.drain();
}

TEST_F(ServerTest, FillJobByteIdenticalToDirectRunAndCacheHitsRepeat) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  auto resp = client.call(fillRequest(fastSpec("served.gds")));
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  EXPECT_EQ("ok", field(*resp, "status")->str);
  EXPECT_FALSE(field(*resp, "cacheHit")->boolean);
  EXPECT_FALSE(field(*resp, "spliced")->boolean);
  EXPECT_GT(field(*resp, "fills")->number, 0.0);

  // The exact same run through the plain CLI path.
  ASSERT_EQ(0, cli::run(cli::Args::parse({"fill", "--in", wires(), "--out",
                                          path("direct.gds")})));
  const std::string served = readFile(path("served.gds"));
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(served, readFile(path("direct.gds")));

  // Identical spec to a different output: result cache replays the fills,
  // spliced into the input's own wire records without a parse.
  resp = client.call(fillRequest(fastSpec("served2.gds")));
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  EXPECT_TRUE(field(*resp, "cacheHit")->boolean);
  EXPECT_TRUE(field(*resp, "spliced")->boolean);
  EXPECT_EQ(served, readFile(path("served2.gds")));

  Request stats;
  stats.type = Request::Type::kStats;
  resp = client.call(stats);
  ASSERT_TRUE(resp.has_value()) << client.error();
  const json::Value* spliced =
      resp->body.findPath("stats.service.cache.spliced_hits");
  ASSERT_NE(nullptr, spliced);
  EXPECT_EQ(1.0, spliced->number);
  server.drain();
}

TEST_F(ServerTest, ServedJobsAreReleasedAndStillCounted) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  const auto histogramCount = [](const char* name) {
    return obs::MetricsRegistry::instance().snapshot().histograms.at(name)
        .data.count;
  };
  const std::uint64_t loadsBefore = histogramCount("job.load_seconds");
  const std::uint64_t writesBefore = histogramCount("job.write_seconds");

  constexpr int kRequests = 6;  // one miss, then hits
  for (int k = 0; k < kRequests; ++k) {
    const auto resp = client.call(
        fillRequest(fastSpec("released" + std::to_string(k) + ".gds")));
    ASSERT_TRUE(resp.has_value()) << client.error();
    ASSERT_TRUE(resp->ok) << resp->error;
    EXPECT_EQ(k > 0, field(*resp, "cacheHit")->boolean);
    // The load and write stages are inside the job's run time.
    const double load = field(*resp, "loadSeconds")->number;
    const double write = field(*resp, "writeSeconds")->number;
    EXPECT_GT(load, 0.0);
    EXPECT_GT(write, 0.0);
    EXPECT_LE(load + write, field(*resp, "runSeconds")->number);
  }

  // Each job was freed once answered: releasing it again finds nothing.
  service::FillService& svc = server.service();
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    EXPECT_FALSE(svc.release(id)) << "job " << id << " still held";
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.succeeded, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.jobCacheHits, static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_GT(stats.engineSeconds, 0.0);
  EXPECT_EQ(histogramCount("job.load_seconds") - loadsBefore,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(histogramCount("job.write_seconds") - writesBefore,
            static_cast<std::uint64_t>(kRequests));
  server.drain();
}

TEST_F(ServerTest, EcoJobRunsAndTraceReturnsItsSpans) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  auto resp = client.call(fillRequest(fastSpec("eco_base.gds")));
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;

  Request eco;
  eco.type = Request::Type::kEco;
  eco.client = "test";
  eco.spec = path("eco_base.gds") + " --out " + path("eco_out.gds");
  eco.changed = geom::Rect{0, 0, 1500, 1500};
  eco.hasChanged = true;
  resp = client.call(eco);
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  const auto ecoJobId =
      static_cast<std::int64_t>(field(*resp, "jobId")->number);
  EXPECT_TRUE(fs::exists(path("eco_out.gds")));

  Request trace;
  trace.type = Request::Type::kTrace;
  trace.jobId = ecoJobId;
  resp = client.call(trace);
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  const json::Value* spans = field(*resp, "spans");
  ASSERT_NE(nullptr, spans);
  ASSERT_TRUE(spans->isArray());
  EXPECT_FALSE(spans->array.empty());
  bool sawRun = false;
  for (const json::Value& s : spans->array) {
    const json::Value* name = s.find("name");
    if (name != nullptr && name->str == "job.run") sawRun = true;
  }
  EXPECT_TRUE(sawRun);
  server.drain();
}

TEST_F(ServerTest, CheckJobVerifiesAFilledLayout) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  auto resp = client.call(fillRequest(fastSpec("check_in.gds")));
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;

  Request check;
  check.type = Request::Type::kCheck;
  check.spec = path("check_in.gds");
  check.suite = "s";
  check.determinism = false;  // 3 extra engine runs; not needed here
  resp = client.call(check);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok) << resp->error;
  const json::Value* report = field(*resp, "report");
  ASSERT_NE(nullptr, report);
  const json::Value* checks = report->find("checks");
  ASSERT_NE(nullptr, checks);
  EXPECT_TRUE(checks->isArray());
  EXPECT_FALSE(checks->array.empty());
  server.drain();
}

TEST_F(ServerTest, MalformedRequestsAnswerPerRequestAndConnectionSurvives) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  for (const char* bad : {"not json at all", "{\"no\":\"type\"}",
                          "{\"type\":\"warp-core\"}", "{\"type\":\"fill\"}",
                          "{\"type\":\"eco\",\"spec\":\"x.gds\"}"}) {
    auto resp = client.callRaw(bad);
    ASSERT_TRUE(resp.has_value()) << client.error();
    EXPECT_FALSE(resp->ok);
    EXPECT_FALSE(resp->error.empty());
  }
  // Same connection still serves valid requests.
  Request ping;
  ping.type = Request::Type::kPing;
  const auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  server.drain();
}

TEST_F(ServerTest, GarbageAndOversizedFramesCloseOnlyThatConnection) {
  ServeConfig cfg = baseConfig();
  cfg.maxFrameBytes = 1024;
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {  // An HTTP client: first 4 bytes decode to a huge length.
    Fd fd = connectTo("127.0.0.1", server.port(), 5.0, &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_TRUE(writeFull(fd.get(), "GET / HTTP/1.1\r\n\r\n", 18, 5.0, &error));
    std::string payload;
    ASSERT_EQ(FrameStatus::kOk, readFrame(fd.get(), &payload, 5.0));
    EXPECT_NE(std::string::npos, payload.find("bad frame"));
    // Server closed after answering.
    EXPECT_EQ(FrameStatus::kEof, readFrame(fd.get(), &payload, 5.0));
  }
  {  // A well-framed payload over the configured limit.
    Fd fd = connectTo("127.0.0.1", server.port(), 5.0, &error);
    ASSERT_TRUE(fd.valid()) << error;
    unsigned char hdr[4];
    encodeLength(2048, hdr);
    ASSERT_TRUE(writeFull(fd.get(), hdr, 4, 5.0, &error));
    std::string payload;
    ASSERT_EQ(FrameStatus::kOk, readFrame(fd.get(), &payload, 5.0));
    EXPECT_NE(std::string::npos, payload.find("too large"));
  }
  {  // Mid-frame disconnect: no one to answer, server must not wedge.
    Fd fd = connectTo("127.0.0.1", server.port(), 5.0, &error);
    ASSERT_TRUE(fd.valid()) << error;
    unsigned char hdr[4];
    encodeLength(100, hdr);
    ASSERT_TRUE(writeFull(fd.get(), hdr, 4, 5.0, &error));
    ASSERT_TRUE(writeFull(fd.get(), "0123456789", 10, 5.0, &error));
  }
  // After all that abuse, a normal client is served.
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  Request ping;
  ping.type = Request::Type::kPing;
  const auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  EXPECT_GE(server.counters().badFrames, 2u);
  server.drain();
}

TEST_F(ServerTest, SlowLorisClientIsDisconnected) {
  ServeConfig cfg = baseConfig();
  cfg.frameTimeoutSeconds = 0.3;
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Fd fd = connectTo("127.0.0.1", server.port(), 5.0, &error);
  ASSERT_TRUE(fd.valid()) << error;
  // Two header bytes, then silence: the whole-frame deadline must fire.
  ASSERT_TRUE(writeFull(fd.get(), "\x00\x00", 2, 5.0, &error));
  std::string payload;
  const FrameStatus st = readFrame(fd.get(), &payload, 5.0);
  if (st == FrameStatus::kOk) {
    EXPECT_NE(std::string::npos, payload.find("bad frame"));
    EXPECT_EQ(FrameStatus::kEof, readFrame(fd.get(), &payload, 5.0));
  } else {
    EXPECT_EQ(FrameStatus::kEof, st);  // server closed without the courtesy
  }
  // The daemon itself is unharmed.
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  Request ping;
  ping.type = Request::Type::kPing;
  const auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  server.drain();
}

TEST_F(ServerTest, PerClientAdmissionRejectsOverLimitOnly) {
  ServeConfig cfg = baseConfig();
  cfg.maxInflightPerClient = 1;
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Client "a" occupies its one slot with a >1s job.
  std::optional<ParsedResponse> slowResp;
  Client slow("127.0.0.1", server.port());
  ASSERT_TRUE(slow.connected()) << slow.error();
  std::thread slowCall([&] {
    slowResp = slow.call(fillRequest(slowSpec("adm_slow.gds"), "a"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // A second job from "a" is rejected while the first is in flight...
  Client second("127.0.0.1", server.port());
  ASSERT_TRUE(second.connected()) << second.error();
  auto resp = second.call(fillRequest(fastSpec("adm_a2.gds"), "a"));
  ASSERT_TRUE(resp.has_value()) << second.error();
  EXPECT_FALSE(resp->ok);
  EXPECT_TRUE(resp->rejected);

  // ...but client "b" is admitted: the limit is per client, not global.
  resp = second.call(fillRequest(fastSpec("adm_b.gds"), "b"));
  ASSERT_TRUE(resp.has_value()) << second.error();
  EXPECT_TRUE(resp->ok) << resp->error;

  slowCall.join();
  ASSERT_TRUE(slowResp.has_value()) << slow.error();
  EXPECT_TRUE(slowResp->ok) << slowResp->error;
  // With its slot free again, "a" is admitted.
  resp = second.call(fillRequest(fastSpec("adm_a3.gds"), "a"));
  ASSERT_TRUE(resp.has_value()) << second.error();
  EXPECT_TRUE(resp->ok) << resp->error;
  EXPECT_EQ(1u, server.counters().jobsRejected);
  server.drain();
}

TEST_F(ServerTest, DistinctClientNamesLeaveNoPerClientState) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  // A job whose input is missing fails at load: it passes admission and
  // release like any job but runs no engine.
  const std::string spec =
      path("no_such_input.gds") + " --out " + path("never.gds");
  const auto submit = [&](const std::string& name) {
    const auto resp = client.call(fillRequest(spec, name));
    ASSERT_TRUE(resp.has_value()) << client.error();
    EXPECT_FALSE(resp->rejected) << name;
  };
  const auto seriesCount = [] {
    const obs::MetricsSnapshot s = obs::MetricsRegistry::instance().snapshot();
    return s.counters.size() + s.gauges.size() + s.histograms.size();
  };
  submit("warmup");  // mints the per-job series every job shares
  const std::size_t before = seriesCount();
  for (int k = 0; k < 1000; ++k) submit("client-" + std::to_string(k));

  EXPECT_EQ(before, seriesCount());
  EXPECT_EQ(0u, server.counters().activeClients);
  EXPECT_EQ(0.0, obs::MetricsRegistry::instance().snapshot().gauges.at(
                     "serve.clients"));
  server.drain();
}

TEST_F(ServerTest, CheckWithUnknownSuiteAnswersWithAnError) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();

  Request check;
  check.type = Request::Type::kCheck;
  check.spec = wires();
  check.suite = "no-such-suite";
  check.determinism = false;
  auto resp = client.call(check);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(std::string::npos, resp->error.find("no-such-suite"))
      << resp->error;

  // The daemon keeps serving.
  Request ping;
  ping.type = Request::Type::kPing;
  resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  server.drain();
}

TEST_F(ServerTest, ClientDisconnectCancelsItsRunningJob) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    Client doomed("127.0.0.1", server.port());
    ASSERT_TRUE(doomed.connected()) << doomed.error();
    ASSERT_TRUE(writeFrame(doomed.fd(),
                           fillRequest(slowSpec("dc.gds"), "doomed").toJson(),
                           5.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // connection closes with the job still running

  // The handler notices within its poll slice and cancels via the job's
  // CancelToken; the engine unwinds at its next checkpoint.
  bool cancelled = false;
  for (int i = 0; i < 100 && !cancelled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancelled = server.counters().jobsCancelledByDisconnect > 0;
  }
  EXPECT_TRUE(cancelled) << dumpCounters(server);
  server.drain();
}

TEST_F(ServerTest, DrainCancelsInFlightAndRefusesNewClients) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client victim("127.0.0.1", server.port());
  ASSERT_TRUE(victim.connected()) << victim.error();
  std::optional<ParsedResponse> victimResp;
  std::thread victimCall([&] {
    victimResp = victim.call(fillRequest(slowSpec("drain.gds"), "v"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server.drain();
  EXPECT_TRUE(server.draining());

  // The in-flight job was answered (as cancelled), not dropped.
  victimCall.join();
  ASSERT_TRUE(victimResp.has_value()) << victim.error();
  EXPECT_FALSE(victimResp->ok);
  EXPECT_EQ("cancelled", field(*victimResp, "status")->str);

  // New connections are refused outright (accept loop is gone).
  Fd fd = connectTo("127.0.0.1", server.port(), 1.0, &error);
  if (fd.valid()) {
    // A connect may still land in the kernel backlog; no one serves it.
    std::string payload;
    EXPECT_NE(FrameStatus::kOk, readFrame(fd.get(), &payload, 0.5));
  }
}

TEST_F(ServerTest, ShutdownRequestFlagsTheOwningLoop) {
  Server server(baseConfig());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_FALSE(server.shutdownRequested());
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  Request shutdown;
  shutdown.type = Request::Type::kShutdown;
  const auto resp = client.call(shutdown);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  EXPECT_TRUE(server.shutdownRequested());
  server.drain();
}

TEST_F(ServerTest, ReloadAppliesHotKeysAndReportsColdOnesUnchanged) {
  const std::string cfgPath = path("serve.cfg");
  {
    std::ofstream out(cfgPath);
    out << "max_inflight_per_client = 2\nframe_timeout_s = 5\n";
  }
  ServeConfig cfg = baseConfig();
  std::vector<std::string> errors;
  ASSERT_TRUE(ServeConfig::loadFile(cfgPath, &cfg, &errors));
  ASSERT_TRUE(errors.empty());
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    std::ofstream out(cfgPath);
    out << "max_inflight_per_client = 7\nframe_timeout_s = 5\n"
        << "port = 1\n";  // cold key: ignored by a hot reload
  }
  const std::string summary = server.reload();
  EXPECT_NE(std::string::npos, summary.find("max_inflight_per_client"))
      << summary;
  EXPECT_EQ(std::string::npos, summary.find("frame_timeout_s")) << summary;
  // Still listening on the original port.
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  Request ping;
  ping.type = Request::Type::kPing;
  const auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value()) << client.error();
  EXPECT_TRUE(resp->ok);
  server.drain();
}

TEST_F(ServerTest, PersistentCacheServesAcrossServerRestart) {
  const std::string cacheDir = path("restart_cache");
  ServeConfig cfg = baseConfig();
  cfg.cacheDir = cacheDir;
  std::string error;
  {
    Server server(cfg);
    ASSERT_TRUE(server.start(&error)) << error;
    Client client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected()) << client.error();
    const auto resp = client.call(fillRequest(fastSpec("restart1.gds")));
    ASSERT_TRUE(resp.has_value()) << client.error();
    ASSERT_TRUE(resp->ok) << resp->error;
    EXPECT_FALSE(field(*resp, "cacheHit")->boolean);
    server.drain();
  }
  // A brand-new server over the same cache directory: the identical spec
  // hits without re-running the engine, byte-identically.
  Server server(cfg);
  ASSERT_TRUE(server.start(&error)) << error;
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.connected()) << client.error();
  const auto resp = client.call(fillRequest(fastSpec("restart2.gds")));
  ASSERT_TRUE(resp.has_value()) << client.error();
  ASSERT_TRUE(resp->ok) << resp->error;
  EXPECT_TRUE(field(*resp, "cacheHit")->boolean);
  // Aliases are memory-only: this first repeat parsed its input, hit the
  // store by layout key and learned its alias again, so the next repeat
  // is spliced without touching the store.
  EXPECT_FALSE(field(*resp, "spliced")->boolean);
  EXPECT_EQ(readFile(path("restart1.gds")), readFile(path("restart2.gds")));
  ASSERT_NE(nullptr, server.persistentCache());
  EXPECT_EQ(1u, server.persistentCache()->counters().loadHits);
  const auto again = client.call(fillRequest(fastSpec("restart3.gds")));
  ASSERT_TRUE(again.has_value()) << client.error();
  ASSERT_TRUE(again->ok) << again->error;
  EXPECT_TRUE(field(*again, "spliced")->boolean);
  EXPECT_EQ(readFile(path("restart1.gds")), readFile(path("restart3.gds")));
  EXPECT_EQ(1u, server.persistentCache()->counters().loadHits);
  server.drain();
}

}  // namespace
}  // namespace ofl::serve
