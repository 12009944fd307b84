// Serving-layer coverage (DESIGN.md §9): model registry hot-reload, feature
// cache, engine backpressure/deadlines/shutdown, and the TCP loopback path —
// including bit-identical concurrent vs. serial predictions.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <random>
#include <thread>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/features.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/metrics.hpp"

namespace ic::serve {
namespace {

using circuit::GateId;
using circuit::Netlist;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "serve_" + name;
}

Netlist test_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 64;
  spec.seed = 42;
  return circuit::generate_circuit(spec, "serve");
}

/// Synthetic labels — the serving layer never cares how labels were made, so
/// tests skip the SAT attacks entirely.
data::Dataset synthetic_dataset(std::shared_ptr<const Netlist> circuit,
                                std::uint64_t seed) {
  data::Dataset ds;
  ds.circuit = std::move(circuit);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < 10; ++i) {
    data::Instance inst;
    const std::size_t count = 1 + i % 4;
    for (std::size_t g = 0; g < count; ++g) {
      inst.selection.push_back(
          static_cast<GateId>(rng() % ds.circuit->size()));
    }
    inst.runtime_seconds = 0.0005 * static_cast<double>(i + 1);
    ds.instances.push_back(inst);
  }
  return ds;
}

/// Train-and-save a small model; `seed` varies the weights so hot-reload
/// tests can produce a genuinely different file.
void write_model(const std::string& path,
                 std::shared_ptr<const Netlist> circuit, std::uint64_t seed) {
  core::EstimatorOptions options;
  options.hidden = {6, 4};
  options.seed = seed;
  options.train.max_epochs = 5;
  core::RuntimeEstimator estimator(options);
  estimator.fit(synthetic_dataset(std::move(circuit), seed));
  estimator.save(path);
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = std::make_shared<const Netlist>(test_circuit());
    model_path_ = temp_path("model.txt");
    write_model(model_path_, circuit_, 1);
  }
  static void TearDownTestSuite() { circuit_.reset(); }

  static std::shared_ptr<const Netlist> circuit_;
  static std::string model_path_;
};

std::shared_ptr<const Netlist> ServeTest::circuit_;
std::string ServeTest::model_path_;

// ---- ModelRegistry ---------------------------------------------------------

TEST_F(ServeTest, RegistryLoadsSelfDescribingModel) {
  ModelRegistry registry;
  const auto snapshot = registry.load("default", model_path_);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->spec.version, 2);
  EXPECT_EQ(snapshot->spec.config.hidden, (std::vector<std::size_t>{6, 4}));
  EXPECT_EQ(registry.get("default"), snapshot);
  EXPECT_EQ(registry.get("nope"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(ServeTest, RegistryHotReloadsChangedFileAtomically) {
  const std::string path = temp_path("reload.txt");
  write_model(path, circuit_, 1);
  ModelRegistry registry;
  const auto v1 = registry.load("m", path);
  EXPECT_EQ(registry.poll_reload(), 0u) << "unchanged file must not reload";

  // Ensure a distinct mtime even on coarse filesystem clocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_model(path, circuit_, 2);
  EXPECT_EQ(registry.poll_reload(), 1u);
  const auto v2 = registry.get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version, 2u);
  // The old snapshot is untouched — in-flight readers keep a whole model.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_NE(v1->model, v2->model);
}

TEST_F(ServeTest, RegistryKeepsServingWhenReloadFails) {
  const std::string path = temp_path("reload_bad.txt");
  write_model(path, circuit_, 1);
  ModelRegistry registry;
  registry.load("m", path);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::ofstream(path) << "corrupted mid-write\n";
  EXPECT_EQ(registry.poll_reload(), 0u);
  const auto snapshot = registry.get("m");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u) << "failed reload must keep the old model";

  // Once the file is whole again, the next poll picks it up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_model(path, circuit_, 3);
  EXPECT_EQ(registry.poll_reload(), 1u);
  EXPECT_EQ(registry.get("m")->version, 2u);
}

// ---- FeatureCache ----------------------------------------------------------

TEST_F(ServeTest, FeatureCacheHitsOnSameCircuitAndMissesAcrossKinds) {
  FeatureCache cache;
  const auto a = cache.get(circuit_, data::FeatureSet::All,
                           data::StructureKind::Adjacency);
  EXPECT_EQ(cache.size(), 1u);
  const auto b = cache.get(circuit_, data::FeatureSet::All,
                           data::StructureKind::Adjacency);
  EXPECT_EQ(a, b) << "second lookup must hit the cached entry";
  EXPECT_EQ(cache.size(), 1u);

  const auto c = cache.get(circuit_, data::FeatureSet::All,
                           data::StructureKind::GcnNorm);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ServeTest, FeatureCacheEvictsLeastRecentlyUsedAtCap) {
  auto make_circuit = [](std::uint64_t seed) {
    circuit::GeneratorSpec spec;
    spec.num_inputs = 8;
    spec.num_outputs = 4;
    spec.num_gates = 32;
    spec.seed = seed;
    return std::make_shared<const Netlist>(
        circuit::generate_circuit(spec, "lru"));
  };
  const auto a = make_circuit(1);
  const auto b = make_circuit(2);
  const auto c = make_circuit(3);

  auto& evictions =
      telemetry::MetricsRegistry::global().gauge("serve.feature_cache.evictions");
  const double evicted_before = evictions.value();

  FeatureCache cache(/*max_entries=*/2);
  const auto ea = cache.get(a, data::FeatureSet::All,
                            data::StructureKind::Adjacency);
  (void)cache.get(b, data::FeatureSet::All, data::StructureKind::Adjacency);
  EXPECT_EQ(cache.size(), 2u);

  // Touch `a` so `b` is now least recently used, then overflow with `c`.
  (void)cache.get(a, data::FeatureSet::All, data::StructureKind::Adjacency);
  (void)cache.get(c, data::FeatureSet::All, data::StructureKind::Adjacency);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.value(), evicted_before + 1.0);

  // `a` survived the eviction (same shared entry), `b` did not (fresh build).
  const auto ea2 = cache.get(a, data::FeatureSet::All,
                             data::StructureKind::Adjacency);
  EXPECT_EQ(ea2, ea);
  const auto eb2 = cache.get(b, data::FeatureSet::All,
                             data::StructureKind::Adjacency);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(evictions.value(), evicted_before + 2.0);
  EXPECT_NE(eb2, nullptr);

  // Shrinking the cap evicts down to fit; 0 lifts the bound again.
  cache.set_max_entries(1);
  EXPECT_EQ(cache.size(), 1u);
  cache.set_max_entries(0);
  (void)cache.get(a, data::FeatureSet::All, data::StructureKind::Adjacency);
  (void)cache.get(b, data::FeatureSet::All, data::StructureKind::Adjacency);
  (void)cache.get(c, data::FeatureSet::All, data::StructureKind::Adjacency);
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(ServeTest, FeatureCacheSelectionMatchesDirectFeaturization) {
  FeatureCache cache;
  const auto entry = cache.get(circuit_, data::FeatureSet::All,
                               data::StructureKind::Adjacency);
  const std::vector<GateId> selection = {1, 7, 20, 33};
  const graph::Matrix cached = FeatureCache::features_for(*entry, selection);
  const graph::Matrix direct =
      data::gate_features(*circuit_, selection, data::FeatureSet::All);
  ASSERT_EQ(cached.rows(), direct.rows());
  ASSERT_EQ(cached.cols(), direct.cols());
  for (std::size_t r = 0; r < cached.rows(); ++r) {
    for (std::size_t c = 0; c < cached.cols(); ++c) {
      EXPECT_EQ(cached(r, c), direct(r, c));
    }
  }
}

// ---- InferenceEngine -------------------------------------------------------

PredictRequest request_for(std::vector<GateId> selection,
                           std::int64_t timeout_ms = -1) {
  PredictRequest request;
  request.selection = std::move(selection);
  request.timeout_ms = timeout_ms;
  return request;
}

TEST_F(ServeTest, EngineRejectsBeyondMaxQueue) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.max_queue = 3;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  engine.set_paused(true);  // queue fills deterministically
  std::vector<std::future<PredictResult>> accepted;
  for (int i = 0; i < 3; ++i) {
    accepted.push_back(engine.submit(request_for({1, 2})));
  }
  EXPECT_EQ(engine.queue_depth(), 3u);

  auto overflow = engine.submit(request_for({1, 2}));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "backpressure must answer immediately";
  const auto rejected = overflow.get();
  EXPECT_EQ(rejected.status, RequestStatus::Rejected);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  engine.set_paused(false);
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, RequestStatus::Ok);
  }
}

TEST_F(ServeTest, EngineExpiresDeadlinedRequests) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  engine.set_paused(true);
  auto doomed = engine.submit(request_for({1, 2}, /*timeout_ms=*/1));
  auto patient = engine.submit(request_for({1, 2}, /*timeout_ms=*/60000));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.set_paused(false);

  const auto expired = doomed.get();
  EXPECT_EQ(expired.status, RequestStatus::DeadlineExceeded);
  EXPECT_EQ(patient.get().status, RequestStatus::Ok);
}

TEST_F(ServeTest, EngineReportsUnknownNamesAndBadSelections) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  auto bad_model = request_for({1});
  bad_model.model = "missing";
  EXPECT_EQ(engine.predict(bad_model).status, RequestStatus::Error);

  auto bad_circuit = request_for({1});
  bad_circuit.circuit = "missing";
  EXPECT_EQ(engine.predict(bad_circuit).status, RequestStatus::Error);

  const auto out_of_range = engine.predict(
      request_for({static_cast<GateId>(circuit_->size() + 5)}));
  EXPECT_EQ(out_of_range.status, RequestStatus::Error);
  EXPECT_NE(out_of_range.error.find("out of range"), std::string::npos);
}

TEST_F(ServeTest, EngineStopAnswersQueuedWorkThenRejects) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 2;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.submit(request_for({1, 2, 3})));
  }
  engine.stop();  // graceful: drains the queue before the batcher exits
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, RequestStatus::Ok);
  }
  EXPECT_EQ(engine.predict(request_for({1, 2})).status,
            RequestStatus::Rejected);
}

TEST_F(ServeTest, EngineMatchesEstimatorBitForBit) {
  // The serving fast path (cached featurization + per-executor replicas)
  // must agree exactly with the offline RuntimeEstimator.
  auto estimator = core::RuntimeEstimator::from_file(model_path_);
  estimator.set_circuit(*circuit_);

  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 3;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::mt19937_64 rng(7);
  for (int i = 0; i < 12; ++i) {
    std::vector<GateId> selection;
    for (std::size_t g = 0; g < static_cast<std::size_t>(1 + i % 5); ++g) {
      selection.push_back(static_cast<GateId>(rng() % circuit_->size()));
    }
    const auto served = engine.predict(request_for(selection));
    ASSERT_EQ(served.status, RequestStatus::Ok) << served.error;
    EXPECT_EQ(served.log_runtime, estimator.predict_log_runtime(selection));
    EXPECT_EQ(served.seconds, estimator.predict_seconds(selection));
  }
}

// ---- TCP server ------------------------------------------------------------

TEST_F(ServeTest, ServerAnswersPingStatsAndPredicts) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  ServerOptions server_options;
  server_options.reload_poll_ms = 50;
  Server server(engine, registry, server_options);
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping().ok);

  WireRequest request;
  request.select = {3, 9, 17};
  request.id = 41;
  request.has_id = true;
  const auto response = client.call(request);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.has_id);
  EXPECT_EQ(response.id, 41u);
  EXPECT_GT(response.seconds, 0.0);

  const auto stats = client.stats();
  EXPECT_TRUE(stats.ok);
  ASSERT_NE(stats.raw.find("models"), nullptr);
  EXPECT_EQ(stats.raw.find("models")->items().size(), 1u);
  ASSERT_NE(stats.raw.find("uptime_seconds"), nullptr);
  EXPECT_GE(stats.raw.find("uptime_seconds")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("p99_latency_seconds"), nullptr);
  EXPECT_FALSE(stats.request_id.empty())
      << "every response must carry a request_id";

  WireRequest malformed;
  malformed.op = "predict";  // empty selection → server-side error response
  malformed.select = {static_cast<std::uint32_t>(circuit_->size() + 9)};
  const auto error = client.call(malformed);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.status, "error");

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ConcurrentClientsMatchSerialBitForBit) {
  // Serial reference pass first.
  auto estimator = core::RuntimeEstimator::from_file(model_path_);
  estimator.set_circuit(*circuit_);
  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  std::vector<std::vector<std::vector<GateId>>> selections(kClients);
  std::vector<std::vector<double>> expected(kClients);
  std::mt19937_64 rng(13);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      std::vector<GateId> sel;
      for (std::size_t g = 0; g < static_cast<std::size_t>(1 + (c + i) % 4); ++g) {
        sel.push_back(static_cast<GateId>(rng() % circuit_->size()));
      }
      expected[c].push_back(estimator.predict_log_runtime(sel));
      selections[c].push_back(std::move(sel));
    }
  }

  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions engine_options;
  engine_options.jobs = 4;
  engine_options.max_batch = 8;
  InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  std::vector<std::vector<double>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      // Pipeline all requests on the connection, then read the answers in
      // order — maximizes cross-client interleaving in the micro-batcher.
      for (int i = 0; i < kPerClient; ++i) {
        WireRequest request;
        request.select.assign(selections[c][i].begin(),
                              selections[c][i].end());
        client.send(request);
      }
      for (int i = 0; i < kPerClient; ++i) {
        const auto response = client.receive();
        ASSERT_TRUE(response.ok) << response.error;
        got[c].push_back(response.log_runtime);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size());
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(got[c][i], expected[c][i])
          << "client " << c << " request " << i
          << " diverged from the serial reference";
    }
  }

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ServerAnswersHealthAndPrometheusStats) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  // One prediction so the serve.request_seconds histogram is non-empty.
  WireRequest predict;
  predict.select = {3, 9};
  ASSERT_TRUE(client.call(predict).ok);

  const auto health = client.health();
  EXPECT_TRUE(health.ok);
  ASSERT_NE(health.raw.find("ready"), nullptr);
  EXPECT_TRUE(health.raw.find("ready")->as_bool())
      << "a server with a loaded model and empty queue is ready";
  ASSERT_NE(health.raw.find("models"), nullptr);
  EXPECT_EQ(health.raw.find("models")->items().size(), 1u);
  ASSERT_NE(health.raw.find("max_queue"), nullptr);
  EXPECT_GT(health.raw.find("max_queue")->as_number(), 0.0);
  ASSERT_NE(health.raw.find("version"), nullptr);
  EXPECT_FALSE(health.raw.find("version")->as_string().empty());

  const auto prom = client.stats("prometheus");
  EXPECT_TRUE(prom.ok);
  ASSERT_NE(prom.raw.find("prometheus"), nullptr);
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("# TYPE serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, RequestIdsAreEchoedAndAssigned) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  // A client-chosen id comes back verbatim on every op.
  WireRequest predict;
  predict.select = {1, 5};
  predict.request_id = "trace-me-7";
  EXPECT_EQ(client.call(predict).request_id, "trace-me-7");
  WireRequest ping;
  ping.op = "ping";
  ping.request_id = "ping-1";
  EXPECT_EQ(client.call(ping).request_id, "ping-1");

  // Without one, the server assigns distinct non-empty ids.
  predict.request_id.clear();
  const auto first = client.call(predict);
  const auto second = client.call(predict);
  EXPECT_FALSE(first.request_id.empty());
  EXPECT_FALSE(second.request_id.empty());
  EXPECT_NE(first.request_id, second.request_id);

  // The engine API echoes ids the same way.
  PredictRequest direct;
  direct.selection = {2, 6};
  direct.request_id = "engine-9";
  EXPECT_EQ(engine.predict(direct).request_id, "engine-9");
  direct.request_id.clear();
  EXPECT_FALSE(engine.predict(direct).request_id.empty());

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ProfileOpStartsStopsAndDumpsOverTheWire) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  WireRequest start;
  start.op = "profile";
  start.action = "start";
  start.hz = 997;
  auto response = client.call(start);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("started"), nullptr);
  EXPECT_TRUE(response.raw.find("started")->as_bool());
  ASSERT_NE(response.raw.find("running"), nullptr);
  EXPECT_TRUE(response.raw.find("running")->as_bool());

  // A second start reports the in-flight session instead of clobbering it.
  response = client.call(start);
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.raw.find("started")->as_bool());
  ASSERT_NE(response.raw.find("error"), nullptr);

  // Some work while the profiler samples.
  WireRequest predict;
  predict.select = {3, 9, 17};
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(client.call(predict).ok);

  WireRequest dump;
  dump.op = "profile";
  dump.action = "dump";
  response = client.call(dump);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("folded"), nullptr)
      << "dump must return the folded capture";
  ASSERT_NE(response.raw.find("samples"), nullptr);
  EXPECT_FALSE(response.raw.find("running")->as_bool())
      << "dump stops a live session";

  // Stop after dump is a polite no-op.
  WireRequest stop;
  stop.op = "profile";
  stop.action = "stop";
  response = client.call(stop);
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.raw.find("stopped")->as_bool());

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, TracesOpReportsStageAttributedTimelines) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions engine_options;
  engine_options.shards = 2;
  InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  WireRequest predict;
  predict.select = {3, 9, 17};
  predict.request_id = "timeline-probe";
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(client.call(predict).ok);

  WireRequest traces;
  traces.op = "traces";
  const auto response = client.call(traces);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("recorded"), nullptr);
  EXPECT_GE(response.raw.find("recorded")->as_number(), 8.0);
  const auto* entries = response.raw.find("traces");
  ASSERT_NE(entries, nullptr);
  ASSERT_FALSE(entries->items().empty());

  bool saw_probe = false;
  bool saw_forward_split = false;
  for (const auto& entry : entries->items()) {
    ASSERT_NE(entry.find("request_id"), nullptr);
    if (entry.find("request_id")->as_string() == "timeline-probe") {
      saw_probe = true;
    }
    // Fingerprints travel as exact hex strings, not lossy JSON doubles.
    ASSERT_NE(entry.find("fingerprint"), nullptr);
    const std::string fingerprint = entry.find("fingerprint")->as_string();
    ASSERT_EQ(fingerprint.size(), 18u) << fingerprint;
    EXPECT_EQ(fingerprint.substr(0, 2), "0x");
    ASSERT_NE(entry.find("batch_size"), nullptr);
    EXPECT_GE(entry.find("batch_size")->as_number(), 1.0);
    ASSERT_NE(entry.find("total_seconds"), nullptr);
    EXPECT_GE(entry.find("total_seconds")->as_number(), 0.0);

    // Stages are listed in pipeline order with monotonically non-decreasing
    // completion timestamps, and the forward pass is split into its
    // spmm / dense / readout phases.
    const auto* stages = entry.find("stages");
    ASSERT_NE(stages, nullptr);
    double last_ts = 0.0;
    bool spmm = false, dense = false, readout = false;
    for (const auto& stage : stages->items()) {
      ASSERT_NE(stage.find("stage"), nullptr);
      ASSERT_NE(stage.find("ts_us"), nullptr);
      ASSERT_NE(stage.find("dur_us"), nullptr);
      const double ts = stage.find("ts_us")->as_number();
      EXPECT_GE(ts, last_ts) << "stage completion times must be monotonic";
      last_ts = ts;
      EXPECT_GE(stage.find("dur_us")->as_number(), 0.0);
      const std::string name = stage.find("stage")->as_string();
      spmm |= name == "spmm";
      dense |= name == "dense";
      readout |= name == "readout";
    }
    saw_forward_split |= spmm && dense && readout;
  }
  EXPECT_TRUE(saw_probe) << "the probed request must be retained";
  EXPECT_TRUE(saw_forward_split)
      << "timelines must attribute the forward pass to spmm/dense/readout";

  // The same stage split feeds the Prometheus exposition.
  const auto prom = client.stats("prometheus");
  ASSERT_TRUE(prom.ok);
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("serve_stage_spmm_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_stage_dense_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_stage_readout_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_queue_seconds_count"), std::string::npos);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, MalformedLinesCountWireErrors) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  auto& wire_errors =
      telemetry::MetricsRegistry::global().counter("serve.wire_errors");
  const auto before = wire_errors.value();

  Client client("127.0.0.1", server.port());
  // A stats request with a format the server-side parser rejects:
  // parse_request throws → error response + serve.wire_errors increment.
  WireRequest bad_stats;
  bad_stats.op = "stats";
  bad_stats.format = "xml";
  const auto response = client.call(bad_stats);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, "error");
  EXPECT_GT(wire_errors.value(), before);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, DeeplyNestedLineGetsErrorAndServerKeepsServing) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  // A raw connection: the client library never writes such a line.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  auto send_all = [fd](const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  };
  std::string pending;
  auto read_line = [fd, &pending]() {
    for (;;) {
      const auto eol = pending.find('\n');
      if (eol != std::string::npos) {
        std::string line = pending.substr(0, eol);
        pending.erase(0, eol + 1);
        return line;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return std::string("<connection closed>");
      pending.append(buf, static_cast<std::size_t>(n));
    }
  };

  // 100k levels of nesting: recursive descent without a cap overflows the
  // I/O thread's stack and takes the whole server down.
  constexpr std::size_t kDepth = 100000;
  send_all("{\"op\":\"ping\",\"x\":" + std::string(kDepth, '[') +
           std::string(kDepth, ']') + "}\n");
  const std::string error_line = read_line();
  const WireResponse error = parse_response(error_line);
  EXPECT_FALSE(error.ok) << error_line;
  EXPECT_EQ(error.status, "error");
  EXPECT_NE(error.error.find("nesting"), std::string::npos) << error.error;

  // The same connection, and a fresh one, still get answers.
  send_all("{\"op\":\"ping\"}\n");
  EXPECT_TRUE(parse_response(read_line()).ok);
  ::close(fd);
  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping().ok);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, RemoteShutdownDrainsGracefully) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();
  const int port = server.port();

  Client worker("127.0.0.1", port);
  WireRequest request;
  request.select = {2, 4};
  EXPECT_TRUE(worker.call(request).ok);

  Client controller("127.0.0.1", port);
  EXPECT_TRUE(controller.shutdown_server().ok);
  server.wait();      // returns because the remote shutdown was requested
  server.shutdown();  // joins handlers, drains the engine
  EXPECT_FALSE(server.running());
  engine.stop();

  // The listener is gone: new connections must fail.
  EXPECT_THROW(Client("127.0.0.1", port), std::exception);
}

TEST_F(ServeTest, StatsOmitsLatencyQuantilesUntilFirstSample) {
  // The registry is process-global and earlier tests already served requests;
  // reset it so serve.request_seconds is genuinely empty again.
  telemetry::MetricsRegistry::global().reset();

  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  const auto empty = client.stats();
  EXPECT_TRUE(empty.ok);
  // Quantiles of an empty histogram are undefined: the fields must be
  // absent, not 0.0 (a fake zero would poison dashboards and alerts).
  EXPECT_EQ(empty.raw.find("p50_latency_seconds"), nullptr);
  EXPECT_EQ(empty.raw.find("p99_latency_seconds"), nullptr);

  WireRequest predict;
  predict.select = {3, 9};
  ASSERT_TRUE(client.call(predict).ok);
  const auto after = client.stats();
  ASSERT_NE(after.raw.find("p50_latency_seconds"), nullptr);
  ASSERT_NE(after.raw.find("p99_latency_seconds"), nullptr);
  EXPECT_GT(after.raw.find("p99_latency_seconds")->as_number(), 0.0);

  server.shutdown();
  engine.stop();
}

#if defined(__linux__)
TEST_F(ServeTest, StatsAndHealthCarryProcessStats) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  const auto stats = client.stats();
  ASSERT_NE(stats.raw.find("process_rss_bytes"), nullptr);
  EXPECT_GT(stats.raw.find("process_rss_bytes")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("process_threads"), nullptr);
  EXPECT_GE(stats.raw.find("process_threads")->as_number(), 1.0);
  ASSERT_NE(stats.raw.find("process_open_fds"), nullptr);
  EXPECT_GT(stats.raw.find("process_open_fds")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("process_cpu_seconds"), nullptr);

  const auto health = client.health();
  ASSERT_NE(health.raw.find("rss_bytes"), nullptr);
  EXPECT_GT(health.raw.find("rss_bytes")->as_number(), 0.0);

  // The same sampling feeds the shared Prometheus exposition.
  const auto prom = client.stats("prometheus");
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("process_resident_memory_bytes"), std::string::npos);
  EXPECT_NE(text.find("process_open_fds"), std::string::npos);

  server.shutdown();
  engine.stop();
}
#endif

// ---- Sharded engine --------------------------------------------------------

TEST_F(ServeTest, SubmitAsyncCompletesViaCallback) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 1;
  options.shards = 2;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::promise<PredictResult> done;
  engine.submit_async(request_for({1, 2}), [&done](PredictResult result) {
    done.set_value(std::move(result));
  });
  const auto result = done.get_future().get();
  EXPECT_EQ(result.status, RequestStatus::Ok) << result.error;
  EXPECT_GT(result.seconds, 0.0);

  // After stop() the rejection callback fires inline on the submitting
  // thread — the event loop depends on the callback always firing.
  engine.stop();
  bool rejected_inline = false;
  engine.submit_async(request_for({1, 2}), [&](PredictResult result) {
    rejected_inline = result.status == RequestStatus::Rejected;
  });
  EXPECT_TRUE(rejected_inline);
}

TEST_F(ServeTest, ShardTargetedBackpressure) {
  // One saturated shard must reject while the others keep admitting.
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.shards = 4;
  options.max_queue = 2;  // per-shard bound
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);
  ASSERT_EQ(engine.shard_count(), 4u);
  ASSERT_EQ(engine.total_capacity(), 8u);

  // The router is a pure function of (circuit fingerprint, selection), so a
  // fixed selection always lands on the same shard.
  const std::vector<GateId> hot = {1, 2};
  const std::size_t hot_shard = engine.shard_of(request_for(hot));
  ASSERT_EQ(hot_shard, engine.shard_of(request_for(hot)));

  // Find a selection the router sends elsewhere (tiny search space — with 4
  // shards most candidates qualify immediately).
  std::vector<GateId> cold;
  for (GateId g = 3; g < 40; ++g) {
    if (engine.shard_of(request_for({g})) != hot_shard) {
      cold = {g};
      break;
    }
  }
  ASSERT_FALSE(cold.empty()) << "no selection routed off the hot shard";

  engine.set_paused(true);  // queues fill deterministically
  std::vector<std::future<PredictResult>> accepted;
  for (int i = 0; i < 2; ++i) {
    accepted.push_back(engine.submit(request_for(hot)));
  }
  EXPECT_EQ(engine.queue_depth(hot_shard), 2u);

  auto overflow = engine.submit(request_for(hot));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the saturated shard must answer immediately";
  const auto rejected = overflow.get();
  EXPECT_EQ(rejected.status, RequestStatus::Rejected);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  // Other shards still admit: the cold request queues instead of rejecting.
  auto admitted = engine.submit(request_for(cold));
  EXPECT_NE(admitted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a different shard should have accepted this request";
  EXPECT_EQ(engine.queue_depth(), 3u);

  engine.set_paused(false);
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, RequestStatus::Ok);
  }
  EXPECT_EQ(admitted.get().status, RequestStatus::Ok);
}

TEST_F(ServeTest, CrossShardResponsesAreByteIdentical) {
  // The same pipelined request stream must produce byte-identical response
  // bytes at shards=1 and shards=4 — routing decides WHERE a request
  // computes, never WHAT it answers (DESIGN.md §13). request_ids are
  // client-supplied so the engine's r-<n> counter cannot differ between
  // configurations.
  constexpr int kRequests = 32;
  std::string stream;
  std::mt19937_64 rng(29);
  for (int i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.id = static_cast<std::uint64_t>(i);
    request.has_id = true;
    request.request_id = "q-" + std::to_string(i);
    const std::size_t count = 1 + i % 5;
    for (std::size_t g = 0; g < count; ++g) {
      request.select.push_back(
          static_cast<std::uint32_t>(rng() % circuit_->size()));
    }
    stream += encode_request(request);
    stream += '\n';
  }

  const auto serve_stream = [&](std::size_t shards) {
    ModelRegistry registry;
    registry.load("default", model_path_);
    EngineOptions engine_options;
    engine_options.shards = shards;
    engine_options.jobs = 2;
    engine_options.max_batch = 8;
    InferenceEngine engine(registry, engine_options);
    engine.register_circuit("default", circuit_);
    ServerOptions server_options;
    server_options.io_threads = 2;
    Server server(engine, registry, server_options);
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::size_t sent = 0;
    while (sent < stream.size()) {
      const ssize_t n =
          ::send(fd, stream.data() + sent, stream.size() - sent, 0);
      if (n <= 0) {
        ADD_FAILURE() << "send failed";
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    std::string bytes;
    int newlines = 0;
    char chunk[4096];
    while (newlines < kRequests) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before all responses arrived";
        break;
      }
      for (ssize_t j = 0; j < n; ++j) {
        if (chunk[j] == '\n') ++newlines;
      }
      bytes.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    server.shutdown();
    engine.stop();
    return bytes;
  };

  std::string serial;
  serve_stream(1).swap(serial);
  std::string sharded;
  serve_stream(4).swap(sharded);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, sharded)
      << "sharded responses diverged from the serial path";
  // Responses come back in request order: the i-th line echoes q-<i>.
  std::size_t pos = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t nl = serial.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = serial.substr(pos, nl - pos);
    EXPECT_NE(line.find("\"q-" + std::to_string(i) + "\""), std::string::npos)
        << "response " << i << " out of order: " << line;
    pos = nl + 1;
  }
}

TEST(ClientTimeout, RefusedConnectionRaisesConnectionError) {
  // Bind-then-close: the port was just free, so connecting is refused fast.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  EXPECT_THROW(Client("127.0.0.1", port), ConnectionError);
}

TEST(ClientTimeout, HungServerRaisesConnectionErrorInsteadOfBlocking) {
  // A listener that never accepts: the kernel completes the TCP handshake
  // into the backlog, so connect succeeds but no response ever arrives —
  // exactly the "hung server" a probe must not block on.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 100;
  Client client("127.0.0.1", ntohs(addr.sin_port), options);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(client.ping(), ConnectionError);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000)
      << "the IO timeout must bound the wait";
  ::close(listener);
}

}  // namespace
}  // namespace ic::serve
