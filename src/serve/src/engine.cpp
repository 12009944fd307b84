#include "ic/serve/engine.hpp"

#include <cmath>
#include <cstdlib>
#include <mutex>

#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/progress.hpp"
#include "ic/support/trace.hpp"

namespace ic::serve {

using Clock = std::chrono::steady_clock;

namespace {

// splitmix64 finalizer — a cheap full-avalanche mixer so that nearby gate
// ids and fingerprints spread uniformly over shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::Ok: return "ok";
    case RequestStatus::Rejected: return "rejected";
    case RequestStatus::DeadlineExceeded: return "deadline";
    case RequestStatus::Error: return "error";
  }
  IC_ASSERT_MSG(false, "unhandled RequestStatus");
  return "error";
}

InferenceEngine::InferenceEngine(ModelRegistry& registry, EngineOptions options)
    : registry_(registry), options_(options), features_(options.feature_cache_max) {
  IC_CHECK(options_.shards >= 1, "EngineOptions::shards must be >= 1");
  IC_CHECK(options_.max_queue >= 1, "EngineOptions::max_queue must be >= 1");
  IC_CHECK(options_.max_batch >= 1, "EngineOptions::max_batch must be >= 1");
  slow_request_ms_ = options_.slow_request_ms;
  if (slow_request_ms_ < 0) {
    if (const char* env = std::getenv("IC_SLOW_REQUEST_MS")) {
      char* end = nullptr;
      const long value = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && value >= 0) {
        slow_request_ms_ = value;
      } else if (*env != '\0') {
        // Same contract as IC_LOG_LEVEL: a set-but-unparsable knob warns once
        // naming the value and the accepted range instead of silently keeping
        // slow-request logging disabled.
        static std::once_flag warned;
        std::call_once(warned, [env] {
          ICLOG(warn) << "IC_SLOW_REQUEST_MS='" << env
                      << "' is not a threshold (accepted: integers >= 0, "
                      << "milliseconds); slow-request logging stays disabled";
        });
      }
    }
  }
  auto& metrics = telemetry::MetricsRegistry::global();
  telemetry::TraceStore::Options trace_options;
  trace_options.shards = options_.shards;
  traces_ = std::make_unique<telemetry::TraceStore>(trace_options);
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    const auto stage = static_cast<telemetry::Stage>(s);
    stage_hist_[s] = &metrics.histogram(
        std::string("serve.stage.") + telemetry::stage_name(stage) +
        "_seconds");
  }
  batch_size_hist_ = &metrics.histogram(
      "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  shards_.reserve(options_.shards);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    if (options_.jobs == 0) {
      shard->pool = &support::ThreadPool::global();
    } else {
      shard->owned_pool = std::make_unique<support::ThreadPool>(
          support::ThreadPool::effective_jobs(options_.jobs));
      shard->pool = shard->owned_pool.get();
    }
    shard->depth_gauge =
        &metrics.gauge("serve.shard" + std::to_string(k) + ".queue_depth");
    shards_.push_back(std::move(shard));
  }
  // Threads only start once every shard slot exists — batchers index shards_.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->batcher = std::thread([this, k] { batcher_loop(k); });
  }
}

InferenceEngine::~InferenceEngine() { stop(); }

void InferenceEngine::register_circuit(
    const std::string& name, std::shared_ptr<const circuit::Netlist> circuit) {
  IC_CHECK(circuit != nullptr, "register_circuit needs a netlist");
  RegisteredCircuit entry;
  entry.fingerprint = netlist_fingerprint(*circuit);
  entry.netlist = std::move(circuit);
  std::lock_guard<std::mutex> lock(circuits_mu_);
  circuits_[name] = std::move(entry);
}

std::size_t InferenceEngine::shard_of(const PredictRequest& request) const {
  if (shards_.size() == 1) return 0;
  std::uint64_t fingerprint = 0;  // unknown circuits hash on the name's absence
  {
    std::lock_guard<std::mutex> lock(circuits_mu_);
    const auto it = circuits_.find(request.circuit);
    if (it != circuits_.end()) fingerprint = it->second.fingerprint;
  }
  // Fold the selection into the circuit fingerprint: identical
  // (circuit, selection) queries stay shard-affine (their featurization is
  // cached engine-wide anyway), while a policy search streaming many
  // selections of ONE circuit fans out across every shard instead of
  // pinning a single batcher.
  std::uint64_t h = mix64(fingerprint);
  for (const circuit::GateId id : request.selection) {
    h = mix64(h ^ static_cast<std::uint64_t>(id));
  }
  return static_cast<std::size_t>(h % shards_.size());
}

void InferenceEngine::fulfill(Pending& pending, PredictResult result) {
  if (pending.callback) {
    pending.callback(std::move(result));
  } else {
    pending.promise.set_value(std::move(result));
  }
}

void InferenceEngine::enqueue(std::unique_ptr<Pending> pending) {
  auto& metrics = telemetry::MetricsRegistry::global();
  const std::size_t index = shard_of(pending->request);
  Shard& shard = *shards_[index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.stopping) {
      metrics.counter("serve.rejected").add(1);
      PredictResult rejected;
      rejected.status = RequestStatus::Rejected;
      rejected.error = "engine is shutting down";
      rejected.request_id = pending->request.request_id;
      fulfill(*pending, std::move(rejected));
      return;
    }
    if (shard.queue.size() >= options_.max_queue) {
      metrics.counter("serve.rejected").add(1);
      PredictResult rejected;
      rejected.status = RequestStatus::Rejected;
      rejected.error = "queue full (max_queue=" +
                       std::to_string(options_.max_queue) + ")";
      rejected.request_id = pending->request.request_id;
      fulfill(*pending, std::move(rejected));
      return;
    }
    pending->request.timeline.mark(telemetry::Stage::Route);
    shard.queue.push_back(std::move(pending));
    metrics.counter("serve.requests").add(1);
    const std::size_t total =
        total_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    metrics.gauge("serve.queue_depth").set(static_cast<double>(total));
    shard.depth_gauge->set(static_cast<double>(shard.queue.size()));
  }
  shard.work_cv.notify_one();
}

std::future<PredictResult> InferenceEngine::submit(PredictRequest request) {
  const auto now = Clock::now();
  const std::int64_t timeout_ms =
      request.timeout_ms >= 0 ? request.timeout_ms : options_.default_timeout_ms;
  if (request.request_id.empty()) {
    request.request_id =
        "r-" + std::to_string(next_request_id_.fetch_add(1,
                                  std::memory_order_relaxed) + 1);
  }
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->enqueued = now;
  pending->deadline = timeout_ms >= 0
                          ? now + std::chrono::milliseconds(timeout_ms)
                          : Clock::time_point::max();
  auto future = pending->promise.get_future();
  enqueue(std::move(pending));
  return future;
}

void InferenceEngine::submit_async(PredictRequest request, Callback done) {
  IC_CHECK(done != nullptr, "submit_async needs a completion callback");
  const auto now = Clock::now();
  const std::int64_t timeout_ms =
      request.timeout_ms >= 0 ? request.timeout_ms : options_.default_timeout_ms;
  if (request.request_id.empty()) {
    request.request_id =
        "r-" + std::to_string(next_request_id_.fetch_add(1,
                                  std::memory_order_relaxed) + 1);
  }
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->callback = std::move(done);
  pending->enqueued = now;
  pending->deadline = timeout_ms >= 0
                          ? now + std::chrono::milliseconds(timeout_ms)
                          : Clock::time_point::max();
  enqueue(std::move(pending));
}

PredictResult InferenceEngine::predict(PredictRequest request) {
  return submit(std::move(request)).get();
}

std::vector<PredictResult> InferenceEngine::predict_batch(
    std::vector<PredictRequest> requests) {
  std::vector<std::future<PredictResult>> futures;
  futures.reserve(requests.size());
  for (auto& request : requests) futures.push_back(submit(std::move(request)));
  std::vector<PredictResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

PredictResult InferenceEngine::process(Pending& pending) {
  auto& metrics = telemetry::MetricsRegistry::global();
  const PredictRequest& request = pending.request;
  telemetry::TraceSpan span("serve/request");
  span.annotate("request_id", request.request_id);
  const auto started = Clock::now();
  const double queue_wait =
      std::chrono::duration<double>(started - pending.enqueued).count();
  metrics.histogram("serve.queue_wait_seconds").observe(queue_wait);
  pending.request.timeline.mark(telemetry::Stage::BatchAdmit);
  // Expose the timeline to the forward pass (SpMM / GraphConv / readout mark
  // inner stages through the thread-local) for the rest of this request.
  telemetry::ScopedTimeline scoped(&pending.request.timeline);
  PredictResult out = process_inner(pending, started);
  out.request_id = request.request_id;
  const double compute =
      std::chrono::duration<double>(Clock::now() - started).count();
  metrics.histogram("serve.compute_seconds").observe(compute);
  if (slow_request_ms_ >= 0 &&
      (queue_wait + compute) * 1e3 > static_cast<double>(slow_request_ms_)) {
    metrics.counter("serve.slow_requests").add(1);
    std::uint64_t fingerprint = 0;  // 0 when the circuit lookup itself failed
    {
      std::lock_guard<std::mutex> lock(circuits_mu_);
      const auto it = circuits_.find(request.circuit);
      if (it != circuits_.end()) fingerprint = it->second.fingerprint;
    }
    ICLOG(warn) << "serve.slow_request"
                << telemetry::kv("request_id", request.request_id)
                << telemetry::kv("circuit", request.circuit)
                << telemetry::kv("fingerprint", fingerprint)
                << telemetry::kv("queue_wait_s", queue_wait)
                << telemetry::kv("compute_s", compute)
                << telemetry::kv("status", status_name(out.status));
  }
  return out;
}

PredictResult InferenceEngine::process_inner(Pending& pending,
                                             Clock::time_point started) {
  auto& metrics = telemetry::MetricsRegistry::global();
  PredictResult out;
  if (started > pending.deadline) {
    metrics.counter("serve.deadline_exceeded").add(1);
    out.status = RequestStatus::DeadlineExceeded;
    out.error = "deadline exceeded before execution";
    return out;
  }
  const PredictRequest& request = pending.request;
  try {
    const auto snapshot = registry_.get(request.model);
    if (snapshot == nullptr) {
      metrics.counter("serve.errors").add(1);
      out.status = RequestStatus::Error;
      out.error = "unknown model '" + request.model + "'";
      return out;
    }
    RegisteredCircuit circuit;
    {
      std::lock_guard<std::mutex> lock(circuits_mu_);
      const auto it = circuits_.find(request.circuit);
      if (it == circuits_.end()) {
        metrics.counter("serve.errors").add(1);
        out.status = RequestStatus::Error;
        out.error = "unknown circuit '" + request.circuit + "'";
        return out;
      }
      circuit = it->second;
    }
    pending.fingerprint = circuit.fingerprint;
    for (const circuit::GateId id : request.selection) {
      if (id >= circuit.netlist->size()) {
        metrics.counter("serve.errors").add(1);
        out.status = RequestStatus::Error;
        out.error = "gate id " + std::to_string(id) + " out of range (circuit has " +
                    std::to_string(circuit.netlist->size()) + " gates)";
        return out;
      }
    }
    const auto features =
        features_.get(circuit.netlist, snapshot->spec.features,
                      snapshot->structure_kind(), circuit.fingerprint);
    const graph::Matrix x =
        FeatureCache::features_for(*features, request.selection);
    pending.request.timeline.mark(telemetry::Stage::FeatureBuild);

    out.log_runtime = snapshot->model->predict(*features->structure, x);
    // Targets are log(1 + microseconds); mirror RuntimeEstimator exactly.
    out.seconds = std::expm1(out.log_runtime) / 1e6;
    out.model_version = snapshot->version;
    return out;
  } catch (const std::exception& e) {
    metrics.counter("serve.errors").add(1);
    out.status = RequestStatus::Error;
    out.error = e.what();
    return out;
  }
}

void InferenceEngine::finish_timeline(Pending& pending,
                                      std::size_t shard_index,
                                      double total_seconds) {
  telemetry::Timeline& timeline = pending.request.timeline;
  timeline.mark(telemetry::Stage::Respond);
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    if (timeline.dur_us[s] > 0) {
      stage_hist_[s]->observe(static_cast<double>(timeline.dur_us[s]) / 1e6);
    }
  }
  telemetry::TraceRecord record;
  record.timeline = timeline;
  record.request_id = pending.request.request_id;
  record.fingerprint = pending.fingerprint;
  record.shard = static_cast<std::uint32_t>(shard_index);
  record.batch_size = pending.batch_size;
  record.total_seconds = total_seconds;
  traces_->record(shard_index, std::move(record));
}

void InferenceEngine::batcher_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  auto& metrics = telemetry::MetricsRegistry::global();
  auto& latency = metrics.histogram("serve.request_seconds");
  // Heartbeat slot per shard batcher: requests served + live queue depth. A
  // batcher idles legitimately between requests, so the stall watchdog is off.
  const std::string progress_name =
      shards_.size() == 1 ? std::string("serve.batcher")
                          : "serve.batcher." + std::to_string(shard_index);
  telemetry::ProgressJob progress(progress_name.c_str());
  progress.set_watchdog(false);
  std::uint64_t served = 0, batches = 0;
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.work_cv.wait(lock, [&shard] {
        return (!shard.paused && !shard.queue.empty()) ||
               (shard.stopping && shard.queue.empty());
      });
      if (shard.stopping && shard.queue.empty()) return;
      const std::size_t n = std::min(options_.max_batch, shard.queue.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        shard.queue.front()->request.timeline.mark(telemetry::Stage::Queue);
        shard.queue.front()->batch_size = static_cast<std::uint32_t>(n);
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      shard.in_flight = n;
      const std::size_t total =
          total_depth_.fetch_sub(n, std::memory_order_relaxed) - n;
      metrics.gauge("serve.queue_depth").set(static_cast<double>(total));
      shard.depth_gauge->set(static_cast<double>(shard.queue.size()));
    }

    {
      telemetry::TraceSpan span("serve/batch");
      std::vector<PredictResult> results(batch.size());
      // Indexed result slots over one shared const model: the determinism
      // contract. Each slot is written by exactly one task; fulfillment below
      // happens on this thread in index order.
      shard.pool->parallel_for(0, batch.size(), [&](std::size_t i, std::size_t) {
        results[i] = process(*batch[i]);
      });
      metrics.counter("serve.batches").add(1);
      batch_size_hist_->observe(static_cast<double>(batch.size()));
      const auto done = Clock::now();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double total =
            std::chrono::duration<double>(done - batch[i]->enqueued).count();
        latency.observe(total);
        finish_timeline(*batch[i], shard_index, total);
        fulfill(*batch[i], std::move(results[i]));
      }
      served += batch.size();
      ++batches;
      progress.tick(served);
      progress.set_counters("batches", batches, "queue_depth",
                            queue_depth(shard_index));
    }

    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.in_flight = 0;
      if (shard.queue.empty()) shard.drained_cv.notify_all();
    }
  }
}

void InferenceEngine::drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu);
    IC_CHECK(!shard->paused || shard->queue.empty(),
             "drain() would never finish while the engine is paused");
    shard->drained_cv.wait(lock, [&shard] {
      return shard->queue.empty() && shard->in_flight == 0;
    });
  }
}

void InferenceEngine::stop() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stopping = true;
      shard->paused = false;
    }
    shard->work_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->batcher.joinable()) shard->batcher.join();
  }
}

std::size_t InferenceEngine::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->queue.size();
  }
  return total;
}

std::size_t InferenceEngine::queue_depth(std::size_t shard) const {
  IC_ASSERT(shard < shards_.size());
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->queue.size();
}

void InferenceEngine::set_paused(bool paused) {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->paused = paused;
    }
    shard->work_cv.notify_all();
  }
}

}  // namespace ic::serve
