#include "serve/monitor_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/lits_deviation.h"
#include "core/significance.h"

namespace focus::serve {

using common::MutexLock;

std::optional<MonitorServiceOptions> MonitorServiceOptionsFromFlags(
    const common::Flags& flags, std::string* error) {
  MonitorServiceOptions options;
  int queue_capacity = 0;
  int model_cache_capacity = 0;
  const auto positive = [](double v) { return v > 0.0; };
  if (!ReadDoubleFlag(flags, "minsup", 0.01,
                      [](double v) { return v > 0.0 && v <= 1.0; },
                      "in (0, 1]", &options.monitor.apriori.min_support,
                      error) ||
      !ReadDoubleFlag(flags, "factor", 2.0, positive, "> 0",
                      &options.monitor.alert_factor, error) ||
      !ReadIntFlag(flags, "calibration", 5, 1,
                   &options.monitor.calibration_replicates, error) ||
      !ReadIntFlag(flags, "replicates", 9, 1,
                   &options.monitor.significance.num_replicates, error) ||
      !ReadIntFlag(flags, "warmup", 5, 2, &options.cusum.warmup, error) ||
      !ReadDoubleFlag(flags, "slack", 0.5,
                      [](double v) { return v >= 0.0; }, ">= 0",
                      &options.cusum.slack, error) ||
      !ReadDoubleFlag(flags, "decision", 5.0, positive, "> 0",
                      &options.cusum.decision_threshold, error) ||
      !ReadIntFlag(flags, "threads", 4, 1, &options.num_threads, error) ||
      !ReadIntFlag(flags, "queue", 64, 1, &queue_capacity, error) ||
      !ReadIntFlag(flags, "cache", 64, 1, &model_cache_capacity, error)) {
    return std::nullopt;
  }
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  options.model_cache_capacity = static_cast<size_t>(model_cache_capacity);
  return options;
}

std::string StreamEvent::ToJson() const {
  std::string out = "{\"type\":\"event\"";
  out += ",\"stream\":\"" + JsonEscape(stream) + "\"";
  out += ",\"seq\":" + std::to_string(sequence);
  if (!source.empty()) out += ",\"source\":\"" + JsonEscape(source) + "\"";
  out += ",\"n\":" + std::to_string(num_transactions);
  out += ",\"delta_star\":" + JsonNumber(report.upper_bound);
  out += ",\"screened_out\":";
  out += report.screened_out ? "true" : "false";
  if (!report.screened_out) {
    out += ",\"delta\":" + JsonNumber(report.deviation);
    out += ",\"sig_pct\":" + JsonNumber(report.significance_percent);
  }
  out += ",\"alert\":";
  out += report.alert ? "true" : "false";
  out += ",\"cusum\":" + JsonNumber(cusum);
  out += ",\"change_point\":";
  out += change_point ? "true" : "false";
  out += ",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"latency_ms\":" + JsonNumber(latency_ms);
  out += "}";
  return out;
}

MonitorService::MonitorService(const MonitorServiceOptions& options,
                               const data::TransactionDb& reference,
                               MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      streams_gauge_(metrics != nullptr ? &metrics->GetGauge("streams")
                                        : nullptr),
      queue_depth_gauge_(metrics != nullptr
                             ? &metrics->GetGauge("queue_depth")
                             : nullptr),
      submitted_counter_(metrics != nullptr
                             ? &metrics->GetCounter("snapshots_submitted")
                             : nullptr),
      shed_counter_(metrics != nullptr
                        ? &metrics->GetCounter("snapshots_shed")
                        : nullptr),
      read_memo_hits_(metrics != nullptr
                          ? &metrics->GetCounter("read_memo_hits")
                          : nullptr),
      read_memo_misses_(metrics != nullptr
                            ? &metrics->GetCounter("read_memo_misses")
                            : nullptr),
      monitor_(reference, options.monitor),
      model_cache_(options.model_cache_capacity, options.monitor.apriori,
                   metrics),
      pool_(std::make_unique<common::ThreadPool>(options.num_threads)) {}

MonitorService::~MonitorService() { Shutdown(); }

void MonitorService::AddStream(const std::string& name) {
  MutexLock lock(&state_mutex_);
  FOCUS_CHECK(streams_.find(name) == streams_.end())
      << "stream '" << name << "' registered twice";
  FindOrAddStreamLocked(name);
}

MonitorService::Stream* MonitorService::FindOrAddStreamLocked(
    const std::string& name) {
  auto [it, inserted] = streams_.try_emplace(name);
  if (inserted) {
    it->second = std::make_unique<Stream>(options_.cusum);
    if (streams_gauge_ != nullptr) {
      streams_gauge_->Set(static_cast<double>(streams_.size()));
    }
  }
  return it->second.get();
}

std::vector<std::string> MonitorService::ListStreams() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&state_mutex_);
    names.reserve(streams_.size());
    for (const auto& [name, stream] : streams_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MonitorService::SetEventSink(
    std::function<void(const StreamEvent&)> sink) {
  MutexLock lock(&sink_mutex_);
  sink_ = std::move(sink);
}

IngestResult MonitorService::Ingest(
    Snapshot snapshot, std::optional<std::chrono::milliseconds> wait) {
  // Refused before any wait, registration or numbering: such a snapshot
  // would abort the miner or stage 2's pooled resampling later.
  const data::TxnSourceRef source = snapshot.source_ref();
  const int32_t reference_items = monitor_.reference_model().num_items();
  if (source.num_transactions() == 0) {
    return {.status = SubmitResult::kInvalid,
            .reason = "snapshot has no transactions"};
  }
  if (source.num_items() != reference_items) {
    return {.status = SubmitResult::kInvalid,
            .reason = "snapshot declares " +
                      std::to_string(source.num_items()) +
                      " items; the reference has " +
                      std::to_string(reference_items)};
  }
  const int64_t reference_transactions =
      monitor_.reference_model().num_transactions();
  if (source.num_transactions() >
      core::kMaxNullPoolTransactions - reference_transactions) {
    return {.status = SubmitResult::kInvalid,
            .reason = "snapshot has " +
                      std::to_string(source.num_transactions()) +
                      " transactions; stage 2 pools at most " +
                      std::to_string(core::kMaxNullPoolTransactions -
                                     reference_transactions) +
                      " beside the reference's " +
                      std::to_string(reference_transactions)};
  }
  // The one content hash of this snapshot: the 202 reply's and the model
  // cache's key.
  snapshot.content_hash = TransactionDbContentHash(source);
  const uint64_t content_hash = snapshot.content_hash;
  Stream* stream = nullptr;
  int64_t sequence = 0;
  {
    // Bound the snapshots in flight (pending + processing) by the queue
    // capacity: this is the backpressure the producer feels.
    MutexLock lock(&state_mutex_);
    const auto has_room = [this]() REQUIRES(state_mutex_) {
      return shutdown_ ||
             in_flight_ < static_cast<int64_t>(options_.queue_capacity);
    };
    bool ready = true;
    if (wait.has_value()) {
      ready = idle_cv_.WaitFor(state_mutex_, *wait, has_room);
    } else {
      idle_cv_.Wait(state_mutex_, has_room);
    }
    if (shutdown_) return {.status = SubmitResult::kShutdown};
    if (!ready) {
      if (shed_counter_ != nullptr) shed_counter_->Increment();
      return {.status = SubmitResult::kOverloaded};
    }
    // Numbering and appending under one lock hold make the stream's
    // sequence order its processing order.
    stream = FindOrAddStreamLocked(snapshot.stream);
    sequence = stream->next_sequence++;
    snapshot.sequence = sequence;
    stream->pending.push_back(std::move(snapshot));
    ++in_flight_;
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(in_flight_));
      submitted_counter_->Increment();
    }
    if (stream->draining) {  // the active drain job will take it
      return {.status = SubmitResult::kAccepted,
              .sequence = sequence,
              .content_hash = content_hash};
    }
    stream->draining = true;
  }
  // One drain job per stream at a time: per-stream order is preserved
  // while distinct streams run concurrently on the pool. The pool is still
  // there: Shutdown resets it only once in_flight_, which counts this
  // snapshot, is back to zero. Fire-and-forget: ThreadPool::Submit's future
  // carries no value, and the drain job's outcome is reported through the
  // event sink, not the return.
  // focus-analyze: allow(unchecked-status)
  pool_->Submit([this, stream]() { DrainStream(stream); });
  return {.status = SubmitResult::kAccepted,
          .sequence = sequence,
          .content_hash = content_hash};
}

std::optional<StreamStatus> MonitorService::GetStreamStatus(
    const std::string& name) const {
  MutexLock lock(&state_mutex_);
  const auto it = streams_.find(name);
  if (it == streams_.end()) return std::nullopt;
  return it->second->status;
}

std::optional<StreamDeviation> MonitorService::QueryDeviation(
    const std::string& name, FgChoice fg) const {
  StreamDeviation result;
  Stream* stream = nullptr;
  MinedSnapshot last;
  {
    MutexLock lock(&state_mutex_);
    const auto it = streams_.find(name);
    if (it == streams_.end()) return std::nullopt;
    stream = it->second.get();
    result.status = stream->status;
    if (const std::optional<double>& memo = stream->deviations[fg.index()];
        memo.has_value()) {
      result.has_deviation = true;
      result.deviation = *memo;
    } else {
      last = stream->last_mined;
    }
  }
  if (result.has_deviation) {
    if (read_memo_hits_ != nullptr) read_memo_hits_->Increment();
    return result;
  }
  // A block-backed latest snapshot has no index, so it reports no
  // deviation. Only focus_served --spool --ooc ingests such snapshots.
  if (!result.status.has_snapshot || last.model == nullptr ||
      last.index == nullptr) {
    return result;
  }
  // Compute under `fg` from the CACHED model + vertical index of the latest
  // snapshot against the monitor's reference pair — GCR extension via
  // bitmap AND+popcount, no raw-data scan. The first read of a snapshot
  // builds its index (once, across concurrent readers). The monitor is
  // immutable after construction, so reading it unlocked is safe.
  result.deviation =
      core::LitsDeviation(monitor_.reference_model(),
                          &monitor_.reference_index(), *last.model,
                          &last.index->Get(), fg.function());
  result.has_deviation = true;
  {
    // Every publish bumps `processed`: an unchanged count means the stream
    // still shows the snapshot this deviation was computed for. Streams
    // are never removed, so `stream` is still valid.
    MutexLock lock(&state_mutex_);
    if (stream->status.processed == result.status.processed) {
      stream->deviations[fg.index()] = result.deviation;
    }
  }
  if (read_memo_misses_ != nullptr) read_memo_misses_->Increment();
  return result;
}

bool MonitorService::TakeNextPendingLocked(Stream* stream, Snapshot* out) {
  if (stream->pending.empty()) {
    stream->draining = false;
    return false;
  }
  *out = std::move(stream->pending.front());
  stream->pending.pop_front();
  return true;
}

void MonitorService::DrainStream(Stream* stream) {
  for (;;) {
    Snapshot snapshot;
    {
      MutexLock lock(&state_mutex_);
      if (!TakeNextPendingLocked(stream, &snapshot)) return;
    }
    const StreamEvent event = Process(stream, std::move(snapshot));
    {
      MutexLock lock(&sink_mutex_);
      if (sink_) sink_(event);
    }
    FinishOne();
  }
}

StreamEvent MonitorService::Process(Stream* stream, Snapshot snapshot) {
  common::Timer timer;
  StreamEvent event;
  event.stream = std::move(snapshot.stream);
  event.sequence = snapshot.sequence;
  event.source = std::move(snapshot.source);
  // Either backend scans through the same ref: the daemon's --ooc path
  // hands over a block store that streams block by block everywhere below.
  const data::TxnSourceRef source = snapshot.source_ref();
  event.num_transactions = source.num_transactions();

  bool cache_hit = false;
  const MinedSnapshot mined =
      model_cache_.GetOrMineIndexed(source, snapshot.content_hash, &cache_hit);
  event.cache_hit = cache_hit;
  // Stage 2 (when the screen fires) extends both models by scanning, so
  // no ingest builds an index: only a read of this snapshot does. Stage
  // 2's bootstrap replicates run across the service's own pool; this drain
  // job runs replicates itself too, so the nesting cannot deadlock.
  event.report = monitor_.InspectWithModel(source, *mined.model, pool_.get());

  // The CUSUM series runs over delta*: unlike the exact deviation it is
  // computed for every snapshot (screened or not), giving a uniform
  // sequential signal.
  const core::DriftPoint drift = stream->cusum.Observe(event.report.upper_bound);
  event.cusum = drift.cusum;
  event.change_point = drift.change_point;
  event.latency_ms = timer.Millis();

  // Publish the queryable per-stream view (GET …/deviation) under the
  // state lock; the cached model and lazy index keep later (f,g) queries
  // off the raw data. The stream's worker is the only writer, so the copies
  // are coherent.
  {
    MutexLock lock(&state_mutex_);
    PublishStatusLocked(stream, event, mined);
  }

  if (metrics_ != nullptr) {
    metrics_->GetCounter("snapshots_processed").Increment();
    if (event.report.screened_out) {
      metrics_->GetCounter("screened_out").Increment();
    }
    if (event.report.alert) metrics_->GetCounter("alerts").Increment();
    if (event.change_point) metrics_->GetCounter("change_points").Increment();
    metrics_->GetHistogram("inspect_latency_ms").Observe(event.latency_ms);
  }
  return event;
}

void MonitorService::PublishStatusLocked(Stream* stream,
                                         const StreamEvent& event,
                                         const MinedSnapshot& mined) {
  StreamStatus& status = stream->status;
  ++status.processed;
  status.has_snapshot = true;
  status.sequence = event.sequence;
  status.num_transactions = event.num_transactions;
  status.delta_star = event.report.upper_bound;
  status.screened_out = event.report.screened_out;
  status.deviation = event.report.deviation;
  status.significance_percent = event.report.significance_percent;
  status.alert = event.report.alert;
  status.cusum = event.cusum;
  status.change_point = event.change_point;
  status.baseline_ready = stream->cusum.baseline_ready();
  status.baseline_mean = stream->cusum.baseline_mean();
  status.baseline_sd = stream->cusum.baseline_sd();
  stream->last_mined = mined;
  stream->deviations.fill(std::nullopt);
}

void MonitorService::FinishOne() {
  MutexLock lock(&state_mutex_);
  --in_flight_;
  ++processed_;
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<double>(in_flight_));
  }
  idle_cv_.NotifyAll();
}

void MonitorService::Flush() {
  MutexLock lock(&state_mutex_);
  idle_cv_.Wait(state_mutex_,
                [this]() REQUIRES(state_mutex_) { return in_flight_ == 0; });
}

void MonitorService::Shutdown() {
  {
    MutexLock lock(&state_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    idle_cv_.NotifyAll();  // wake Ingest callers blocked on backpressure
  }
  Flush();        // drain jobs still running on the pool
  pool_.reset();  // joins the workers
}

int64_t MonitorService::processed() const {
  MutexLock lock(&state_mutex_);
  return processed_;
}

}  // namespace focus::serve
