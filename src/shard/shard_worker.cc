#include "shard/shard_worker.h"

#include <memory>
#include <optional>
#include <utility>

#include "core/lits_deviation.h"
#include "io/data_io.h"
#include "serve/model_cache.h"

namespace focus::shard {
namespace {

// The cache entry of `hash`, if a read can extend its model. A
// block-backed (--spool --ooc) snapshot has no index to extend through,
// so compare and extend-regions treat it as one this shard does not hold.
std::optional<serve::MinedSnapshot> LookupReadable(serve::ModelCache& cache,
                                                   uint64_t hash) {
  std::optional<serve::MinedSnapshot> mined = cache.LookupMined(hash);
  if (mined.has_value() && mined->index == nullptr) return std::nullopt;
  return mined;
}

}  // namespace

ShardWorker::ShardWorker(const ShardWorkerOptions& options,
                         const data::TransactionDb& reference,
                         serve::MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      service_(options.service, reference, metrics) {}

bool ShardWorker::Serve(const WireServerOptions& server_options,
                        std::string* error) {
  server_ = std::make_unique<WireServer>(
      server_options, [this](const Frame& frame) { return HandleFrame(frame); });
  return server_->Start(error);
}

void ShardWorker::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  if (server_ != nullptr) server_->BeginDrain();
}

bool ShardWorker::WaitDrained(int timeout_ms) {
  return server_ == nullptr || server_->WaitDrained(timeout_ms);
}

void ShardWorker::Stop() {
  if (server_ != nullptr) server_->Stop();
  service_.Flush();
  service_.Shutdown();
}

Frame ShardWorker::HandleFrame(const Frame& request) {
  switch (request.type) {
    case MessageType::kPing:
      return HandlePing(request);
    case MessageType::kSubmitSnapshot:
      return HandleSubmit(request);
    case MessageType::kDeviationQuery:
      return HandleDeviationQuery(request);
    case MessageType::kCompare:
      return HandleCompare(request);
    case MessageType::kModelRegions:
      return HandleModelRegions(request);
    case MessageType::kExtendRegions:
      return HandleExtendRegions(request);
    case MessageType::kStreamPartials:
      return HandleStreamPartials(request);
    default:
      return ErrorFrame(request.request_id,
                        "unexpected message type " +
                            std::to_string(static_cast<int>(request.type)));
  }
}

Frame ShardWorker::HandlePing(const Frame& request) {
  PongBody body;
  body.shard_index = options_.shard_index;
  body.processed = service_.processed();
  body.draining = draining_.load(std::memory_order_relaxed) ? 1 : 0;
  return {MessageType::kPong, request.request_id, body.Encode()};
}

Frame ShardWorker::HandleSubmit(const Frame& request) {
  SubmitSnapshotBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed submit payload");
  }
  SubmitResultBody result;
  // Drain refuses new work up front — in-flight snapshots still finish,
  // but nothing new enters the queue (docs/SHARDING.md, shard death).
  if (draining_.load(std::memory_order_relaxed)) {
    result.status = 503;
    result.error = "shard is draining";
    return {MessageType::kSubmitResult, request.request_id, result.Encode()};
  }
  if (body.snapshot.empty()) {
    result.status = 400;
    result.error = "empty snapshot body";
    return {MessageType::kSubmitResult, request.request_id, result.Encode()};
  }
  std::string load_error;
  auto db = io::LoadTransactionDb(body.snapshot, &load_error);
  if (!db.has_value()) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("ingest_rejected").Increment();
    }
    result.status = 400;
    result.error = "malformed snapshot: " + load_error;
    return {MessageType::kSubmitResult, request.request_id, result.Encode()};
  }
  serve::Snapshot snapshot;
  snapshot.stream = std::move(body.stream);
  snapshot.source = std::move(body.source);
  snapshot.db = std::move(*db);
  const serve::IngestResult ingest = service_.Ingest(
      std::move(snapshot), std::chrono::milliseconds(options_.ingest_wait_ms));
  switch (ingest.status) {
    case serve::SubmitResult::kOverloaded:
      result.status = 429;
      result.error = "ingest queue is full; retry later";
      break;
    case serve::SubmitResult::kShutdown:
      result.status = 503;
      result.error = "shard is shutting down";
      break;
    case serve::SubmitResult::kInvalid:
      if (metrics_ != nullptr) {
        metrics_->GetCounter("ingest_rejected").Increment();
      }
      result.status = 400;
      result.error = ingest.reason;
      break;
    case serve::SubmitResult::kAccepted:
      result.status = 202;
      result.sequence = ingest.sequence;
      result.content_hash = ingest.content_hash;
      break;
  }
  return {MessageType::kSubmitResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleDeviationQuery(const Frame& request) {
  DeviationQueryBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed deviation query");
  }
  DeviationResultBody result;
  const auto deviation = service_.QueryDeviation(body.stream, body.fg);
  if (deviation.has_value()) {
    result.found = 1;
    result.status = deviation->status;
    result.has_deviation = deviation->has_deviation ? 1 : 0;
    result.deviation = deviation->deviation;
  }
  return {MessageType::kDeviationResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleCompare(const Frame& request) {
  CompareBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed compare payload");
  }
  serve::ModelCache& cache = service_.model_cache();
  const auto left = LookupReadable(cache, body.left_hash);
  const auto right = LookupReadable(cache, body.right_hash);
  CompareResultBody result;
  if (left.has_value() && right.has_value()) {
    result.outcome = CompareOutcome::kBoth;
    // Both snapshots are local: the full single-node answer, same code as
    // the unsharded /v1/compare, memoized beside the cache entries.
    result.deviation = cache.Compare(body.left_hash, *left, body.right_hash,
                                     *right, body.fg);
    if (metrics_ != nullptr) metrics_->GetCounter("compares").Increment();
  } else if (left.has_value()) {
    result.outcome = CompareOutcome::kLeftOnly;
  } else if (right.has_value()) {
    result.outcome = CompareOutcome::kRightOnly;
  } else {
    result.outcome = CompareOutcome::kNeither;
  }
  return {MessageType::kCompareResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleModelRegions(const Frame& request) {
  ModelRegionsBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed model-regions payload");
  }
  ModelRegionsResultBody result;
  const auto mined = service_.model_cache().LookupMined(body.content_hash);
  if (mined.has_value()) {
    result.found = 1;
    result.num_transactions = mined->model->num_transactions();
    result.regions = mined->model->StructuralComponent();
  }
  return {MessageType::kModelRegionsResult, request.request_id,
          result.Encode()};
}

Frame ShardWorker::HandleExtendRegions(const Frame& request) {
  ExtendRegionsBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed extend-regions payload");
  }
  ExtendRegionsResultBody result;
  const auto mined = LookupReadable(service_.model_cache(), body.content_hash);
  if (mined.has_value()) {
    result.found = 1;
    result.num_transactions = mined->model->num_transactions();
    // The same measure extension LitsDeviation composes, so the router's
    // recombined answer matches the single-node one bit for bit.
    result.supports = core::LitsExtendModel(body.regions, *mined->model,
                                            &mined->index->Get());
  }
  return {MessageType::kExtendRegionsResult, request.request_id,
          result.Encode()};
}

Frame ShardWorker::HandleStreamPartials(const Frame& request) {
  StreamPartialsBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed stream-partials payload");
  }
  PartialAggregateBody result;
  for (const std::string& name : service_.ListStreams()) {
    const auto deviation = service_.QueryDeviation(name, body.fg);
    if (!deviation.has_value()) continue;
    PartialAggregateBody::Entry entry;
    entry.stream = name;
    entry.has_deviation = deviation->has_deviation ? 1 : 0;
    entry.deviation = deviation->deviation;
    result.entries.push_back(std::move(entry));
  }
  return {MessageType::kPartialAggregate, request.request_id, result.Encode()};
}

}  // namespace focus::shard
