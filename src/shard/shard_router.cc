#include "shard/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/lits_deviation.h"

namespace focus::shard {
namespace {

// One request/reply exchange with a shard. False (with `error`) on a
// transport failure or a reply that is not a well-formed `reply_type`.
template <typename Body>
bool Exchange(ShardChannel* shard, MessageType type,
              const std::string& payload, MessageType reply_type,
              Body* reply, std::string* error) {
  Frame response;
  if (!shard->Call(type, payload, &response, error)) return false;
  if (response.type != reply_type || !reply->Decode(response.payload)) {
    if (error != nullptr) {
      *error = "malformed reply of type " +
               std::to_string(static_cast<int>(response.type));
    }
    return false;
  }
  return true;
}

}  // namespace

bool LocalShardChannel::Call(MessageType type, const std::string& payload,
                             Frame* response, std::string* error) {
  Frame request;
  request.type = type;
  request.request_id = 0;
  request.payload = payload;
  *response = worker_->HandleFrame(request);
  if (response->type == MessageType::kError) {
    ErrorBody body;
    if (error != nullptr) {
      *error = body.Decode(response->payload) ? body.message
                                              : "malformed error frame";
    }
    return false;
  }
  return true;
}

ShardRouter::ShardRouter(std::vector<ShardChannel*> shards,
                         int vnodes_per_shard)
    : shards_(std::move(shards)),
      ring_(static_cast<int>(shards_.size()), vnodes_per_shard) {
  FOCUS_CHECK(!shards_.empty());
}

ShardRouter::Status ShardRouter::Submit(const std::string& stream,
                                        const std::string& source,
                                        const std::string& snapshot_text,
                                        SubmitResultBody* result,
                                        std::string* error) {
  SubmitSnapshotBody body;
  body.stream = stream;
  body.source = source;
  body.snapshot = snapshot_text;
  return Exchange(shards_[ring_.ShardFor(stream)],
                  MessageType::kSubmitSnapshot, body.Encode(),
                  MessageType::kSubmitResult, result, error)
             ? Status::kOk
             : Status::kShardDown;
}

ShardRouter::Status ShardRouter::QueryDeviation(const std::string& stream,
                                                serve::FgChoice fg,
                                                DeviationResultBody* result,
                                                std::string* error) {
  DeviationQueryBody body;
  body.stream = stream;
  body.fg = fg;
  if (!Exchange(shards_[ring_.ShardFor(stream)],
                MessageType::kDeviationQuery, body.Encode(),
                MessageType::kDeviationResult, result, error)) {
    return Status::kShardDown;
  }
  return result->found != 0 ? Status::kOk : Status::kNotFound;
}

ShardRouter::Status ShardRouter::Compare(uint64_t left_hash,
                                         uint64_t right_hash,
                                         serve::FgChoice fg, double* deviation,
                                         std::vector<uint64_t>* missing,
                                         std::string* error) {
  CompareBody body;
  body.left_hash = left_hash;
  body.right_hash = right_hash;
  body.fg = fg;
  const std::string payload = body.Encode();

  // Scatter: a content hash can live on any shard (it is owned by
  // whichever stream ingested it), so ask each in turn. A shard holding
  // both answers with the full local deviation — the same code path as
  // single-node compare — and short-circuits the fan-out.
  int left_shard = -1, right_shard = -1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    CompareResultBody result;
    if (!Exchange(shards_[i], MessageType::kCompare, payload,
                  MessageType::kCompareResult, &result, error)) {
      return Status::kShardDown;
    }
    switch (result.outcome) {
      case CompareOutcome::kBoth:
        *deviation = result.deviation;
        return Status::kOk;
      case CompareOutcome::kLeftOnly:
        if (left_shard < 0) left_shard = static_cast<int>(i);
        break;
      case CompareOutcome::kRightOnly:
        if (right_shard < 0) right_shard = static_cast<int>(i);
        break;
      case CompareOutcome::kNeither:
        break;
    }
  }
  if (left_shard >= 0 && right_shard >= 0) {
    return CrossShardCompare(left_shard, left_hash, right_shard, right_hash,
                             fg, deviation, error);
  }
  if (missing != nullptr) {
    if (left_shard < 0) missing->push_back(left_hash);
    if (right_shard < 0 && right_hash != left_hash) {
      missing->push_back(right_hash);
    }
  }
  return Status::kNotFound;
}

ShardRouter::Status ShardRouter::CrossShardCompare(
    int left_shard, uint64_t left_hash, int right_shard, uint64_t right_hash,
    serve::FgChoice fg, double* deviation, std::string* error) {
  // Phase 1: each owner's structural component Γ(M) (sorted) and |D|.
  ModelRegionsResultBody left_model, right_model;
  const auto fetch_regions = [&](int shard, uint64_t hash,
                                 ModelRegionsResultBody* out) {
    ModelRegionsBody body;
    body.content_hash = hash;
    if (!Exchange(shards_[shard], MessageType::kModelRegions, body.Encode(),
                  MessageType::kModelRegionsResult, out, error)) {
      return Status::kShardDown;
    }
    // The cache can evict between the scatter and this fetch.
    return out->found != 0 ? Status::kOk : Status::kNotFound;
  };
  Status status = fetch_regions(left_shard, left_hash, &left_model);
  if (status != Status::kOk) return status;
  status = fetch_regions(right_shard, right_hash, &right_model);
  if (status != Status::kOk) return status;

  // The GCR: sorted union of the two sorted structural components —
  // exactly what core::LitsGcr builds from the two models (union of
  // itemset sets, then sort), so the regions and their order match the
  // single-node computation.
  std::vector<lits::Itemset> gcr;
  gcr.reserve(left_model.regions.size() + right_model.regions.size());
  std::set_union(left_model.regions.begin(), left_model.regions.end(),
                 right_model.regions.begin(), right_model.regions.end(),
                 std::back_inserter(gcr));

  // Phase 2: extend each model to the GCR on its owning shard.
  ExtendRegionsResultBody left_extended, right_extended;
  const auto extend = [&](int shard, uint64_t hash,
                          ExtendRegionsResultBody* out) {
    ExtendRegionsBody body;
    body.content_hash = hash;
    body.regions = gcr;
    if (!Exchange(shards_[shard], MessageType::kExtendRegions, body.Encode(),
                  MessageType::kExtendRegionsResult, out, error)) {
      return Status::kShardDown;
    }
    if (out->found == 0) return Status::kNotFound;
    if (out->supports.size() != gcr.size()) {
      if (error != nullptr) *error = "extend-regions support count mismatch";
      return Status::kShardDown;
    }
    return Status::kOk;
  };
  status = extend(left_shard, left_hash, &left_extended);
  if (status != Status::kOk) return status;
  status = extend(right_shard, right_hash, &right_extended);
  if (status != Status::kOk) return status;

  // Supports traveled as IEEE-754 bits, so this aggregation sees the very
  // doubles the owning shards computed: delta^1_(f,g) over the GCR, bit-
  // identical to LitsDeviation on one node.
  *deviation = core::LitsAggregateRegionDiffs(
      left_extended.supports,
      static_cast<double>(left_extended.num_transactions),
      right_extended.supports,
      static_cast<double>(right_extended.num_transactions), fg.function());
  return Status::kOk;
}

ShardRouter::Status ShardRouter::Summary(
    serve::FgChoice fg, std::vector<serve::SummaryEntry>* entries,
    serve::SummaryResult* result, std::string* error) {
  StreamPartialsBody body;
  body.fg = fg;
  const std::string payload = body.Encode();

  entries->clear();
  for (ShardChannel* shard : shards_) {
    PartialAggregateBody partial;
    if (!Exchange(shard, MessageType::kStreamPartials, payload,
                  MessageType::kPartialAggregate, &partial, error)) {
      return Status::kShardDown;
    }
    for (PartialAggregateBody::Entry& entry : partial.entries) {
      serve::SummaryEntry merged;
      merged.stream = std::move(entry.stream);
      merged.has_deviation = entry.has_deviation != 0;
      merged.deviation = entry.deviation;
      entries->push_back(std::move(merged));
    }
  }
  // The canonical fold (sorted-name order) shared with the single-node
  // summary handler: g_sum only reproduces the single-node bits when the
  // per-stream terms recombine in the same global order.
  *result = serve::AggregateSummary(entries, fg.aggregate());
  return Status::kOk;
}

bool ShardRouter::PingAll(std::string* error) {
  for (ShardChannel* shard : shards_) {
    PongBody body;
    if (!Exchange(shard, MessageType::kPing, std::string(),
                  MessageType::kPong, &body, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace focus::shard
