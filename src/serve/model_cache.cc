#include "serve/model_cache.h"

#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "core/lits_deviation.h"

namespace focus::serve {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

uint64_t TransactionDbContentHash(data::TxnSourceRef source) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, static_cast<uint64_t>(source.num_items()));
  hash = FnvMix(hash, static_cast<uint64_t>(source.num_transactions()));
  source.ForEachTransaction(
      [&hash](int64_t /*tid*/, std::span<const int32_t> txn) {
        hash = FnvMix(hash, static_cast<uint64_t>(txn.size()));
        for (int32_t item : txn) {
          hash =
              FnvMix(hash, static_cast<uint64_t>(static_cast<uint32_t>(item)));
        }
      });
  return hash;
}

FgDeviations LitsDeviationsByFg(const lits::LitsModel& m1,
                                data::TxnSourceRef s1,
                                const lits::LitsModel& m2,
                                data::TxnSourceRef s2) {
  const std::vector<lits::Itemset> gcr = core::LitsGcr(m1, m2);
  const std::vector<double> supports1 = core::LitsExtendModel(gcr, m1, s1);
  const std::vector<double> supports2 = core::LitsExtendModel(gcr, m2, s2);
  const double n1 = static_cast<double>(s1.num_transactions());
  const double n2 = static_cast<double>(s2.num_transactions());
  FgDeviations deviations{};
  for (const FgChoice::F f : {FgChoice::F::kAbs, FgChoice::F::kScaled}) {
    for (const FgChoice::G g : {FgChoice::G::kSum, FgChoice::G::kMax}) {
      const FgChoice fg(f, g);
      deviations[fg.index()] = core::LitsAggregateRegionDiffs(
          supports1, n1, supports2, n2, fg.function());
    }
  }
  return deviations;
}

ModelCache::ModelCache(size_t capacity, const lits::AprioriOptions& options,
                       MetricsRegistry* metrics)
    : capacity_(capacity),
      options_(options),
      hits_counter_(metrics != nullptr ? &metrics->GetCounter("cache_hits")
                                       : nullptr),
      misses_counter_(metrics != nullptr
                          ? &metrics->GetCounter("cache_misses")
                          : nullptr),
      evictions_counter_(metrics != nullptr
                             ? &metrics->GetCounter("cache_evictions")
                             : nullptr),
      read_memo_hits_(metrics != nullptr
                          ? &metrics->GetCounter("read_memo_hits")
                          : nullptr),
      read_memo_misses_(metrics != nullptr
                            ? &metrics->GetCounter("read_memo_misses")
                            : nullptr) {
  FOCUS_CHECK_GE(capacity, 1u);
}

void ModelCache::CountHitLocked() {
  ++stats_.hits;
  if (hits_counter_ != nullptr) hits_counter_->Increment();
}

void ModelCache::CountMissLocked() {
  ++stats_.misses;
  if (misses_counter_ != nullptr) misses_counter_->Increment();
}

std::optional<MinedSnapshot> ModelCache::LookupMined(uint64_t content_hash) {
  common::MutexLock lock(&mutex_);
  const auto it = entries_.find(content_hash);
  if (it == entries_.end()) {
    CountMissLocked();
    return std::nullopt;
  }
  CountHitLocked();
  lru_.splice(lru_.begin(), lru_, it->second.position);
  return it->second.mined;
}

double ModelCache::Compare(uint64_t left_hash, const MinedSnapshot& left,
                           uint64_t right_hash, const MinedSnapshot& right,
                           FgChoice fg) {
  {
    common::MutexLock lock(&mutex_);
    const auto it = entries_.find(left_hash);
    if (it != entries_.end()) {
      const auto memo = it->second.compares.find(right_hash);
      if (memo != it->second.compares.end()) {
        if (read_memo_hits_ != nullptr) read_memo_hits_->Increment();
        return memo->second[fg.index()];
      }
    }
  }
  const FgDeviations deviations = LitsDeviationsByFg(
      *left.model, *left.transactions, *right.model, *right.transactions);
  {
    common::MutexLock lock(&mutex_);
    const auto it = entries_.find(left_hash);
    if (it != entries_.end() && entries_.contains(right_hash)) {
      it->second.compares[right_hash] = deviations;
    }
  }
  if (read_memo_misses_ != nullptr) read_memo_misses_->Increment();
  return deviations[fg.index()];
}

MinedSnapshot ModelCache::GetOrMine(data::TxnSourceRef source,
                                    uint64_t content_hash, bool* cache_hit) {
  {
    common::MutexLock lock(&mutex_);
    const auto it = entries_.find(content_hash);
    if (it != entries_.end()) {
      CountHitLocked();
      lru_.splice(lru_.begin(), lru_, it->second.position);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second.mined;
    }
    CountMissLocked();
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Mine outside the lock so concurrent misses on different snapshots
  // proceed in parallel. Mining scans the snapshot, a block-backed one
  // block by block.
  MinedSnapshot mined;
  mined.model =
      std::make_shared<const lits::LitsModel>(lits::Apriori(source, options_));
  if (source.memory() != nullptr) {
    mined.transactions =
        std::make_shared<const data::TransactionDb>(*source.memory());
  }
  common::MutexLock lock(&mutex_);
  InsertLocked(content_hash, mined);
  return mined;
}

void ModelCache::InsertLocked(uint64_t key, MinedSnapshot mined) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent miss already inserted this key; keep the newer entry
    // and refresh recency.
    it->second.mined = std::move(mined);
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return;
  }
  if (entries_.size() >= capacity_) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    for (auto& [hash, entry] : entries_) entry.compares.erase(victim);
    ++stats_.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->Increment();
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(mined), lru_.begin(), {}};
}

ModelCacheStats ModelCache::stats() const {
  common::MutexLock lock(&mutex_);
  return stats_;
}

size_t ModelCache::size() const {
  common::MutexLock lock(&mutex_);
  return entries_.size();
}

}  // namespace focus::serve
