#include "serve/model_cache.h"

#include <memory>
#include <mutex>
#include <span>

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

LazyVerticalIndex::LazyVerticalIndex(const data::TransactionDb& transactions,
                                     Counter* builds)
    : transactions_(std::make_unique<const data::TransactionDb>(transactions)),
      builds_(builds) {}

const data::VerticalIndex& LazyVerticalIndex::Get() const {
  std::call_once(built_, [this] {
    index_.emplace(*transactions_);
    transactions_.reset();
    if (builds_ != nullptr) builds_->Increment();
  });
  return *index_;
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
      index_builds_counter_(metrics != nullptr
                                ? &metrics->GetCounter("index_builds")
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
      if (memo != it->second.compares.end() &&
          memo->second[fg.index()].has_value()) {
        if (read_memo_hits_ != nullptr) read_memo_hits_->Increment();
        return *memo->second[fg.index()];
      }
    }
  }
  // The first compare of a snapshot builds its index.
  const double deviation =
      core::LitsDeviation(*left.model, &left.index->Get(), *right.model,
                          &right.index->Get(), fg.function());
  {
    common::MutexLock lock(&mutex_);
    const auto it = entries_.find(left_hash);
    if (it != entries_.end() && entries_.contains(right_hash)) {
      it->second.compares[right_hash][fg.index()] = deviation;
    }
  }
  if (read_memo_misses_ != nullptr) read_memo_misses_->Increment();
  return deviation;
}

MinedSnapshot ModelCache::GetOrMineIndexed(data::TxnSourceRef source,
                                           uint64_t content_hash,
                                           bool* cache_hit) {
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
  // block by block. An in-memory snapshot's index waits for the first
  // read that extends its model; a block-backed one gets none.
  MinedSnapshot mined;
  mined.model =
      std::make_shared<const lits::LitsModel>(lits::Apriori(source, options_));
  if (source.memory() != nullptr) {
    mined.index = std::make_shared<const LazyVerticalIndex>(
        *source.memory(), index_builds_counter_);
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
