#ifndef FOCUS_SERVE_MODEL_CACHE_H_
#define FOCUS_SERVE_MODEL_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/transaction_db.h"
#include "data/txn_source.h"
#include "itemsets/apriori.h"
#include "serve/fg_choice.h"
#include "serve/metrics.h"

namespace focus::serve {

// 64-bit FNV-1a over the full content of a transaction database (item
// universe, transaction boundaries, items). Equal databases hash equally;
// the cache treats a hash match as identity, which is fine for its
// purpose (a collision merely serves a stale model for one entry, with
// probability ~2^-64 per pair). A block-backed database streams block by
// block and hashes equal to its in-memory materialization (same mixing
// sequence), so --ooc and flat ingest share cache entries for identical
// snapshots.
uint64_t TransactionDbContentHash(data::TxnSourceRef source);

struct ModelCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

// δ_(f,g) of `m1` against `m2` under every FgChoice, by FgChoice::index().
// Each model must have been mined from the source beside it. Both models
// are extended to their GCR once, by scanning each source (LitsGcr, then
// LitsExtendModel twice), and all four folds share those supports, so
// each result equals core::LitsDeviation under that choice bit for bit.
using FgDeviations = std::array<double, FgChoice::kCount>;
FgDeviations LitsDeviationsByFg(const lits::LitsModel& m1,
                                data::TxnSourceRef s1,
                                const lits::LitsModel& m2,
                                data::TxnSourceRef s2);

// What one cache miss materializes from a snapshot: the mined model and,
// for an in-memory snapshot, its transactions, which a read route scans
// to extend the model to a GCR (§3.3.1): QueryDeviation, /v1/compare and
// the sharded extend-regions call. `transactions` is null for a
// block-backed snapshot, whose mining and stage-2 counting stream its
// blocks: the entry holds only the model, and the read routes answer as
// for a snapshot they do not hold: compare and extend-regions as for an
// unknown hash, a stream read with no deviation. Only focus_served
// --spool --ooc makes block-backed snapshots.
struct MinedSnapshot {
  std::shared_ptr<const lits::LitsModel> model;
  std::shared_ptr<const data::TransactionDb> transactions;
};

// LRU cache of mined lits-models keyed by snapshot content hash, so a
// snapshot that re-enters the spool (retries, fan-out to several streams,
// repeated deviations against rotating references) skips the Apriori
// pass. Beside each entry it memoizes the compares (POST /v1/compare)
// that entry is the left side of. Thread-safe; mining and compares happen
// OUTSIDE the lock, so two concurrent misses on the same key may both
// mine — the second insert wins and the duplicate work is bounded by one
// mining pass.
class ModelCache {
 public:
  // When `metrics` is non-null (it must outlive the cache and every entry
  // it hands out), every hit, miss, and eviction also bumps the registry
  // counters `cache_hits` / `cache_misses` / `cache_evictions`, and every
  // Compare bumps `read_memo_hits` or `read_memo_misses`, so cache
  // behavior is visible on /metrics and in the --metrics JSONL log without
  // polling stats().
  ModelCache(size_t capacity, const lits::AprioriOptions& options,
             MetricsRegistry* metrics = nullptr);

  // Returns the cache entry of `source` under the cache's mining options,
  // mining on a miss. The entry is keyed by `content_hash`, which must be
  // TransactionDbContentHash(source): the caller hashes once
  // (MonitorService::Ingest does, for its 202 reply) and the cache does
  // not hash again. `cache_hit`, when given, reports whether mining was
  // skipped. A miss mines by scanning; an in-memory snapshot's entry keeps
  // one copy of its transactions for the read routes. A block-backed
  // snapshot streams its blocks through every mining pass on a miss and
  // its entry keeps no transactions, so a miss allocates nothing the size
  // of the snapshot; its model is bit-identical to the one an in-memory
  // copy would produce.
  MinedSnapshot GetOrMine(data::TxnSourceRef source, uint64_t content_hash,
                          bool* cache_hit = nullptr) EXCLUDES(mutex_);

  // Full cached entry (model + transactions) for a precomputed hash — what
  // POST /v1/compare resolves ingested content hashes through, so a hit
  // never mines again. Promotes on hit; nullopt on miss (the snapshot was
  // evicted or never mined).
  std::optional<MinedSnapshot> LookupMined(uint64_t content_hash)
      EXCLUDES(mutex_);

  // δ_(f,g) of the snapshot `left` against `right`, which LookupMined
  // returned for `left_hash` and `right_hash` and which both hold
  // transactions. The first call for the pair computes it under every
  // FgChoice at once (LitsDeviationsByFg; a registry `read_memo_misses`)
  // and stores all four, but only while both hashes are still cached; a
  // later call under any `fg` returns a stored double (a
  // `read_memo_hits`). Evicting a hash drops every result it is a side
  // of, so at most FgChoice::kCount x capacity² results are held.
  double Compare(uint64_t left_hash, const MinedSnapshot& left,
                 uint64_t right_hash, const MinedSnapshot& right, FgChoice fg)
      EXCLUDES(mutex_);

  ModelCacheStats stats() const EXCLUDES(mutex_);
  size_t size() const EXCLUDES(mutex_);
  size_t capacity() const { return capacity_; }
  const lits::AprioriOptions& options() const { return options_; }

 private:
  void InsertLocked(uint64_t key, MinedSnapshot mined) REQUIRES(mutex_);
  void CountHitLocked() REQUIRES(mutex_);
  void CountMissLocked() REQUIRES(mutex_);

  const size_t capacity_;
  const lits::AprioriOptions options_;
  // Registry counters (stable addresses) or null; set at construction.
  Counter* const hits_counter_;
  Counter* const misses_counter_;
  Counter* const evictions_counter_;
  Counter* const read_memo_hits_;
  Counter* const read_memo_misses_;
  mutable common::Mutex mutex_;
  // lru_ front = most recently used.
  std::list<uint64_t> lru_ GUARDED_BY(mutex_);
  struct Entry {
    MinedSnapshot mined;
    std::list<uint64_t>::iterator position;
    // Compares against each cached right-hand hash.
    std::unordered_map<uint64_t, FgDeviations> compares;
  };
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mutex_);
  ModelCacheStats stats_ GUARDED_BY(mutex_);
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_MODEL_CACHE_H_
