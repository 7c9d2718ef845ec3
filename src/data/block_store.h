#ifndef FOCUS_DATA_BLOCK_STORE_H_
#define FOCUS_DATA_BLOCK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace focus::common {
class ThreadPool;
}  // namespace focus::common

namespace focus::data {

// ---------------------------------------------------------------------------
// Block file substrate: the on-disk layer under BlockTransactionDb (the
// tests and fuzzers also write blocks of a test-only kind).
// docs/OUT_OF_CORE.md has the full format table; the shape is
//
//   [FileHeader 16B][payload blocks, back to back][Directory][Footer 16B]
//
// with per-block sizes, CRC-32 checksums, and a 64-bit meta word carried in
// the trailing directory, and a footer that locates (and checksums) the
// directory. Writers are append-only — no seek-back patching — so the same
// codec streams to an std::ofstream and to the std::ostringstream the tests
// and fuzzers use. Loaders accept ONLY the canonical form writers emit
// (minimal varints, exact sizes, zero padding, matching checksums), which is
// what makes save -> load -> save a byte-level fixed point —
// fuzz/fuzz_block_store.cc pins that property against hostile images.
// ---------------------------------------------------------------------------

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `seed` chains
// incremental computation: Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

// Canonical LEB128 varints: little-endian base-128, minimal length (a
// multi-byte encoding whose final group is zero is rejected on read).
void AppendVarint(std::string& out, uint64_t value);
// Reads one varint at `*pos`, advancing it. Returns false on truncation,
// overflow, or a non-minimal encoding.
bool ReadVarint(std::string_view bytes, size_t* pos, uint64_t* value);

// Payload kinds (FileHeader.kind). Loaders check the kind byte before
// touching any payload, so a file of another kind fails with a clean error
// instead of a misdecode. Kind 2 is retired; no writer emits it.
inline constexpr uint32_t kBlockKindTransactions = 1;
inline constexpr uint32_t kBlockKindScratch = 3;

// Tuning knobs of the block-backed store. docs/OUT_OF_CORE.md discusses
// how they bound peak RSS.
struct BlockStoreOptions {
  // Nominal payload bytes per block: a block is closed once appending the
  // next record would push it past this (a single record larger than the
  // block size gets a block of its own).
  int64_t block_size = int64_t{1} << 20;
  // Decoded-block cache budget. Eviction is LRU; blocks a caller still
  // holds a shared_ptr to stay alive regardless (pinning), the cache just
  // stops accounting for them.
  int64_t cache_budget_bytes = int64_t{32} << 20;
  // Blocks scheduled ahead of a sequential scan (double buffering at 1;
  // the default keeps one decoding while one is consumed).
  int readahead_blocks = 2;
  // Pool that runs the async read-ahead. Null disables read-ahead; scans
  // then decode inline.
  common::ThreadPool* pool = nullptr;
};

// Append-only writer for the container formats above. Not thread-safe; one
// writer per stream.
class BlockFileWriter {
 public:
  // `out` must be a binary stream. Writes the file header immediately.
  BlockFileWriter(std::ostream& out, uint32_t kind);

  // Appends one payload block (non-empty) with its 64-bit meta word.
  void AppendBlock(std::string_view payload, uint64_t meta);

  // Writes the directory + footer. `file_meta` is the container-level meta
  // vector (e.g. {num_items, num_transactions}). No further appends.
  void Finish(std::span<const uint64_t> file_meta);

  int64_t num_blocks() const { return static_cast<int64_t>(sizes_.size()); }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  std::ostream& out_;
  std::vector<uint64_t> sizes_;
  std::vector<uint64_t> metas_;
  std::vector<uint32_t> crcs_;
  int64_t bytes_written_ = 0;
  bool finished_ = false;
};

// Structure-validated view of a block file: owns the stream, holds the
// decoded directory, and serves raw payloads by block index. Thread-safe
// reads (the underlying stream is seek+read under a mutex). Payload CRCs
// are verified on every read.
class BlockFileReader {
 public:
  // Validates header, directory, and footer (sizes, magics, checksums,
  // byte-exact file length). Null + `*error` on any deviation. Does NOT
  // read payload blocks; container loaders stream those once and validate
  // their own codec.
  static std::unique_ptr<BlockFileReader> Open(
      std::unique_ptr<std::istream> in, uint32_t expected_kind,
      std::string* error);

  uint32_t kind() const { return kind_; }
  std::span<const uint64_t> file_meta() const { return file_meta_; }
  int64_t num_blocks() const { return static_cast<int64_t>(sizes_.size()); }
  int64_t block_size_bytes(int64_t block) const {
    return static_cast<int64_t>(sizes_[block]);
  }
  // Sum of all payload sizes — the on-disk footprint minus framing, used
  // by spill heuristics to estimate decoded working sets.
  int64_t total_payload_bytes() const {
    return offsets_.empty() ? 0 : offsets_.back() - offsets_.front();
  }
  uint64_t block_meta(int64_t block) const { return metas_[block]; }

  // Reads block `block` into `payload` and verifies its CRC. False +
  // `*error` on IO failure or checksum mismatch.
  bool ReadBlock(int64_t block, std::string* payload, std::string* error);

 private:
  BlockFileReader() = default;

  std::unique_ptr<std::istream> in_;
  common::Mutex io_mu_;  // serializes seek+read pairs on in_
  uint32_t kind_ = 0;
  std::vector<uint64_t> file_meta_;
  std::vector<uint64_t> sizes_;
  std::vector<uint64_t> metas_;
  std::vector<uint32_t> crcs_;
  std::vector<int64_t> offsets_;  // absolute payload offsets, sizes_+1 long
};

// Bounded LRU cache of decoded blocks, keyed by block index. Thread-safe.
// Eviction only drops the cache's reference: callers holding the returned
// shared_ptr pin the block for as long as they need it.
template <typename T>
class BlockCache {
 public:
  explicit BlockCache(int64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  std::shared_ptr<const T> Get(int64_t block) {
    common::MutexLock lock(&mu_);
    auto it = entries_.find(block);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++hits_;
    return it->second.value;
  }

  void Put(int64_t block, std::shared_ptr<const T> value, int64_t bytes) {
    common::MutexLock lock(&mu_);
    auto it = entries_.find(block);
    if (it != entries_.end()) {
      // A concurrent fetch already published this block; keep the resident
      // copy so existing pins and the cache agree on one object.
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    lru_.push_front(block);
    entries_[block] = Entry{std::move(value), bytes, lru_.begin()};
    used_bytes_ += bytes;
    while (used_bytes_ > budget_bytes_ && lru_.size() > 1) {
      const int64_t victim = lru_.back();
      lru_.pop_back();
      auto victim_it = entries_.find(victim);
      used_bytes_ -= victim_it->second.bytes;
      entries_.erase(victim_it);
      ++evictions_;
    }
  }

  int64_t hits() const {
    common::MutexLock lock(&mu_);
    return hits_;
  }
  int64_t misses() const {
    common::MutexLock lock(&mu_);
    return misses_;
  }
  int64_t evictions() const {
    common::MutexLock lock(&mu_);
    return evictions_;
  }
  int64_t used_bytes() const {
    common::MutexLock lock(&mu_);
    return used_bytes_;
  }

 private:
  struct Entry {
    std::shared_ptr<const T> value;
    int64_t bytes = 0;
    std::list<int64_t>::iterator lru_pos;
  };

  mutable common::Mutex mu_;
  const int64_t budget_bytes_;
  std::unordered_map<int64_t, Entry> entries_ GUARDED_BY(mu_);
  std::list<int64_t> lru_ GUARDED_BY(mu_);  // front = most recent
  int64_t used_bytes_ GUARDED_BY(mu_) = 0;
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
  int64_t evictions_ GUARDED_BY(mu_) = 0;
};

// Opens `path` as a binary stream for the writers above. Null on failure.
std::unique_ptr<std::ostream> OpenBlockFileForWrite(const std::string& path);
// Opens `path` as a binary stream for BlockFileReader. Null on failure.
std::unique_ptr<std::istream> OpenBlockFileForRead(const std::string& path);

}  // namespace focus::data

#endif  // FOCUS_DATA_BLOCK_STORE_H_
