#include "data/block_txn_db.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <istream>
#include <ostream>

#include "common/thread_pool.h"

namespace focus::data {
namespace {

// Universe caps: hostile headers may claim anything.
constexpr int64_t kMaxItems = int64_t{1} << 20;
constexpr int64_t kMaxTransactions = int64_t{1} << 40;

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

void EncodeTransaction(std::span<const int32_t> items, std::string& out) {
  AppendVarint(out, items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (i == 0) {
      AppendVarint(out, static_cast<uint64_t>(items[0]));
    } else {
      AppendVarint(out, static_cast<uint64_t>(items[i] - items[i - 1]));
    }
  }
}

bool DecodeTransactionBlock(std::string_view payload, int32_t num_items,
                            TransactionDb* out, std::string* error) {
  size_t pos = 0;
  std::vector<int32_t> items;
  while (pos < payload.size()) {
    uint64_t count = 0;
    if (!ReadVarint(payload, &pos, &count)) {
      return Fail(error, "txn block: bad transaction length varint");
    }
    if (count > static_cast<uint64_t>(num_items)) {
      // Sorted-unique transactions cannot hold more distinct items than
      // the universe.
      return Fail(error, "txn block: transaction longer than item universe");
    }
    items.clear();
    int64_t item = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t word = 0;
      if (!ReadVarint(payload, &pos, &word)) {
        return Fail(error, "txn block: bad item varint");
      }
      if (i == 0) {
        item = static_cast<int64_t>(word);
      } else {
        // Strictly ascending: every gap is >= 1. A zero gap is a duplicate
        // item, which the canonical form forbids.
        if (word == 0) return Fail(error, "txn block: duplicate item");
        item += static_cast<int64_t>(word);
      }
      if (item >= num_items) return Fail(error, "txn block: item out of range");
      items.push_back(static_cast<int32_t>(item));
    }
    out->AddTransaction(items);
  }
  return true;
}

BlockTransactionDbWriter::BlockTransactionDbWriter(std::ostream& out,
                                                   int32_t num_items,
                                                   int64_t block_size)
    : writer_(out, kBlockKindTransactions),
      num_items_(num_items),
      block_size_(block_size) {
  FOCUS_CHECK_GE(num_items, 0);
  FOCUS_CHECK_LE(num_items, kMaxItems);
  FOCUS_CHECK_GT(block_size, 0);
}

void BlockTransactionDbWriter::Add(std::span<const int32_t> items) {
  FOCUS_CHECK(!finished_) << "Add after Finish";
  scratch_.assign(items.begin(), items.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  for (int32_t item : scratch_) {
    FOCUS_CHECK_GE(item, 0);
    FOCUS_CHECK_LT(item, num_items_);
  }
  encoded_.clear();
  EncodeTransaction(scratch_, encoded_);
  if (!buffer_.empty() &&
      buffer_.size() + encoded_.size() > static_cast<size_t>(block_size_)) {
    FlushBlock();
  }
  buffer_ += encoded_;
  ++buffer_transactions_;
  ++num_transactions_;
}

void BlockTransactionDbWriter::FlushBlock() {
  writer_.AppendBlock(buffer_, static_cast<uint64_t>(buffer_transactions_));
  buffer_.clear();
  buffer_transactions_ = 0;
}

void BlockTransactionDbWriter::Finish() {
  FOCUS_CHECK(!finished_) << "double Finish";
  finished_ = true;
  if (!buffer_.empty()) FlushBlock();
  const std::array<uint64_t, 2> meta = {
      static_cast<uint64_t>(num_items_),
      static_cast<uint64_t>(num_transactions_)};
  writer_.Finish(meta);
}

std::unique_ptr<BlockTransactionDb> BlockTransactionDb::Open(
    std::unique_ptr<std::istream> in, const BlockStoreOptions& options,
    std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<BlockTransactionDb> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  std::unique_ptr<BlockFileReader> reader =
      BlockFileReader::Open(std::move(in), kBlockKindTransactions, error);
  if (reader == nullptr) return nullptr;

  const std::span<const uint64_t> meta = reader->file_meta();
  if (meta.size() != 2) return fail("txn block file: bad file meta arity");
  if (meta[0] > static_cast<uint64_t>(kMaxItems)) {
    return fail("txn block file: item universe too large");
  }
  if (meta[1] >= static_cast<uint64_t>(kMaxTransactions)) {
    return fail("txn block file: too many transactions");
  }
  const auto num_items = static_cast<int32_t>(meta[0]);
  const auto num_transactions = static_cast<int64_t>(meta[1]);

  // One streaming validation pass: every checksum and every byte of every
  // payload is checked against the canonical codec, in bounded memory.
  // After this, fetch-time failures cannot happen on an unchanged file.
  std::vector<int64_t> block_first_txn;
  block_first_txn.reserve(reader->num_blocks() + 1);
  block_first_txn.push_back(0);
  int64_t total = 0;
  std::string payload;
  for (int64_t b = 0; b < reader->num_blocks(); ++b) {
    std::string why;
    if (!reader->ReadBlock(b, &payload, &why)) return fail(why);
    TransactionDb decoded(num_items);
    if (!DecodeTransactionBlock(payload, num_items, &decoded, &why)) {
      return fail(why);
    }
    if (static_cast<uint64_t>(decoded.num_transactions()) !=
        reader->block_meta(b)) {
      return fail("txn block file: block meta txn count mismatch");
    }
    total += decoded.num_transactions();
    block_first_txn.push_back(total);
  }
  if (total != num_transactions) {
    return fail("txn block file: transaction total mismatch");
  }

  return std::unique_ptr<BlockTransactionDb>(new BlockTransactionDb(
      std::move(reader), options, num_items, num_transactions,
      std::move(block_first_txn)));
}

std::unique_ptr<BlockTransactionDb> BlockTransactionDb::OpenFile(
    const std::string& path, const BlockStoreOptions& options,
    std::string* error) {
  std::unique_ptr<std::istream> in = OpenBlockFileForRead(path);
  if (in == nullptr) {
    if (error != nullptr) *error = "txn block file: cannot open " + path;
    return nullptr;
  }
  return Open(std::move(in), options, error);
}

BlockTransactionDb::~BlockTransactionDb() {
  std::vector<std::future<void>> pending;
  {
    common::MutexLock lock(&mu_);
    pending = std::move(pending_);
  }
  for (std::future<void>& f : pending) f.wait();
}

std::shared_ptr<const TransactionDb> BlockTransactionDb::FetchBlock(
    int64_t block) const {
  std::string payload;
  std::string why;
  FOCUS_CHECK(reader_->ReadBlock(block, &payload, &why)) << why;
  auto decoded = std::make_shared<TransactionDb>(num_items_);
  FOCUS_CHECK(DecodeTransactionBlock(payload, num_items_, decoded.get(), &why))
      << why;
  // Flat-array footprint of the decoded view; close enough for budgeting.
  int64_t total_items = 0;
  for (int64_t t = 0; t < decoded->num_transactions(); ++t) {
    total_items += static_cast<int64_t>(decoded->Transaction(t).size());
  }
  const int64_t bytes =
      total_items * 4 + (decoded->num_transactions() + 1) * 8 + 64;
  cache_.Put(block, decoded, bytes);
  return decoded;
}

std::shared_ptr<const TransactionDb> BlockTransactionDb::Block(
    int64_t block) const {
  FOCUS_CHECK_GE(block, 0);
  FOCUS_CHECK_LT(block, num_blocks());
  if (std::shared_ptr<const TransactionDb> cached = cache_.Get(block)) {
    return cached;
  }
  return FetchBlock(block);
}

void BlockTransactionDb::Prefetch(int64_t block) const {
  if (options_.pool == nullptr) return;
  FOCUS_CHECK_GE(block, 0);
  FOCUS_CHECK_LT(block, num_blocks());
  common::MutexLock lock(&mu_);
  // Reap finished prefetches so the pending list stays small on long scans.
  std::erase_if(pending_, [](std::future<void>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  if (in_flight_.count(block) != 0) return;
  in_flight_.insert(block);
  pending_.push_back(options_.pool->Submit([this, block] {
    if (cache_.Get(block) == nullptr) FetchBlock(block);
    common::MutexLock inner(&mu_);
    in_flight_.erase(block);
  }));
}

void BlockTransactionDb::SaveTo(std::ostream& out) const {
  BlockFileWriter writer(out, kBlockKindTransactions);
  std::string payload;
  ForEachBlock([&](int64_t, const TransactionDb& block) {
    payload.clear();
    for (int64_t t = 0; t < block.num_transactions(); ++t) {
      EncodeTransaction(block.Transaction(t), payload);
    }
    writer.AppendBlock(payload,
                       static_cast<uint64_t>(block.num_transactions()));
  });
  const std::array<uint64_t, 2> meta = {
      static_cast<uint64_t>(num_items_),
      static_cast<uint64_t>(num_transactions_)};
  writer.Finish(meta);
}

}  // namespace focus::data
