#ifndef FOCUS_SHARD_WIRE_H_
#define FOCUS_SHARD_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "itemsets/itemset.h"
#include "serve/fg_choice.h"
#include "serve/monitor_service.h"

namespace focus::shard {

// The shard wire protocol: length-prefixed binary frames between the HTTP
// front end (ShardRouter) and shard worker processes (ShardWorker).
//
//   frame := [u32 payload_len][u8 type][u32 request_id][payload bytes]
//
// payload_len counts only the payload (not the 9-byte header). All
// integers are little-endian fixed width; doubles travel as their IEEE-754
// bit pattern (bit-exact — the scatter-gather merges below depend on it);
// strings and lists are u32-length-prefixed. A frame breaching
// WireLimits::max_payload_bytes is a terminal decode error, mirroring the
// HttpParser contract: never an allocation proportional to untrusted input
// beyond the limit.

// Hard limits on the wire format.
struct WireLimits {
  size_t max_payload_bytes = 16u << 20;  // 16 MiB
};

enum class MessageType : uint8_t {
  kPing = 1,
  kPong = 2,
  kSubmitSnapshot = 3,   // stream ingest -> owning shard
  kSubmitResult = 4,
  kDeviationQuery = 5,   // per-stream deviation -> owning shard
  kDeviationResult = 6,
  kCompare = 7,          // both hashes on one shard: full local answer
  kCompareResult = 8,
  kModelRegions = 9,     // Γ(M) of a cached snapshot, for cross-shard GCR
  kModelRegionsResult = 10,
  kExtendRegions = 11,   // measure extension over caller-chosen regions
  kExtendRegionsResult = 12,
  kStreamPartials = 13,  // per-shard partial aggregates (cross-stream)
  kPartialAggregate = 14,
  kError = 15,
};

// True for the message-type byte values the decoder accepts.
bool ValidMessageType(uint8_t type);

struct Frame {
  MessageType type = MessageType::kError;
  uint32_t request_id = 0;
  std::string payload;
};

// Serializes header + payload; the inverse of WireDecoder.
std::string EncodeFrame(const Frame& frame);

// A kError frame whose ErrorBody carries `message`.
Frame ErrorFrame(uint32_t request_id, std::string message);

// Incremental frame decoder for one connection, in the style of
// net::HttpParser: feed bytes as they arrive, consume at most one frame
// per Consume/Reset cycle, buffer any surplus for the next cycle. Errors
// (oversized payload, unknown type) are terminal for the connection.
class WireDecoder {
 public:
  enum class Status { kNeedMore, kComplete, kError };

  explicit WireDecoder(const WireLimits& limits = WireLimits());

  // Appends bytes and advances the state machine.
  Status Consume(std::string_view bytes);

  // After kComplete: discards the finished frame and immediately decodes
  // any buffered follow-up. Undefined after kError.
  Status Reset();

  // Valid while the last status was kComplete.
  const Frame& frame() const { return frame_; }

  // Valid while the last status was kError.
  const std::string& error() const { return error_; }

  // True when no bytes of a next frame have been received.
  bool idle() const { return buffer_.empty(); }

  const WireLimits& limits() const { return limits_; }

 private:
  Status Fail(std::string reason);

  WireLimits limits_;
  std::string buffer_;  // unconsumed bytes
  bool errored_ = false;
  Frame frame_;
  std::string error_;
};

// Append-only payload builder. All Put* are bounds-unchecked (the writer
// trusts its caller); the corresponding PayloadReader checks everything.
class PayloadWriter {
 public:
  void PutU8(uint8_t value);
  void PutU16(uint16_t value);
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value);
  void PutDouble(double value);  // IEEE-754 bits, exact round trip
  void PutString(std::string_view text);
  void PutItemset(const lits::Itemset& itemset);
  void PutRegions(const std::vector<lits::Itemset>& regions);
  void PutFg(serve::FgChoice fg);  // f code byte, then g code byte

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// Bounds-checked payload reader over a borrowed buffer. Every Get*
// returns false once the payload is exhausted or malformed; `ok()` stays
// false from the first failure on. List reads bound their allocations by
// the bytes actually present, so a hostile length prefix cannot force a
// large allocation.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  bool GetU8(uint8_t* value);
  bool GetU16(uint16_t* value);
  bool GetU32(uint32_t* value);
  bool GetU64(uint64_t* value);
  bool GetI64(int64_t* value);
  bool GetDouble(double* value);
  bool GetString(std::string* text);
  bool GetItemset(lits::Itemset* itemset);
  bool GetRegions(std::vector<lits::Itemset>* regions);
  bool GetFg(serve::FgChoice* fg);  // fails on a code FgChoice does not name

  bool ok() const { return ok_; }
  // True when the whole payload was consumed without error.
  bool AtEnd() const { return ok_ && offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  bool Take(size_t n, const char** out);

  std::string_view bytes_;
  size_t offset_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Message bodies. Each struct encodes to / decodes from a frame payload;
// Decode returns false on any malformed or truncated payload.

struct PongBody {
  uint32_t shard_index = 0;
  int64_t processed = 0;
  uint8_t draining = 0;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct SubmitSnapshotBody {
  std::string stream;
  std::string source;
  std::string snapshot;  // focus-txns-v1 text, parsed shard-side

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct SubmitResultBody {
  uint16_t status = 0;  // HTTP-style: 202 | 400 | 429 | 503
  int64_t sequence = -1;
  uint64_t content_hash = 0;
  std::string error;  // non-empty for 4xx/5xx

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct DeviationQueryBody {
  std::string stream;
  serve::FgChoice fg;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct DeviationResultBody {
  uint8_t found = 0;  // 0: unknown stream on this shard
  serve::StreamStatus status;
  uint8_t has_deviation = 0;
  double deviation = 0.0;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

// Outcome of a single-shard compare attempt.
enum class CompareOutcome : uint8_t {
  kNeither = 0,
  kLeftOnly = 1,
  kRightOnly = 2,
  kBoth = 3,  // deviation is the full local answer
};

struct CompareBody {
  uint64_t left_hash = 0;
  uint64_t right_hash = 0;
  serve::FgChoice fg;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct CompareResultBody {
  CompareOutcome outcome = CompareOutcome::kNeither;
  double deviation = 0.0;  // valid when outcome == kBoth

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct ModelRegionsBody {
  uint64_t content_hash = 0;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct ModelRegionsResultBody {
  uint8_t found = 0;
  int64_t num_transactions = 0;
  std::vector<lits::Itemset> regions;  // Γ(M), sorted

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct ExtendRegionsBody {
  uint64_t content_hash = 0;
  std::vector<lits::Itemset> regions;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct ExtendRegionsResultBody {
  uint8_t found = 0;
  int64_t num_transactions = 0;
  std::vector<double> supports;  // one per requested region, same order

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct StreamPartialsBody {
  serve::FgChoice fg;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

// One shard's contribution to a cross-stream aggregate: the per-stream
// deviations it owns. The router folds every shard's terms in canonical
// (sorted-name) order, since floating-point addition is not associative —
// see docs/SHARDING.md.
struct PartialAggregateBody {
  struct Entry {
    std::string stream;
    uint8_t has_deviation = 0;
    double deviation = 0.0;
  };
  std::vector<Entry> entries;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct ErrorBody {
  std::string message;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_WIRE_H_
