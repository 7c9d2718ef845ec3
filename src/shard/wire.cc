#include "shard/wire.h"

#include <bit>
#include <cstring>
#include <optional>

namespace focus::shard {
namespace {

// Header layout: [u32 payload_len][u8 type][u32 request_id].
constexpr size_t kHeaderBytes = 9;

void AppendLe32(std::string* out, uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

void AppendLe64(std::string* out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

uint32_t ReadLe32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[i]);
  }
  return value;
}

uint64_t ReadLe64(const char* bytes) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(bytes[i]);
  }
  return value;
}

void PutStreamStatus(PayloadWriter* out, const serve::StreamStatus& status) {
  out->PutI64(status.processed);
  out->PutU8(status.has_snapshot ? 1 : 0);
  out->PutI64(status.sequence);
  out->PutI64(status.num_transactions);
  out->PutDouble(status.delta_star);
  out->PutU8(status.screened_out ? 1 : 0);
  out->PutDouble(status.deviation);
  out->PutDouble(status.significance_percent);
  out->PutU8(status.alert ? 1 : 0);
  out->PutDouble(status.cusum);
  out->PutU8(status.change_point ? 1 : 0);
  out->PutU8(status.baseline_ready ? 1 : 0);
  out->PutDouble(status.baseline_mean);
  out->PutDouble(status.baseline_sd);
}

bool GetStreamStatus(PayloadReader* in, serve::StreamStatus* status) {
  uint8_t has_snapshot = 0, screened_out = 0, alert = 0, change_point = 0,
          baseline_ready = 0;
  const bool ok = in->GetI64(&status->processed) && in->GetU8(&has_snapshot) &&
                  in->GetI64(&status->sequence) &&
                  in->GetI64(&status->num_transactions) &&
                  in->GetDouble(&status->delta_star) &&
                  in->GetU8(&screened_out) && in->GetDouble(&status->deviation) &&
                  in->GetDouble(&status->significance_percent) &&
                  in->GetU8(&alert) && in->GetDouble(&status->cusum) &&
                  in->GetU8(&change_point) && in->GetU8(&baseline_ready) &&
                  in->GetDouble(&status->baseline_mean) &&
                  in->GetDouble(&status->baseline_sd);
  if (!ok) return false;
  status->has_snapshot = has_snapshot != 0;
  status->screened_out = screened_out != 0;
  status->alert = alert != 0;
  status->change_point = change_point != 0;
  status->baseline_ready = baseline_ready != 0;
  return true;
}

}  // namespace

bool ValidMessageType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kPing) &&
         type <= static_cast<uint8_t>(MessageType::kError);
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size());
  AppendLe32(&out, static_cast<uint32_t>(frame.payload.size()));
  out.push_back(static_cast<char>(frame.type));
  AppendLe32(&out, frame.request_id);
  out += frame.payload;
  return out;
}

Frame ErrorFrame(uint32_t request_id, std::string message) {
  ErrorBody body;
  body.message = std::move(message);
  return {MessageType::kError, request_id, body.Encode()};
}

WireDecoder::WireDecoder(const WireLimits& limits) : limits_(limits) {}

WireDecoder::Status WireDecoder::Fail(std::string reason) {
  errored_ = true;
  error_ = std::move(reason);
  return Status::kError;
}

WireDecoder::Status WireDecoder::Consume(std::string_view bytes) {
  if (errored_) return Status::kError;
  buffer_.append(bytes.data(), bytes.size());
  return Reset();
}

WireDecoder::Status WireDecoder::Reset() {
  if (errored_) return Status::kError;
  if (buffer_.size() < kHeaderBytes) {
    // The length prefix alone can already breach the limit check below
    // only once all four bytes are in; a partial header is always fine.
    return Status::kNeedMore;
  }
  const uint32_t payload_len = ReadLe32(buffer_.data());
  if (payload_len > limits_.max_payload_bytes) {
    return Fail("frame payload of " + std::to_string(payload_len) +
                " bytes exceeds the " +
                std::to_string(limits_.max_payload_bytes) + " byte limit");
  }
  const uint8_t type = static_cast<uint8_t>(buffer_[4]);
  if (!ValidMessageType(type)) {
    return Fail("unknown message type " + std::to_string(type));
  }
  if (buffer_.size() < kHeaderBytes + payload_len) return Status::kNeedMore;
  frame_.type = static_cast<MessageType>(type);
  frame_.request_id = ReadLe32(buffer_.data() + 5);
  frame_.payload.assign(buffer_, kHeaderBytes, payload_len);
  buffer_.erase(0, kHeaderBytes + payload_len);
  return Status::kComplete;
}

// ---------------------------------------------------------------------------
// PayloadWriter / PayloadReader.

void PayloadWriter::PutU8(uint8_t value) {
  bytes_.push_back(static_cast<char>(value));
}

void PayloadWriter::PutU16(uint16_t value) {
  bytes_.push_back(static_cast<char>(value & 0xFF));
  bytes_.push_back(static_cast<char>(value >> 8));
}

void PayloadWriter::PutU32(uint32_t value) { AppendLe32(&bytes_, value); }

void PayloadWriter::PutU64(uint64_t value) { AppendLe64(&bytes_, value); }

void PayloadWriter::PutI64(int64_t value) {
  AppendLe64(&bytes_, static_cast<uint64_t>(value));
}

void PayloadWriter::PutDouble(double value) {
  AppendLe64(&bytes_, std::bit_cast<uint64_t>(value));
}

void PayloadWriter::PutString(std::string_view text) {
  AppendLe32(&bytes_, static_cast<uint32_t>(text.size()));
  bytes_.append(text.data(), text.size());
}

void PayloadWriter::PutItemset(const lits::Itemset& itemset) {
  AppendLe32(&bytes_, static_cast<uint32_t>(itemset.items().size()));
  for (int32_t item : itemset.items()) {
    AppendLe32(&bytes_, static_cast<uint32_t>(item));
  }
}

void PayloadWriter::PutRegions(const std::vector<lits::Itemset>& regions) {
  AppendLe32(&bytes_, static_cast<uint32_t>(regions.size()));
  for (const lits::Itemset& region : regions) PutItemset(region);
}

void PayloadWriter::PutFg(serve::FgChoice fg) {
  PutU8(fg.f_code());
  PutU8(fg.g_code());
}

bool PayloadReader::Take(size_t n, const char** out) {
  if (!ok_ || bytes_.size() - offset_ < n) {
    ok_ = false;
    return false;
  }
  *out = bytes_.data() + offset_;
  offset_ += n;
  return true;
}

bool PayloadReader::GetU8(uint8_t* value) {
  const char* at;
  if (!Take(1, &at)) return false;
  *value = static_cast<uint8_t>(*at);
  return true;
}

bool PayloadReader::GetU16(uint16_t* value) {
  const char* at;
  if (!Take(2, &at)) return false;
  *value = static_cast<uint16_t>(static_cast<uint8_t>(at[0]) |
                                 (static_cast<uint8_t>(at[1]) << 8));
  return true;
}

bool PayloadReader::GetU32(uint32_t* value) {
  const char* at;
  if (!Take(4, &at)) return false;
  *value = ReadLe32(at);
  return true;
}

bool PayloadReader::GetU64(uint64_t* value) {
  const char* at;
  if (!Take(8, &at)) return false;
  *value = ReadLe64(at);
  return true;
}

bool PayloadReader::GetI64(int64_t* value) {
  uint64_t raw;
  if (!GetU64(&raw)) return false;
  *value = static_cast<int64_t>(raw);
  return true;
}

bool PayloadReader::GetDouble(double* value) {
  uint64_t raw;
  if (!GetU64(&raw)) return false;
  *value = std::bit_cast<double>(raw);
  return true;
}

bool PayloadReader::GetString(std::string* text) {
  std::string_view view;
  if (!GetStringView(&view)) return false;
  text->assign(view);
  return true;
}

bool PayloadReader::GetStringView(std::string_view* text) {
  uint32_t length;
  if (!GetU32(&length)) return false;
  const char* at;
  if (!Take(length, &at)) return false;
  *text = std::string_view(at, length);
  return true;
}

bool PayloadReader::GetItemset(lits::Itemset* itemset) {
  uint32_t count;
  if (!GetU32(&count)) return false;
  // Each item occupies 4 payload bytes; a count implying more bytes than
  // remain is malformed, so the reserve below is bounded by real input.
  if (static_cast<size_t>(count) * 4 > remaining()) {
    ok_ = false;
    return false;
  }
  std::vector<int32_t> items;
  items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t raw;
    if (!GetU32(&raw)) return false;
    items.push_back(static_cast<int32_t>(raw));
  }
  *itemset = lits::Itemset(std::move(items));
  return true;
}

bool PayloadReader::GetRegions(std::vector<lits::Itemset>* regions) {
  uint32_t count;
  if (!GetU32(&count)) return false;
  // An empty itemset still needs its own 4-byte count.
  if (static_cast<size_t>(count) * 4 > remaining()) {
    ok_ = false;
    return false;
  }
  regions->clear();
  regions->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    lits::Itemset itemset;
    if (!GetItemset(&itemset)) return false;
    regions->push_back(std::move(itemset));
  }
  return true;
}

bool PayloadReader::GetFg(serve::FgChoice* fg) {
  uint8_t f_code = 0;
  uint8_t g_code = 0;
  if (!GetU8(&f_code) || !GetU8(&g_code)) return false;
  const std::optional<serve::FgChoice> decoded =
      serve::FgChoice::FromCodes(f_code, g_code);
  if (!decoded.has_value()) {
    ok_ = false;
    return false;
  }
  *fg = *decoded;
  return true;
}

// ---------------------------------------------------------------------------
// Message bodies.

std::string PongBody::Encode() const {
  PayloadWriter out;
  out.PutU32(shard_index);
  out.PutI64(processed);
  out.PutU8(draining);
  return out.Take();
}

bool PongBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU32(&shard_index) && in.GetI64(&processed) &&
         in.GetU8(&draining) && in.AtEnd();
}

std::string SubmitSnapshotBody::Encode(std::string_view stream,
                                       std::string_view source,
                                       std::string_view snapshot) {
  PayloadWriter out;
  out.PutString(stream);
  out.PutString(source);
  out.PutString(snapshot);
  return out.Take();
}

bool SubmitSnapshotBody::Decode(std::string_view payload) {
  std::string_view text;
  if (!Decode(payload, &text)) return false;
  snapshot.assign(text);
  return true;
}

bool SubmitSnapshotBody::Decode(std::string_view payload,
                                std::string_view* snapshot_text) {
  PayloadReader in(payload);
  return in.GetString(&stream) && in.GetString(&source) &&
         in.GetStringView(snapshot_text) && in.AtEnd();
}

std::string SubmitResultBody::Encode() const {
  PayloadWriter out;
  out.PutU16(status);
  out.PutI64(sequence);
  out.PutU64(content_hash);
  out.PutString(error);
  return out.Take();
}

bool SubmitResultBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU16(&status) && in.GetI64(&sequence) &&
         in.GetU64(&content_hash) && in.GetString(&error) && in.AtEnd();
}

std::string DeviationQueryBody::Encode() const {
  PayloadWriter out;
  out.PutString(stream);
  out.PutFg(fg);
  return out.Take();
}

bool DeviationQueryBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetString(&stream) && in.GetFg(&fg) && in.AtEnd();
}

std::string DeviationResultBody::Encode() const {
  PayloadWriter out;
  out.PutU8(found);
  PutStreamStatus(&out, status);
  out.PutU8(has_deviation);
  out.PutDouble(deviation);
  return out.Take();
}

bool DeviationResultBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU8(&found) && GetStreamStatus(&in, &status) &&
         in.GetU8(&has_deviation) && in.GetDouble(&deviation) && in.AtEnd();
}

std::string CompareBody::Encode() const {
  PayloadWriter out;
  out.PutU64(left_hash);
  out.PutU64(right_hash);
  out.PutFg(fg);
  return out.Take();
}

bool CompareBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU64(&left_hash) && in.GetU64(&right_hash) && in.GetFg(&fg) &&
         in.AtEnd();
}

std::string CompareResultBody::Encode() const {
  PayloadWriter out;
  out.PutU8(static_cast<uint8_t>(outcome));
  out.PutDouble(deviation);
  return out.Take();
}

bool CompareResultBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  uint8_t raw;
  if (!in.GetU8(&raw) || raw > static_cast<uint8_t>(CompareOutcome::kBoth)) {
    return false;
  }
  outcome = static_cast<CompareOutcome>(raw);
  return in.GetDouble(&deviation) && in.AtEnd();
}

std::string ModelRegionsBody::Encode() const {
  PayloadWriter out;
  out.PutU64(content_hash);
  return out.Take();
}

bool ModelRegionsBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU64(&content_hash) && in.AtEnd();
}

std::string ModelRegionsResultBody::Encode() const {
  PayloadWriter out;
  out.PutU8(found);
  out.PutI64(num_transactions);
  out.PutRegions(regions);
  return out.Take();
}

bool ModelRegionsResultBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU8(&found) && in.GetI64(&num_transactions) &&
         in.GetRegions(&regions) && in.AtEnd();
}

std::string ExtendRegionsBody::Encode() const {
  PayloadWriter out;
  out.PutU64(content_hash);
  out.PutRegions(regions);
  return out.Take();
}

bool ExtendRegionsBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetU64(&content_hash) && in.GetRegions(&regions) && in.AtEnd();
}

std::string ExtendRegionsResultBody::Encode() const {
  PayloadWriter out;
  out.PutU8(found);
  out.PutI64(num_transactions);
  out.PutU32(static_cast<uint32_t>(supports.size()));
  for (double support : supports) out.PutDouble(support);
  return out.Take();
}

bool ExtendRegionsResultBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  uint32_t count;
  if (!in.GetU8(&found) || !in.GetI64(&num_transactions) ||
      !in.GetU32(&count)) {
    return false;
  }
  if (static_cast<size_t>(count) * 8 > in.remaining()) return false;
  supports.clear();
  supports.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    double support;
    if (!in.GetDouble(&support)) return false;
    supports.push_back(support);
  }
  return in.AtEnd();
}

std::string StreamPartialsBody::Encode() const {
  PayloadWriter out;
  out.PutFg(fg);
  return out.Take();
}

bool StreamPartialsBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetFg(&fg) && in.AtEnd();
}

std::string PartialAggregateBody::Encode() const {
  PayloadWriter out;
  out.PutU32(static_cast<uint32_t>(entries.size()));
  for (const Entry& entry : entries) {
    out.PutString(entry.stream);
    out.PutU8(entry.has_deviation);
    out.PutDouble(entry.deviation);
  }
  return out.Take();
}

bool PartialAggregateBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  uint32_t count;
  if (!in.GetU32(&count)) return false;
  // Each entry needs at least 13 payload bytes (empty stream name).
  if (static_cast<size_t>(count) * 13 > in.remaining()) return false;
  entries.clear();
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    if (!in.GetString(&entry.stream) || !in.GetU8(&entry.has_deviation) ||
        !in.GetDouble(&entry.deviation)) {
      return false;
    }
    entries.push_back(std::move(entry));
  }
  return in.AtEnd();
}

std::string ErrorBody::Encode() const {
  PayloadWriter out;
  out.PutString(message);
  return out.Take();
}

bool ErrorBody::Decode(std::string_view payload) {
  PayloadReader in(payload);
  return in.GetString(&message) && in.AtEnd();
}

}  // namespace focus::shard
