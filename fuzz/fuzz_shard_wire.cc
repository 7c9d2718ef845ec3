// Fuzz target for the shard wire protocol — the byte stream between the
// HTTP front end and shard worker processes. Mirrors fuzz_http: the input
// is decoded twice (one shot, then byte-at-a-time through Resets) and any
// framing divergence aborts, so the fuzzer hunts both crashes and
// segmentation-dependent behavior. Completed frames additionally get their
// payload run through the matching body codec; a payload that decodes must
// re-encode to something that decodes to the same bytes (round-trip
// stability), which exercises every PayloadReader bounds check.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "shard/wire.h"

namespace {

using focus::shard::Frame;
using focus::shard::MessageType;
using focus::shard::WireDecoder;
using focus::shard::WireLimits;

// Decodes the payload as the body type its frame claims, and checks
// decode -> encode -> decode reaches a fixed point.
template <typename Body>
void CheckBodyRoundTrip(const std::string& payload) {
  Body first;
  if (!first.Decode(payload)) return;  // malformed payloads may be rejected
  const std::string encoded = first.Encode();
  Body second;
  if (!second.Decode(encoded)) std::abort();
  if (second.Encode() != encoded) std::abort();
}

void CheckFrame(const Frame& frame) {
  using focus::shard::CompareBody;
  using focus::shard::CompareResultBody;
  using focus::shard::DeviationQueryBody;
  using focus::shard::DeviationResultBody;
  using focus::shard::ErrorBody;
  using focus::shard::ExtendRegionsBody;
  using focus::shard::ExtendRegionsResultBody;
  using focus::shard::ModelRegionsBody;
  using focus::shard::ModelRegionsResultBody;
  using focus::shard::PartialAggregateBody;
  using focus::shard::PongBody;
  using focus::shard::StreamPartialsBody;
  using focus::shard::SubmitResultBody;
  using focus::shard::SubmitSnapshotBody;

  switch (frame.type) {
    case MessageType::kPing:
      break;  // empty payload by convention, but any is tolerated
    case MessageType::kPong:
      CheckBodyRoundTrip<PongBody>(frame.payload);
      break;
    case MessageType::kSubmitSnapshot:
      CheckBodyRoundTrip<SubmitSnapshotBody>(frame.payload);
      break;
    case MessageType::kSubmitResult:
      CheckBodyRoundTrip<SubmitResultBody>(frame.payload);
      break;
    case MessageType::kDeviationQuery:
      CheckBodyRoundTrip<DeviationQueryBody>(frame.payload);
      break;
    case MessageType::kDeviationResult:
      CheckBodyRoundTrip<DeviationResultBody>(frame.payload);
      break;
    case MessageType::kCompare:
      CheckBodyRoundTrip<CompareBody>(frame.payload);
      break;
    case MessageType::kCompareResult:
      CheckBodyRoundTrip<CompareResultBody>(frame.payload);
      break;
    case MessageType::kModelRegions:
      CheckBodyRoundTrip<ModelRegionsBody>(frame.payload);
      break;
    case MessageType::kModelRegionsResult:
      CheckBodyRoundTrip<ModelRegionsResultBody>(frame.payload);
      break;
    case MessageType::kExtendRegions:
      CheckBodyRoundTrip<ExtendRegionsBody>(frame.payload);
      break;
    case MessageType::kExtendRegionsResult:
      CheckBodyRoundTrip<ExtendRegionsResultBody>(frame.payload);
      break;
    case MessageType::kStreamPartials:
      CheckBodyRoundTrip<StreamPartialsBody>(frame.payload);
      break;
    case MessageType::kPartialAggregate:
      CheckBodyRoundTrip<PartialAggregateBody>(frame.payload);
      break;
    case MessageType::kError:
      CheckBodyRoundTrip<ErrorBody>(frame.payload);
      break;
  }
}

struct Outcome {
  std::vector<std::string> frames;  // "type:request_id:payload" per frame
  bool errored = false;
};

// Runs the decoder over `bytes` delivered in `chunk`-sized pieces,
// draining completed frames through Reset like the server loop's wire
// codec does (src/shard/wire_server.cc).
Outcome Decode(std::string_view bytes, const WireLimits& limits,
               size_t chunk) {
  Outcome outcome;
  WireDecoder decoder(limits);
  size_t offset = 0;
  WireDecoder::Status status = WireDecoder::Status::kNeedMore;
  while (true) {
    if (status == WireDecoder::Status::kNeedMore) {
      if (offset >= bytes.size()) break;
      const size_t take = std::min(chunk, bytes.size() - offset);
      status = decoder.Consume(bytes.substr(offset, take));
      offset += take;
      continue;
    }
    if (status == WireDecoder::Status::kComplete) {
      const Frame& frame = decoder.frame();
      if (frame.payload.size() > limits.max_payload_bytes) std::abort();
      if (!focus::shard::ValidMessageType(
              static_cast<uint8_t>(frame.type))) {
        std::abort();
      }
      CheckFrame(frame);
      // Encoding the decoded frame must reproduce its exact wire bytes.
      const std::string encoded = focus::shard::EncodeFrame(frame);
      WireDecoder again(limits);
      if (again.Consume(encoded) != WireDecoder::Status::kComplete) {
        std::abort();
      }
      outcome.frames.push_back(
          std::to_string(static_cast<int>(frame.type)) + ":" +
          std::to_string(frame.request_id) + ":" + frame.payload);
      if (outcome.frames.size() > bytes.size() + 1) std::abort();  // loop
      status = decoder.Reset();
      continue;
    }
    // kError is terminal, like the server closing the connection.
    if (decoder.error().empty()) std::abort();
    outcome.errored = true;
    break;
  }
  return outcome;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // A tight payload cap so the fuzzer reaches the limit rejection with
  // small inputs.
  WireLimits limits;
  limits.max_payload_bytes = 1024;

  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const Outcome one_shot = Decode(bytes, limits, bytes.size() + 1);
  const Outcome dribble = Decode(bytes, limits, 1);

  // Differential invariant: framing cannot depend on TCP segmentation.
  if (one_shot.errored != dribble.errored) std::abort();
  if (one_shot.frames != dribble.frames) std::abort();
  return 0;
}
