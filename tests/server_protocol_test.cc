// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Wire-level tests for the HDNP protocol (server/protocol.h): frame
// round-trips, and rejection of every corruption class — bit flips,
// truncation, oversized declarations, bad magic/version/kind, malformed
// payload fields — always as kProtocolError, never a crash or an
// over-allocation.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace hyperdom {
namespace server {
namespace {

KnnRequest SampleRequest() {
  KnnRequest request;
  request.budget_micros = 2'500;
  request.node_budget = 77;
  request.k = 5;
  request.strategy = SearchStrategy::kDepthFirst;
  request.query = Hypersphere({1.5, -2.25, 0.125}, 3.75);
  return request;
}

KnnResponse SampleResponse() {
  KnnResponse response;
  response.completeness = Completeness::kBestEffort;
  // Awkward doubles on purpose: the codec must round-trip them bit for
  // bit (host-endian memcpy, no text formatting in the path).
  response.answers.push_back(
      {Hypersphere({0.1, 0.2, 0.30000000000000004}, 1e-12), 42});
  response.answers.push_back(
      {Hypersphere({-1e308, 3.141592653589793, 2.220446049250313e-16}, 7.0),
       7});
  return response;
}

// Every payload on the wire is the 8-byte request-ID prefix plus the
// caller's bytes.
constexpr size_t kIdPrefix = sizeof(uint64_t);

// The first kFrameHeaderSize bytes of `frame`, as DecodeFrameHeader takes.
std::string_view HeaderBytes(const std::string& frame) {
  return std::string_view(frame).substr(0, kFrameHeaderSize);
}

TEST(FrameTest, HeaderRoundTrip) {
  const std::string payload = "hello hyperdom";
  const std::string frame = EncodeFrame(FrameKind::kKnnRequest, 7, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + kIdPrefix + payload.size());

  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->kind, FrameKind::kKnnRequest);
  EXPECT_EQ(header->payload_size, kIdPrefix + payload.size());
  EXPECT_TRUE(
      VerifyPayloadCrc(*header, std::string_view(frame).substr(
                                    kFrameHeaderSize))
          .ok());
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  const std::string frame = EncodeFrame(FrameKind::kPingRequest, 7, {});
  ASSERT_EQ(frame.size(), kFrameHeaderSize + kIdPrefix);
  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->kind, FrameKind::kPingRequest);
  EXPECT_EQ(header->payload_size, kIdPrefix);
  std::string_view body = std::string_view(frame).substr(kFrameHeaderSize);
  EXPECT_TRUE(VerifyPayloadCrc(*header, body).ok());
  uint64_t id = 0;
  ASSERT_TRUE(ExtractRequestId(&body, &id).ok());
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(body.empty());
}

TEST(FrameTest, EveryPayloadBitFlipIsDetected) {
  // The CRC covers the request-ID prefix as well as the caller's bytes.
  const std::string frame =
      EncodeFrame(FrameKind::kKnnResponse, 7, "crc-protected bytes");
  const std::string payload = frame.substr(kFrameHeaderSize);
  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(header.ok());
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = payload;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      const Status crc = VerifyPayloadCrc(*header, corrupted);
      EXPECT_EQ(crc.code(), StatusCode::kProtocolError)
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(FrameTest, RejectsTruncatedHeader) {
  const std::string frame = EncodeFrame(FrameKind::kPingRequest, 7, {});
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    auto header = DecodeFrameHeader(std::string_view(frame).substr(0, len),
                                    kDefaultMaxPayloadBytes);
    EXPECT_FALSE(header.ok()) << "accepted " << len << "-byte header";
    EXPECT_EQ(header.status().code(), StatusCode::kProtocolError);
  }
}

TEST(FrameTest, RejectsBadMagic) {
  std::string frame = EncodeFrame(FrameKind::kPingRequest, 7, {});
  frame[0] = 'X';
  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(header.status().message().find("magic"), std::string::npos);
}

TEST(FrameTest, RejectsUnsupportedVersion) {
  // One version is spoken: the retired ID-less version 1, a zero and a
  // future version are all refused, naming the version.
  EXPECT_TRUE(DecodeFrameHeader(
                  HeaderBytes(EncodeFrame(FrameKind::kPingRequest, 7, {})),
                  kDefaultMaxPayloadBytes)
                  .ok());
  for (uint32_t version : {0u, 1u, kProtocolVersion + 1}) {
    std::string frame = EncodeFrame(FrameKind::kPingRequest, 7, {});
    std::memcpy(frame.data() + 4, &version, sizeof(version));
    auto header =
        DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
    ASSERT_FALSE(header.ok()) << "accepted version " << version;
    EXPECT_EQ(header.status().code(), StatusCode::kProtocolError);
    EXPECT_NE(header.status().message().find("unsupported protocol version " +
                                             std::to_string(version)),
              std::string::npos)
        << header.status().ToString();
  }
}

TEST(FrameTest, RejectsUnknownKind) {
  for (uint32_t kind : {0u, 9u, 0xFFFFFFFFu}) {
    std::string frame = EncodeFrame(FrameKind::kPingRequest, 7, {});
    std::memcpy(frame.data() + 8, &kind, sizeof(kind));
    auto header =
        DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
    EXPECT_FALSE(header.ok()) << "accepted kind " << kind;
  }
}

TEST(FrameTest, RejectsOversizedDeclarationBeforeAllocation) {
  // A header declaring a huge payload must be refused at header-decode
  // time — the receiver never allocates from an unvalidated size field.
  std::string frame = EncodeFrame(FrameKind::kKnnRequest, 7, "tiny");
  const uint64_t huge = 1ull << 60;
  std::memcpy(frame.data() + 12, &huge, sizeof(huge));
  auto header = DecodeFrameHeader(HeaderBytes(frame), kDefaultMaxPayloadBytes);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kProtocolError);
  EXPECT_NE(header.status().message().find("exceeds limit"),
            std::string::npos);

  // Exactly at the cap is fine (the cap bounds, it does not exclude).
  auto at_cap = DecodeFrameHeader(HeaderBytes(frame), huge);
  EXPECT_TRUE(at_cap.ok());
}

TEST(KnnRequestCodecTest, RoundTripPreservesEveryField) {
  const KnnRequest request = SampleRequest();
  auto decoded = DecodeKnnRequest(EncodeKnnRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->budget_micros, request.budget_micros);
  EXPECT_EQ(decoded->node_budget, request.node_budget);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->strategy, request.strategy);
  ASSERT_EQ(decoded->query.dim(), request.query.dim());
  // Bit-identical doubles: the exact-answer contract depends on it.
  EXPECT_EQ(std::memcmp(decoded->query.center().data(),
                        request.query.center().data(),
                        request.query.dim() * sizeof(double)),
            0);
  EXPECT_EQ(decoded->query.radius(), request.query.radius());
}

TEST(KnnRequestCodecTest, RejectsEveryTruncation) {
  const std::string payload = EncodeKnnRequest(SampleRequest());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded =
        DecodeKnnRequest(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "accepted " << len << " of "
                               << payload.size() << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  }
}

TEST(KnnRequestCodecTest, OverflowingDimCannotDefeatBoundsCheck) {
  // For dim >= 2^61, dim * sizeof(double) wraps to a tiny value. If the
  // decoder compared the product against the remaining bytes, the check
  // would pass and resize(dim) would throw length_error — on the server a
  // remote crash from one valid-CRC frame. The decoder must compare by
  // division and reject cleanly.
  std::string payload = EncodeKnnRequest(SampleRequest());
  for (uint64_t dim : {1ull << 61, (1ull << 61) + 1, (1ull << 62) + 3,
                       0xFFFFFFFFFFFFFFFFull}) {
    std::memcpy(payload.data() + 24, &dim, sizeof(dim));
    auto decoded = DecodeKnnRequest(payload);
    ASSERT_FALSE(decoded.ok()) << "accepted dim " << dim;
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  }
}

TEST(KnnRequestCodecTest, RejectsTrailingBytes) {
  std::string payload = EncodeKnnRequest(SampleRequest());
  payload.push_back('\0');
  auto decoded = DecodeKnnRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(KnnRequestCodecTest, RejectsSemanticGarbage) {
  {
    KnnRequest request = SampleRequest();
    request.k = 0;
    EXPECT_FALSE(DecodeKnnRequest(EncodeKnnRequest(request)).ok());
  }
  {
    // Unknown strategy tag.
    std::string payload = EncodeKnnRequest(SampleRequest());
    const uint32_t bad = 99;
    std::memcpy(payload.data() + 20, &bad, sizeof(bad));
    EXPECT_FALSE(DecodeKnnRequest(payload).ok());
  }
  {
    // Negative radius fails Hypersphere::Validate via the decoder.
    std::string payload = EncodeKnnRequest(SampleRequest());
    const double bad = -1.0;
    std::memcpy(payload.data() + payload.size() - sizeof(double), &bad,
                sizeof(bad));
    auto decoded = DecodeKnnRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
  }
}

TEST(KnnResponseCodecTest, RoundTripIsBitIdentical) {
  const KnnResponse response = SampleResponse();
  auto decoded = DecodeKnnResponse(EncodeKnnResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->completeness, response.completeness);
  ASSERT_EQ(decoded->answers.size(), response.answers.size());
  for (size_t i = 0; i < response.answers.size(); ++i) {
    EXPECT_EQ(decoded->answers[i].id, response.answers[i].id);
    EXPECT_EQ(std::memcmp(decoded->answers[i].sphere.center().data(),
                          response.answers[i].sphere.center().data(),
                          response.answers[i].sphere.dim() * sizeof(double)),
              0);
    EXPECT_EQ(decoded->answers[i].sphere.radius(),
              response.answers[i].sphere.radius());
  }
}

TEST(KnnResponseCodecTest, EmptyAnswerSetRoundTrips) {
  KnnResponse response;
  response.completeness = Completeness::kExact;
  auto decoded = DecodeKnnResponse(EncodeKnnResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->completeness, Completeness::kExact);
  EXPECT_TRUE(decoded->answers.empty());
}

TEST(KnnResponseCodecTest, LyingCountCannotDriveAllocation) {
  // A response claiming 2^60 entries but carrying none: the decoder walks
  // entry by entry, so it fails on the first missing entry instead of
  // resizing a vector from the count field.
  std::string payload = EncodeKnnResponse(KnnResponse{});
  const uint64_t lie = 1ull << 60;
  std::memcpy(payload.data() + 12, &lie, sizeof(lie));
  auto decoded = DecodeKnnResponse(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
}

TEST(KnnResponseCodecTest, OverflowingDimCannotDefeatBoundsCheck) {
  // Same wrap-around as the request side, through the response decoder's
  // per-entry ConsumeDoubles path.
  std::string payload = EncodeKnnResponse(SampleResponse());
  const uint64_t dim = (1ull << 61) + 1;
  std::memcpy(payload.data() + 4, &dim, sizeof(dim));
  auto decoded = DecodeKnnResponse(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolError);
}

TEST(KnnResponseCodecTest, RejectsEveryTruncation) {
  const std::string payload = EncodeKnnResponse(SampleResponse());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded =
        DecodeKnnResponse(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "accepted " << len << " of "
                               << payload.size() << " bytes";
  }
}

TEST(ErrorCodecTest, RoundTripsEveryWireCode) {
  const Status cases[] = {
      Status::InvalidArgument("a"), Status::NotFound("b"),
      Status::IOError("c"),         Status::OutOfRange("d"),
      Status::Corruption("e"),      Status::NotSupported("f"),
      Status::Internal("g"),        Status::Overloaded("h"),
      Status::DeadlineExceeded("i"), Status::ProtocolError("j"),
  };
  for (const Status& original : cases) {
    Status decoded;
    ASSERT_TRUE(
        DecodeErrorResponse(EncodeErrorResponse(original), &decoded).ok());
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

TEST(ErrorCodecTest, RejectsMalformedPayloads) {
  Status decoded;
  // Truncated header.
  EXPECT_EQ(DecodeErrorResponse("abc", &decoded).code(),
            StatusCode::kProtocolError);
  // An OK code on the wire is nonsense for an *error* frame.
  std::string ok_payload;
  const uint32_t zero = 0;
  ok_payload.append(reinterpret_cast<const char*>(&zero), sizeof(zero));
  ok_payload.append(reinterpret_cast<const char*>(&zero), sizeof(zero));
  EXPECT_EQ(DecodeErrorResponse(ok_payload, &decoded).code(),
            StatusCode::kProtocolError);
  // Message length pointing past the end.
  std::string overlong = EncodeErrorResponse(Status::IOError("msg"));
  overlong.resize(overlong.size() - 1);
  EXPECT_EQ(DecodeErrorResponse(overlong, &decoded).code(),
            StatusCode::kProtocolError);
}

TEST(DeadlineFromRequestTest, ZeroBudgetsMeanUnbounded) {
  KnnRequest request;
  request.budget_micros = 0;
  request.node_budget = 0;
  const Deadline deadline = DeadlineFromRequest(request);
  EXPECT_TRUE(deadline.unbounded());
  TraversalGuard guard(deadline);
  for (uint64_t i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(guard.ShouldStop(i));
  }
}

TEST(DeadlineFromRequestTest, NodeBudgetPropagates) {
  KnnRequest request;
  request.node_budget = 3;
  const Deadline deadline = DeadlineFromRequest(request);
  EXPECT_FALSE(deadline.has_wall_deadline());
  EXPECT_EQ(deadline.node_budget(), 3u);
  TraversalGuard guard(deadline);
  EXPECT_FALSE(guard.ShouldStop(0));
  EXPECT_FALSE(guard.ShouldStop(2));
  EXPECT_TRUE(guard.ShouldStop(3));
  EXPECT_TRUE(guard.ShouldStop(0));  // expiry is sticky
}

TEST(DeadlineFromRequestTest, WallBudgetPropagates) {
  KnnRequest request;
  request.budget_micros = 250;
  const Deadline deadline = DeadlineFromRequest(request);
  EXPECT_TRUE(deadline.has_wall_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(deadline.WallExpired());
}

}  // namespace
}  // namespace server
}  // namespace hyperdom
