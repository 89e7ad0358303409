//===- tests/ServerProtocolTest.cpp - rmd-wire-v1 golden tests ------------===//
//
// Wire-format tests for server/Protocol.h: every message type round-trips
// through encode -> decode to an identical value (and re-encodes to the
// identical bytes); truncated, oversized, garbage, wrong-version, and
// trailing-byte frames are all rejected with structured errors.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "gtest/gtest.h"

using namespace rmd;
using namespace rmd::wire;

namespace {

/// Decodes a request payload end to end: header + body + type check.
template <typename T, typename DecodeFn>
Expected<T> decodeRequestPayload(const std::vector<uint8_t> &Payload,
                                 MessageType Type, DecodeFn Decode) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/false);
  if (!Header)
    return Header.status();
  EXPECT_EQ(Header.value().Type, static_cast<uint8_t>(Type));
  return Decode(In);
}

template <typename T, typename DecodeFn>
Expected<T> decodeReplyPayload(const std::vector<uint8_t> &Payload,
                               MessageType Type, DecodeFn Decode,
                               uint32_t ExpectId) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  if (!Header)
    return Header.status();
  EXPECT_EQ(Header.value().Type,
            static_cast<uint8_t>(Type) | kResponseBit);
  EXPECT_EQ(Header.value().RequestId, ExpectId);
  Status ServerStatus = Status::ok();
  Status S = decodeReplyStatus(In, ServerStatus);
  if (!S)
    return S;
  if (!ServerStatus.isOk())
    return ServerStatus;
  return Decode(In);
}

TEST(ServerProtocol, PingRoundTrip) {
  std::vector<uint8_t> Bytes = encodeRequest(7, PingRequest{});
  Expected<PingRequest> R = decodeRequestPayload<PingRequest>(
      Bytes, MessageType::Ping, decodePingRequest);
  ASSERT_TRUE(bool(R));

  std::vector<uint8_t> Reply = encodeReply(7, PingReply{});
  Expected<PingReply> D = decodeReplyPayload<PingReply>(
      Reply, MessageType::Ping, decodePingReply, 7);
  ASSERT_TRUE(bool(D));
}

TEST(ServerProtocol, LoadMachineRoundTrip) {
  LoadMachineRequest Req;
  Req.Name = "cydra5";
  std::vector<uint8_t> Bytes = encodeRequest(42, Req);
  Expected<LoadMachineRequest> R = decodeRequestPayload<LoadMachineRequest>(
      Bytes, MessageType::LoadMachine, decodeLoadMachineRequest);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().Name, "cydra5");
  // Re-encoding the decoded value reproduces the identical bytes.
  EXPECT_EQ(encodeRequest(42, R.value()), Bytes);

  LoadMachineReply Reply;
  Reply.MachineId = 3;
  Reply.Degraded = 1;
  Reply.Bitvector = 1;
  Reply.NumOperations = 32;
  Reply.OriginalResources = 46;
  Reply.ReducedResources = 15;
  std::vector<uint8_t> ReplyBytes = encodeReply(42, Reply);
  Expected<LoadMachineReply> D = decodeReplyPayload<LoadMachineReply>(
      ReplyBytes, MessageType::LoadMachine, decodeLoadMachineReply, 42);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().MachineId, 3u);
  EXPECT_EQ(D.value().Degraded, 1);
  EXPECT_EQ(D.value().Bitvector, 1);
  EXPECT_EQ(D.value().NumOperations, 32u);
  EXPECT_EQ(D.value().OriginalResources, 46u);
  EXPECT_EQ(D.value().ReducedResources, 15u);
  EXPECT_EQ(encodeReply(42, D.value()), ReplyBytes);
}

TEST(ServerProtocol, OpenSessionRoundTrip) {
  OpenSessionRequest Req;
  Req.MachineId = 5;
  Req.Modulo = 1;
  Req.UnionAlt = 1;
  Req.ModuloII = 13;
  Req.MinCycle = -4;
  Req.Tenant = "tenant-a";
  std::vector<uint8_t> Bytes = encodeRequest(9, Req);
  Expected<OpenSessionRequest> R = decodeRequestPayload<OpenSessionRequest>(
      Bytes, MessageType::OpenSession, decodeOpenSessionRequest);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().MachineId, 5u);
  EXPECT_EQ(R.value().Modulo, 1);
  EXPECT_EQ(R.value().UnionAlt, 1);
  EXPECT_EQ(R.value().ModuloII, 13);
  EXPECT_EQ(R.value().MinCycle, -4);
  EXPECT_EQ(R.value().Tenant, "tenant-a");
  EXPECT_EQ(encodeRequest(9, R.value()), Bytes);

  OpenSessionReply Reply;
  Reply.SessionId = 77;
  std::vector<uint8_t> ReplyBytes = encodeReply(9, Reply);
  Expected<OpenSessionReply> D = decodeReplyPayload<OpenSessionReply>(
      ReplyBytes, MessageType::OpenSession, decodeOpenSessionReply, 9);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().SessionId, 77u);
}

TEST(ServerProtocol, BatchRoundTrip) {
  BatchRequest Req;
  Req.SessionId = 11;
  Req.Events.push_back({Verb::Check, 3, 10, 0});
  Req.Events.push_back({Verb::CheckAssign, 4, -2, 17});
  Req.Events.push_back({Verb::Free, 4, -2, 17});
  Req.Events.push_back({Verb::AssignFree, 1, 0, 18});
  Req.Events.push_back({Verb::Reset, 0, 0, 0});
  std::vector<uint8_t> Bytes = encodeRequest(100, Req);
  Expected<BatchRequest> R = decodeRequestPayload<BatchRequest>(
      Bytes, MessageType::Batch, decodeBatchRequest);
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R.value().Events.size(), 5u);
  EXPECT_EQ(R.value().SessionId, 11u);
  EXPECT_EQ(R.value().Events[1].TheVerb, Verb::CheckAssign);
  EXPECT_EQ(R.value().Events[1].Op, 4u);
  EXPECT_EQ(R.value().Events[1].Cycle, -2);
  EXPECT_EQ(R.value().Events[1].Instance, 17);
  EXPECT_EQ(encodeRequest(100, R.value()), Bytes);

  BatchReply Reply;
  Reply.Results = {1, 0, kResultDone, 2, kResultDone};
  std::vector<uint8_t> ReplyBytes = encodeReply(100, Reply);
  Expected<BatchReply> D = decodeReplyPayload<BatchReply>(
      ReplyBytes, MessageType::Batch, decodeBatchReply, 100);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().Results, Reply.Results);
  EXPECT_EQ(encodeReply(100, D.value()), ReplyBytes);
}

TEST(ServerProtocol, ScheduleLoopRoundTrip) {
  ScheduleLoopRequest Req;
  Req.MachineId = 2;
  Req.BudgetRatio = 8;
  Req.MaxII = 40;
  Req.DeadlineMs = 1500;
  Req.GraphText = "loop l { a: load; }";
  std::vector<uint8_t> Bytes = encodeRequest(3, Req);
  Expected<ScheduleLoopRequest> R = decodeRequestPayload<ScheduleLoopRequest>(
      Bytes, MessageType::ScheduleLoop, decodeScheduleLoopRequest);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().GraphText, Req.GraphText);
  EXPECT_EQ(R.value().DeadlineMs, 1500);
  EXPECT_EQ(encodeRequest(3, R.value()), Bytes);

  ScheduleLoopReply Reply;
  Reply.Success = 1;
  Reply.Outcome = 0;
  Reply.II = 13;
  Reply.Time = {0, 5, 11, -1};
  Reply.Alternative = {0, 0, 1, -1};
  Reply.Message = "";
  std::vector<uint8_t> ReplyBytes = encodeReply(3, Reply);
  Expected<ScheduleLoopReply> D = decodeReplyPayload<ScheduleLoopReply>(
      ReplyBytes, MessageType::ScheduleLoop, decodeScheduleLoopReply, 3);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().II, 13);
  EXPECT_EQ(D.value().Time, Reply.Time);
  EXPECT_EQ(D.value().Alternative, Reply.Alternative);
  EXPECT_EQ(encodeReply(3, D.value()), ReplyBytes);
}

TEST(ServerProtocol, StatsRoundTripBothShapes) {
  std::vector<uint8_t> Bytes = encodeRequest(1, StatsRequest{6});
  Expected<StatsRequest> R = decodeRequestPayload<StatsRequest>(
      Bytes, MessageType::Stats, decodeStatsRequest);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().SessionId, 6u);

  // Session-shaped reply: the module's WorkCounters plus live instances.
  StatsReply Session;
  Session.ServerWide = 0;
  Session.Session.Counters.CheckCalls = 10;
  Session.Session.Counters.AssignCalls = 4;
  Session.Session.Counters.FreeCalls = 2;
  Session.Session.LiveInstances = 2;
  std::vector<uint8_t> SessionBytes = encodeReply(1, Session);
  Expected<StatsReply> DS = decodeReplyPayload<StatsReply>(
      SessionBytes, MessageType::Stats, decodeStatsReply, 1);
  ASSERT_TRUE(bool(DS));
  EXPECT_EQ(DS.value().ServerWide, 0);
  EXPECT_EQ(DS.value().Session.Counters.CheckCalls, 10u);
  EXPECT_EQ(DS.value().Session.Counters.AssignCalls, 4u);
  EXPECT_EQ(DS.value().Session.LiveInstances, 2u);
  EXPECT_EQ(encodeReply(1, DS.value()), SessionBytes);

  // Server-shaped reply.
  StatsReply Server;
  Server.ServerWide = 1;
  Server.Server.ActiveSessions = 3;
  Server.Server.MachinesLoaded = 2;
  Server.Server.RequestsServed = 1234;
  Server.Server.OverloadRejections = 5;
  Server.Server.ProtocolErrors = 1;
  std::vector<uint8_t> ServerBytes = encodeReply(1, Server);
  Expected<StatsReply> DW = decodeReplyPayload<StatsReply>(
      ServerBytes, MessageType::Stats, decodeStatsReply, 1);
  ASSERT_TRUE(bool(DW));
  EXPECT_EQ(DW.value().ServerWide, 1);
  EXPECT_EQ(DW.value().Server.RequestsServed, 1234u);
  EXPECT_EQ(DW.value().Server.OverloadRejections, 5u);
  EXPECT_EQ(encodeReply(1, DW.value()), ServerBytes);
}

TEST(ServerProtocol, CloseAndShutdownRoundTrip) {
  std::vector<uint8_t> Bytes = encodeRequest(2, CloseSessionRequest{9});
  Expected<CloseSessionRequest> R = decodeRequestPayload<CloseSessionRequest>(
      Bytes, MessageType::CloseSession, decodeCloseSessionRequest);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().SessionId, 9u);

  std::vector<uint8_t> Sd = encodeRequest(4, ShutdownRequest{});
  Expected<ShutdownRequest> RS = decodeRequestPayload<ShutdownRequest>(
      Sd, MessageType::Shutdown, decodeShutdownRequest);
  ASSERT_TRUE(bool(RS));
}

TEST(ServerProtocol, ErrorReplyCarriesCodeAndMessage) {
  Status Err(ErrorCode::Overloaded, "server request queue is full");
  std::vector<uint8_t> Bytes =
      encodeErrorReply(55, MessageType::Batch, Err);
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  ASSERT_TRUE(bool(Header));
  EXPECT_EQ(Header.value().RequestId, 55u);
  Status ServerStatus = Status::ok();
  ASSERT_TRUE(bool(decodeReplyStatus(In, ServerStatus)));
  EXPECT_EQ(ServerStatus.code(), ErrorCode::Overloaded);
  EXPECT_EQ(ServerStatus.message(), "server request queue is full");
}

//===--------------------------------------------------------------------===//
// Rejection paths: every malformed shape yields a structured error.
//===--------------------------------------------------------------------===//

TEST(ServerProtocol, TruncatedFramesRejectedEverywhere) {
  // Every prefix of a valid payload (shorter than the whole) must fail to
  // decode — no partial value ever escapes.
  OpenSessionRequest Req;
  Req.MachineId = 1;
  Req.Tenant = "t";
  std::vector<uint8_t> Bytes = encodeRequest(1, Req);
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    WireReader In(Cut);
    Expected<FrameHeader> Header = decodeHeader(In, false);
    if (!Header)
      continue; // truncated inside the header: structured failure already
    Expected<OpenSessionRequest> R = decodeOpenSessionRequest(In);
    EXPECT_FALSE(bool(R)) << "prefix of length " << Len << " decoded";
    if (!R) {
      EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
    }
  }
}

TEST(ServerProtocol, TrailingBytesRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, StatsRequest{0});
  Bytes.push_back(0xAB);
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<StatsRequest> R = decodeStatsRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, WrongVersionRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[0] = kWireVersion + 1;
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, ReservedBytesMustBeZero) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[2] = 1; // reserved word
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, ResponseBitDirectionEnforced) {
  // A response-typed payload is not a request, and vice versa.
  std::vector<uint8_t> Reply = encodeReply(1, PingReply{});
  WireReader In(Reply);
  Expected<FrameHeader> AsRequest = decodeHeader(In, /*ExpectResponse=*/false);
  EXPECT_FALSE(bool(AsRequest));

  std::vector<uint8_t> Req = encodeRequest(1, PingRequest{});
  WireReader In2(Req);
  Expected<FrameHeader> AsResponse = decodeHeader(In2, /*ExpectResponse=*/true);
  EXPECT_FALSE(bool(AsResponse));
}

TEST(ServerProtocol, UnknownTypeRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[1] = 0x3F; // not a MessageType
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, GarbageBatchCountRejectedBeforeAllocation) {
  // A batch header claiming 2^28 events in a small payload must fail on
  // the count/size cross-check, not attempt a giant reserve.
  WireWriter Out;
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(MessageType::Batch));
  Out.u16(0);
  Out.u32(1);          // request id
  Out.u32(12);         // session id
  Out.u32(0x10000000); // event count: absurd
  Out.u8(0);           // one stray byte
  std::vector<uint8_t> Bytes = Out.take();
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<BatchRequest> R = decodeBatchRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, UnknownVerbRejectedWithEventIndex) {
  BatchRequest Req;
  Req.SessionId = 1;
  Req.Events.push_back({Verb::Check, 0, 0, 0});
  Req.Events.push_back({Verb::Check, 1, 0, 0});
  std::vector<uint8_t> Bytes = encodeRequest(1, Req);
  // Corrupt the second event's verb byte. Layout after the 8-byte header:
  // u32 session, u32 count, then 13-byte events starting with the verb.
  Bytes[8 + 4 + 4 + 13] = 0x77;
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<BatchRequest> R = decodeBatchRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.status().message().find("event 1"), std::string::npos)
      << R.status().message();
}

TEST(ServerProtocol, OversizedStringRejected) {
  // A string length field pointing far past the payload end.
  WireWriter Out;
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(MessageType::LoadMachine));
  Out.u16(0);
  Out.u32(1);
  Out.u32(0x7FFFFFFF); // string length: way out of bounds
  Out.u8('x');
  std::vector<uint8_t> Bytes = Out.take();
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<LoadMachineRequest> R = decodeLoadMachineRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, GarbagePayloadNeverDecodes) {
  // Deterministic pseudo-random garbage: none of it should ever decode as
  // a valid header + body, and decoding must not crash.
  uint64_t State = 0x1234abcd;
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::vector<uint8_t> Bytes((Next() % 64) + 1);
    for (uint8_t &B : Bytes)
      B = static_cast<uint8_t>(Next());
    Bytes[0] = static_cast<uint8_t>(Next()); // random "version" too
    WireReader In(Bytes);
    Expected<FrameHeader> Header = decodeHeader(In, false);
    if (!Header)
      continue;
    // Header happened to be plausible; the body decoders must still be
    // total. Try the type the header claims.
    switch (static_cast<MessageType>(Header.value().Type)) {
    case MessageType::Ping:
      (void)decodePingRequest(In);
      break;
    case MessageType::LoadMachine:
      (void)decodeLoadMachineRequest(In);
      break;
    case MessageType::OpenSession:
      (void)decodeOpenSessionRequest(In);
      break;
    case MessageType::Batch:
      (void)decodeBatchRequest(In);
      break;
    case MessageType::ScheduleLoop:
      (void)decodeScheduleLoopRequest(In);
      break;
    case MessageType::Stats:
      (void)decodeStatsRequest(In);
      break;
    case MessageType::CloseSession:
      (void)decodeCloseSessionRequest(In);
      break;
    case MessageType::Shutdown:
      (void)decodeShutdownRequest(In);
      break;
    }
  }
}

} // namespace
