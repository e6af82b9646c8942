// Unit tests for the serving layer's wire protocol: line framing
// (partial reads, CRLF, the sticky overflow cap), strict command parsing
// (every verb, malformed numbers, arity errors, trailing garbage), and the
// length-prefixed binary codec (round-trips of every opcode, truncated and
// oversized length prefixes, garbage opcodes, the text-to-binary handoff).
// The server's handshake policy over a real socket is covered by
// serve_e2e_test.cc; here the codecs are exercised in isolation.

#include "src/serve/protocol.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/serve/binary.h"
#include "src/util/json_writer.h"

namespace dynmis {
namespace serve {
namespace {

Command MustParse(const std::string& line) {
  Command cmd;
  std::string error;
  EXPECT_TRUE(ParseCommand(line, &cmd, &error)) << line << ": " << error;
  return cmd;
}

std::string MustFail(const std::string& line) {
  Command cmd;
  std::string error;
  EXPECT_FALSE(ParseCommand(line, &cmd, &error)) << line;
  EXPECT_FALSE(error.empty()) << line;
  return error;
}

TEST(ProtocolParseTest, Hello) {
  const Command cmd = MustParse("HELLO 1");
  EXPECT_EQ(cmd.verb, Verb::kHello);
  EXPECT_EQ(cmd.version, 1);
  EXPECT_EQ(MustParse("HELLO 7").version, 7);
  MustFail("HELLO");
  MustFail("HELLO 0");
  MustFail("HELLO -1");
  MustFail("HELLO one");
  MustFail("HELLO 1 extra");
  // 2^32 + 1 must not truncate into an accepted version 1.
  MustFail("HELLO 4294967297");
}

TEST(ProtocolParseTest, EdgeUpdates) {
  const Command ins = MustParse("INS 3 17");
  EXPECT_EQ(ins.verb, Verb::kIns);
  EXPECT_EQ(ins.update.kind, UpdateKind::kInsertEdge);
  EXPECT_EQ(ins.update.u, 3);
  EXPECT_EQ(ins.update.v, 17);
  const Command del = MustParse("DEL 0 1");
  EXPECT_EQ(del.verb, Verb::kDel);
  EXPECT_EQ(del.update.kind, UpdateKind::kDeleteEdge);
  MustFail("INS 3");
  MustFail("INS 3 4 5");
  MustFail("INS -1 4");
  MustFail("INS 3 4x");
  MustFail("DEL a b");
  // Ids above the VertexId range are rejected, not truncated.
  MustFail("INS 3 4294967296");
}

TEST(ProtocolParseTest, VertexUpdates) {
  const Command insv = MustParse("INSV 1 5 9");
  EXPECT_EQ(insv.verb, Verb::kInsV);
  EXPECT_EQ(insv.update.kind, UpdateKind::kInsertVertex);
  EXPECT_EQ(insv.update.neighbors, (std::vector<VertexId>{1, 5, 9}));
  // An isolated vertex has no neighbor list.
  EXPECT_TRUE(MustParse("INSV").update.neighbors.empty());
  const Command delv = MustParse("DELV 12");
  EXPECT_EQ(delv.verb, Verb::kDelV);
  EXPECT_EQ(delv.update.u, 12);
  MustFail("INSV 1 -5");
  MustFail("DELV");
  MustFail("DELV 1 2");
}

TEST(ProtocolParseTest, QueriesAndControl) {
  EXPECT_EQ(MustParse("QUERY 4").vertex, 4);
  EXPECT_EQ(MustParse("SOLUTION").verb, Verb::kSolution);
  EXPECT_EQ(MustParse("STATS").verb, Verb::kStats);
  EXPECT_EQ(MustParse("VERIFY").verb, Verb::kVerify);
  EXPECT_EQ(MustParse("END").verb, Verb::kEnd);
  EXPECT_EQ(MustParse("QUIT").verb, Verb::kQuit);
  MustFail("QUERY");
  MustFail("SOLUTION now");
  MustFail("STATS x");
  MustFail("QUIT 1");
}

TEST(ProtocolParseTest, PathsAndBatch) {
  EXPECT_EQ(MustParse("SNAPSHOT /tmp/a.snap").path, "/tmp/a.snap");
  EXPECT_EQ(MustParse("TRACE out.txt").path, "out.txt");
  MustFail("SNAPSHOT");
  const Command batch = MustParse("BATCH 64");
  EXPECT_EQ(batch.verb, Verb::kBatch);
  EXPECT_EQ(batch.count, 64);
  MustFail("BATCH");
  MustFail("BATCH 0");
  MustFail("BATCH -3");
  MustFail("BATCH 9999999999");
}

TEST(ProtocolParseTest, Reshard) {
  const Command bare = MustParse("RESHARD 4");
  EXPECT_EQ(bare.verb, Verb::kReshard);
  EXPECT_EQ(bare.count, 4);
  EXPECT_TRUE(bare.path.empty());  // Keep the server's current plan.
  for (const char* plan : {"hash", "range", "locality"}) {
    const Command cmd = MustParse(std::string("RESHARD 2 ") + plan);
    EXPECT_EQ(cmd.verb, Verb::kReshard);
    EXPECT_EQ(cmd.count, 2);
    EXPECT_EQ(cmd.path, plan);
  }
  MustFail("RESHARD");
  MustFail("RESHARD 0");
  MustFail("RESHARD 1025");
  MustFail("RESHARD 4 roundrobin");
  MustFail("RESHARD 4 HASH");  // Plan names are case-sensitive.
  MustFail("RESHARD 4 locality extra");
}

TEST(ProtocolParseTest, UnknownAndEmpty) {
  MustFail("");
  MustFail("   ");
  MustFail("FROB 1 2");
  MustFail("ins 1 2");  // Verbs are case-sensitive.
}

TEST(ProtocolParseTest, WhitespaceTolerance) {
  const Command cmd = MustParse("  INS   3\t17  ");
  EXPECT_EQ(cmd.update.u, 3);
  EXPECT_EQ(cmd.update.v, 17);
}

TEST(ProtocolParseTest, UpdateVerbClassification) {
  EXPECT_TRUE(IsUpdateVerb(Verb::kIns));
  EXPECT_TRUE(IsUpdateVerb(Verb::kDel));
  EXPECT_TRUE(IsUpdateVerb(Verb::kInsV));
  EXPECT_TRUE(IsUpdateVerb(Verb::kDelV));
  EXPECT_FALSE(IsUpdateVerb(Verb::kQuery));
  EXPECT_FALSE(IsUpdateVerb(Verb::kBatch));
  EXPECT_FALSE(IsUpdateVerb(Verb::kEnd));
}

TEST(LineBufferTest, SplitsCompleteLines) {
  LineBuffer buffer(64);
  const std::string data = "INS 1 2\nDEL 3 4\n";
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), "INS 1 2");
  EXPECT_EQ(buffer.NextLine(), "DEL 3 4");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
}

TEST(LineBufferTest, ReassemblesPartialReads) {
  LineBuffer buffer(64);
  // One command delivered a byte at a time, as TCP is free to do.
  const std::string data = "QUERY 42\n";
  for (const char c : data) {
    EXPECT_EQ(buffer.NextLine(), std::nullopt);
    buffer.Append(&c, 1);
  }
  EXPECT_EQ(buffer.NextLine(), "QUERY 42");
}

TEST(LineBufferTest, StripsCarriageReturn) {
  LineBuffer buffer(64);
  const std::string data = "STATS\r\nQUIT\r\n";
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), "STATS");
  EXPECT_EQ(buffer.NextLine(), "QUIT");
}

TEST(LineBufferTest, EmptyLines) {
  LineBuffer buffer(64);
  const std::string data = "\n\nQUIT\n";
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), "");
  EXPECT_EQ(buffer.NextLine(), "");
  EXPECT_EQ(buffer.NextLine(), "QUIT");
}

TEST(LineBufferTest, OverflowIsSticky) {
  LineBuffer buffer(8);
  const std::string data(9, 'x');  // No newline, beyond the cap.
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_TRUE(buffer.overflowed());
  // Even a newline afterwards yields nothing: the connection is done.
  const std::string more = "\nQUIT\n";
  buffer.Append(more.data(), more.size());
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_TRUE(buffer.overflowed());
}

TEST(LineBufferTest, OverflowAppliesToCompleteLinesToo) {
  LineBuffer buffer(4);
  const std::string data = "TOOLONGLINE\n";
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_TRUE(buffer.overflowed());
}

TEST(LineBufferTest, LineAtExactlyTheCapPasses) {
  LineBuffer buffer(4);
  const std::string data = "QUIT\n";
  buffer.Append(data.data(), data.size());
  EXPECT_EQ(buffer.NextLine(), "QUIT");
  EXPECT_FALSE(buffer.overflowed());
}

TEST(LineBufferTest, CompactionKeepsPendingBytes) {
  LineBuffer buffer(1 << 16);
  // Enough traffic to trigger the internal compaction threshold.
  for (int i = 0; i < 1000; ++i) {
    const std::string line = "INS " + std::to_string(i) + " 99999\n";
    buffer.Append(line.data(), line.size());
    ASSERT_EQ(buffer.NextLine(), line.substr(0, line.size() - 1));
  }
  const std::string partial = "QUERY 1";
  buffer.Append(partial.data(), partial.size());
  EXPECT_EQ(buffer.pending_bytes(), partial.size());
  buffer.Append("\n", 1);
  EXPECT_EQ(buffer.NextLine(), "QUERY 1");
}

// --- Binary codec -----------------------------------------------------------

// Feeds `wire` through the frame buffer and decodes every request frame,
// returning the flattened command sequence. Fails the test on any decode
// error.
std::vector<Command> DecodeAll(const std::string& wire) {
  BinaryFrameBuffer frames(1 << 16);
  frames.Append(wire.data(), wire.size());
  EXPECT_FALSE(frames.overflowed());
  std::vector<Command> out;
  while (auto frame = frames.NextFrame()) {
    RequestFrameDecoder decoder;
    std::string error;
    if (!decoder.Begin(*frame, &error)) {
      ADD_FAILURE() << "Begin: " << error;
      return out;
    }
    Command cmd;
    for (;;) {
      const auto step = decoder.Next(&cmd, &error);
      if (step == RequestFrameDecoder::Step::kDone) break;
      if (step != RequestFrameDecoder::Step::kCommand) {
        ADD_FAILURE() << "Next: " << error;
        return out;
      }
      out.push_back(cmd);
    }
  }
  return out;
}

// Expects decoding `payload` (one frame's code byte + body) to fail, either
// at Begin or partway through Next, and returns the error.
std::string MustFailFrame(const std::string& payload) {
  RequestFrameDecoder decoder;
  std::string error;
  if (!decoder.Begin(payload, &error)) {
    EXPECT_FALSE(error.empty());
    return error;
  }
  Command cmd;
  for (;;) {
    const auto step = decoder.Next(&cmd, &error);
    if (step == RequestFrameDecoder::Step::kError) {
      EXPECT_FALSE(error.empty());
      return error;
    }
    if (step == RequestFrameDecoder::Step::kDone) {
      ADD_FAILURE() << "frame decoded cleanly";
      return "";
    }
  }
}

TEST(BinaryCodecTest, RoundTripsEveryRequestOpcode) {
  std::string wire;
  AppendInsFrame(&wire, 3, 17);
  AppendDelFrame(&wire, 0, 1);
  AppendInsVFrame(&wire, {1, 5, 9});
  AppendInsVFrame(&wire, {});  // Isolated vertex.
  AppendDelVFrame(&wire, 12);
  AppendQueryFrame(&wire, 4);

  const std::vector<Command> cmds = DecodeAll(wire);
  ASSERT_EQ(cmds.size(), 6u);
  EXPECT_EQ(cmds[0].verb, Verb::kIns);
  EXPECT_EQ(cmds[0].update.kind, UpdateKind::kInsertEdge);
  EXPECT_EQ(cmds[0].update.u, 3);
  EXPECT_EQ(cmds[0].update.v, 17);
  EXPECT_EQ(cmds[1].verb, Verb::kDel);
  EXPECT_EQ(cmds[1].update.kind, UpdateKind::kDeleteEdge);
  EXPECT_EQ(cmds[2].verb, Verb::kInsV);
  EXPECT_EQ(cmds[2].update.neighbors, (std::vector<VertexId>{1, 5, 9}));
  EXPECT_EQ(cmds[3].verb, Verb::kInsV);
  EXPECT_TRUE(cmds[3].update.neighbors.empty());
  EXPECT_EQ(cmds[4].verb, Verb::kDelV);
  EXPECT_EQ(cmds[4].update.u, 12);
  EXPECT_EQ(cmds[5].verb, Verb::kQuery);
  EXPECT_EQ(cmds[5].vertex, 4);
}

TEST(BinaryCodecTest, BatchFrameExpandsToTextSequence) {
  std::vector<GraphUpdate> updates(3);
  updates[0] = {UpdateKind::kInsertEdge, 1, 2, {}};
  updates[1] = {UpdateKind::kDeleteVertex, 7, kInvalidVertex, {}};
  updates[2] = {UpdateKind::kInsertVertex, kInvalidVertex, kInvalidVertex,
                {1, 7}};
  std::string wire;
  AppendBatchFrame(&wire, updates, 0, updates.size());

  const std::vector<Command> cmds = DecodeAll(wire);
  // kBatch header, the three updates, then kEnd — exactly what the text
  // admission path consumes.
  ASSERT_EQ(cmds.size(), 5u);
  EXPECT_EQ(cmds[0].verb, Verb::kBatch);
  EXPECT_EQ(cmds[0].count, 3);
  EXPECT_EQ(cmds[1].verb, Verb::kIns);
  EXPECT_EQ(cmds[2].verb, Verb::kDelV);
  EXPECT_EQ(cmds[3].verb, Verb::kInsV);
  EXPECT_EQ(cmds[3].update.neighbors, (std::vector<VertexId>{1, 7}));
  EXPECT_EQ(cmds[4].verb, Verb::kEnd);
}

TEST(BinaryCodecTest, AppendUpdateFrameMatchesSpecificEncoders) {
  std::string by_kind;
  AppendUpdateFrame(&by_kind, {UpdateKind::kInsertEdge, 1, 2, {}});
  AppendUpdateFrame(&by_kind, {UpdateKind::kDeleteEdge, 3, 4, {}});
  AppendUpdateFrame(&by_kind,
                    {UpdateKind::kInsertVertex, kInvalidVertex, kInvalidVertex,
                     {9}});
  AppendUpdateFrame(&by_kind, {UpdateKind::kDeleteVertex, 5, kInvalidVertex,
                               {}});
  std::string direct;
  AppendInsFrame(&direct, 1, 2);
  AppendDelFrame(&direct, 3, 4);
  AppendInsVFrame(&direct, {9});
  AppendDelVFrame(&direct, 5);
  EXPECT_EQ(by_kind, direct);
}

TEST(BinaryCodecTest, RoundTripsEveryResponseOpcode) {
  const auto decode = [](const std::string& wire) {
    BinaryFrameBuffer frames(1 << 16);
    frames.Append(wire.data(), wire.size());
    const auto frame = frames.NextFrame();
    EXPECT_TRUE(frame.has_value());
    BinaryResponse resp;
    std::string error;
    EXPECT_TRUE(DecodeResponseFrame(*frame, &resp, &error)) << error;
    return resp;
  };

  std::string wire;
  AppendOkResponse(&wire);
  EXPECT_EQ(decode(wire).code, kBinRespOk);

  wire.clear();
  AppendOkIdResponse(&wire, 42);
  BinaryResponse id = decode(wire);
  EXPECT_EQ(id.code, kBinRespOkId);
  EXPECT_EQ(id.id, 42);

  wire.clear();
  AppendRejectResponse(&wire, "self loop");
  BinaryResponse reject = decode(wire);
  EXPECT_EQ(reject.code, kBinRespReject);
  EXPECT_EQ(reject.message, "self loop");

  wire.clear();
  AppendBatchAckResponse(&wire, 5, 2, {10, 11});
  BinaryResponse batch = decode(wire);
  EXPECT_EQ(batch.code, kBinRespBatch);
  EXPECT_EQ(batch.applied, 5);
  EXPECT_EQ(batch.rejected, 2);
  EXPECT_EQ(batch.insert_ids, (std::vector<VertexId>{10, 11}));

  wire.clear();
  AppendQueryResponse(&wire, true);
  BinaryResponse query = decode(wire);
  EXPECT_EQ(query.code, kBinRespQuery);
  EXPECT_TRUE(query.in_solution);

  wire.clear();
  AppendErrResponse(&wire, "readonly");
  BinaryResponse err = decode(wire);
  EXPECT_EQ(err.code, kBinRespErr);
  EXPECT_EQ(err.message, "readonly");
}

TEST(BinaryCodecTest, ReassemblesFramesAcrossPartialReads) {
  std::string wire;
  AppendQueryFrame(&wire, 99);
  BinaryFrameBuffer frames(1 << 16);
  // One frame delivered a byte at a time, as TCP is free to do.
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    frames.Append(&wire[i], 1);
    EXPECT_EQ(frames.NextFrame(), std::nullopt);
  }
  frames.Append(&wire[wire.size() - 1], 1);
  const auto frame = frames.NextFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(static_cast<uint8_t>((*frame)[0]), kBinOpQuery);
}

TEST(BinaryCodecTest, TruncatedLengthPrefixYieldsNothing) {
  BinaryFrameBuffer frames(1 << 16);
  const char partial[] = {0x09, 0x00};  // Half a length prefix.
  frames.Append(partial, sizeof(partial));
  EXPECT_EQ(frames.NextFrame(), std::nullopt);
  EXPECT_FALSE(frames.overflowed());
  EXPECT_EQ(frames.pending_bytes(), sizeof(partial));
}

TEST(BinaryCodecTest, OversizedLengthPrefixIsStickyOverflow) {
  BinaryFrameBuffer frames(64);
  std::string wire;
  AppendU32(&wire, 65);  // One byte beyond the cap.
  wire.push_back(static_cast<char>(kBinOpQuery));
  frames.Append(wire.data(), wire.size());
  EXPECT_EQ(frames.NextFrame(), std::nullopt);
  EXPECT_TRUE(frames.overflowed());
  // Even a well-formed frame afterwards yields nothing: the stream is
  // unsynchronized and the connection is done.
  std::string good;
  AppendQueryFrame(&good, 1);
  frames.Append(good.data(), good.size());
  EXPECT_EQ(frames.NextFrame(), std::nullopt);
  EXPECT_TRUE(frames.overflowed());
}

TEST(BinaryCodecTest, ZeroLengthPrefixIsOverflow) {
  BinaryFrameBuffer frames(1 << 16);
  std::string wire;
  AppendU32(&wire, 0);  // A frame must at least carry its code byte.
  frames.Append(wire.data(), wire.size());
  EXPECT_EQ(frames.NextFrame(), std::nullopt);
  EXPECT_TRUE(frames.overflowed());
}

TEST(BinaryCodecTest, GarbageOpcodeFailsCleanly) {
  MustFailFrame(std::string(1, '\x00'));
  MustFailFrame(std::string(1, '\x7f'));
  MustFailFrame(std::string(1, '\xff'));
  // Response codes are not request codes.
  MustFailFrame(std::string(1, static_cast<char>(kBinRespOk)));
}

TEST(BinaryCodecTest, TruncatedAndOversizedBodiesFail) {
  // INS with only one endpoint.
  std::string ins_short(1, static_cast<char>(kBinOpIns));
  AppendU32(&ins_short, 3);
  MustFailFrame(ins_short);
  // QUERY with trailing garbage.
  std::string query_long(1, static_cast<char>(kBinOpQuery));
  AppendU32(&query_long, 3);
  AppendU32(&query_long, 4);
  MustFailFrame(query_long);
  // INSV whose neighbor count exceeds the bytes present.
  std::string insv(1, static_cast<char>(kBinOpInsV));
  AppendU32(&insv, 5);  // Claims 5 neighbors...
  AppendU32(&insv, 1);  // ...supplies 1.
  MustFailFrame(insv);
  // BATCH that declares more ops than it carries.
  std::string batch(1, static_cast<char>(kBinOpBatch));
  AppendU32(&batch, 2);
  batch.push_back(static_cast<char>(kBinOpIns));
  AppendU32(&batch, 1);
  AppendU32(&batch, 2);
  MustFailFrame(batch);
  // BATCH may not nest BATCH.
  std::string nested(1, static_cast<char>(kBinOpBatch));
  AppendU32(&nested, 1);
  nested.push_back(static_cast<char>(kBinOpBatch));
  AppendU32(&nested, 1);
  MustFailFrame(nested);
  // QUERY inside BATCH is not an update.
  std::string query_in_batch(1, static_cast<char>(kBinOpBatch));
  AppendU32(&query_in_batch, 1);
  query_in_batch.push_back(static_cast<char>(kBinOpQuery));
  AppendU32(&query_in_batch, 1);
  MustFailFrame(query_in_batch);
}

TEST(BinaryCodecTest, TextToBinaryHandoffKeepsPipelinedFrames) {
  // A client may pipeline binary frames directly behind its upgrade line in
  // one packet. The I/O thread parses the HELLO from the LineBuffer, then
  // hands the remaining bytes to the BinaryFrameBuffer — nothing lost.
  std::string wire = "HELLO 2 BIN\n";
  AppendInsFrame(&wire, 1, 2);
  AppendQueryFrame(&wire, 1);

  LineBuffer lines(1 << 16);
  lines.Append(wire.data(), wire.size());
  const auto hello = lines.NextLineView();
  ASSERT_TRUE(hello.has_value());
  Command cmd;
  std::string error;
  ASSERT_TRUE(ParseCommand(*hello, &cmd, &error)) << error;
  EXPECT_EQ(cmd.verb, Verb::kHello);
  EXPECT_EQ(cmd.version, 2);
  EXPECT_TRUE(cmd.binary);

  BinaryFrameBuffer frames(1 << 16);
  const std::string_view rest = lines.pending();
  frames.Append(rest.data(), rest.size());
  lines.Reset();
  const std::vector<Command> cmds = [&frames] {
    std::vector<Command> out;
    while (auto frame = frames.NextFrame()) {
      RequestFrameDecoder decoder;
      std::string err;
      EXPECT_TRUE(decoder.Begin(*frame, &err)) << err;
      Command c;
      while (decoder.Next(&c, &err) == RequestFrameDecoder::Step::kCommand) {
        out.push_back(c);
      }
    }
    return out;
  }();
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].verb, Verb::kIns);
  EXPECT_EQ(cmds[1].verb, Verb::kQuery);
}

TEST(BinaryCodecTest, HelloBinParsing) {
  const Command cmd = MustParse("HELLO 2 BIN");
  EXPECT_EQ(cmd.verb, Verb::kHello);
  EXPECT_EQ(cmd.version, 2);
  EXPECT_TRUE(cmd.binary);
  EXPECT_FALSE(MustParse("HELLO 2").binary);
  MustFail("HELLO 2 BIN extra");
  MustFail("HELLO 2 bin");  // Case-sensitive, like the verbs.
}

// STATS is one protocol line: the single-line JSON form has no whitespace
// at all, and strings are escaped (degraded_reason carries error text).
TEST(StatsLineTest, SingleLineJsonIsCompactAndEscaped) {
  JsonWriter w(/*single_line=*/true);
  w.BeginObject();
  w.String("degraded_reason", "write \"seg-1\": No space\n");
  w.BeginObject("update_latency_us");
  w.Int("count", 2);
  w.Double("p50", 1.5);
  w.EndObject();
  w.BeginArray("per_thread");
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.Take(),
            R"({"degraded_reason":"write \"seg-1\": No space\n",)"
            R"("update_latency_us":{"count":2,"p50":1.5},"per_thread":[{}]})");
}

}  // namespace
}  // namespace serve
}  // namespace dynmis
