// Golden-byte tests: the exact encoding of every record that crosses a host
// boundary or lands on disk, with all fields set. Old peers, old journals
// and old snapshots depend on these bytes, so a codec change that moves a
// single byte must fail here first.
//
// The expected strings are written out field by field; each segment is the
// big-endian encoding named in its comment (u32-length-prefixed strings and
// byte strings, u16 ports, u64 counters).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/session.hpp"
#include "core/wire.hpp"
#include "recovery/journal.hpp"
#include "recovery/snapshot.hpp"

namespace naplet {
namespace {

using namespace std::chrono_literals;

util::Bytes unhex(const std::string& hex) {
  auto bytes = util::from_hex(hex);
  EXPECT_TRUE(bytes.ok()) << hex;
  return bytes.ok() ? *bytes : util::Bytes{};
}

util::Bytes bytes(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

util::ByteSpan span(const util::Bytes& b) {
  return util::ByteSpan(b.data(), b.size());
}

// NodeInfo{"alpha", 10.0.0.1:{4001,4002,4003}}, as every record embeds it.
#define ALPHA_NODE_HEX                                   \
  "00000005616c706861"             /* "alpha" */         \
  "0000000831302e302e302e310fa1"   /* control :4001 */   \
  "0000000831302e302e302e310fa2"   /* redirector :4002 */ \
  "0000000831302e302e302e310fa3"   /* migration :4003 */

agent::NodeInfo alpha_node() {
  agent::NodeInfo node;
  node.server_name = "alpha";
  node.control = {"10.0.0.1", 4001};
  node.redirector = {"10.0.0.1", 4002};
  node.migration = {"10.0.0.1", 4003};
  return node;
}

// ---- control channel ------------------------------------------------------

constexpr const char* kCtrlCoveredHex =
    "01"                                // type CONNECT
    "0102030405060708"                  // conn_id
    "000000000000000b"                  // epoch 11
    "1122334455667788"                  // trace_id
    "000000000000002a"                  // verifier 42
    "0000000000000309"                  // sent_seq 777
    "000000deadbeef01"                  // group_id
    "00000008636c69656e742d61"          // client_agent "client-a"
    "000000087365727665722d62"          // server_agent "server-b"
    ALPHA_NODE_HEX                      // node
    "00000003010203"                    // dh_public {1,2,3}
    "000000020405"                      // token {4,5}
    "00000003776879";                   // reason "why"

// HMAC-SHA256 of kCtrlCoveredHex under the key 00 01 02 ... 1f:
//   python3 -c 'import hmac,hashlib;print(hmac.new(bytes(range(32)),
//     bytes.fromhex(COVERED),hashlib.sha256).hexdigest())'
constexpr const char* kCtrlTagHex =
    "462bfb4df1b7df70f3880c8ff7941a8870c3ff5451cac13745ffc20d7ea39c87";

nsock::CtrlMsg golden_ctrl() {
  nsock::CtrlMsg msg;
  msg.type = nsock::CtrlType::kConnect;
  msg.conn_id = 0x0102030405060708ULL;
  msg.epoch = 11;
  msg.trace_id = 0x1122334455667788ULL;
  msg.verifier = 42;
  msg.sent_seq = 777;
  msg.group_id = 0xDEADBEEF01ULL;
  msg.client_agent = "client-a";
  msg.server_agent = "server-b";
  msg.node = alpha_node();
  msg.dh_public = {1, 2, 3};
  msg.token = {4, 5};
  msg.reason = "why";
  return msg;
}

util::Bytes ctrl_key() {
  util::Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  return key;
}

TEST(CodecGolden, CtrlMsgCoveredBytesAndTag) {
  nsock::CtrlMsg msg = golden_ctrl();
  EXPECT_EQ(util::to_hex(span(msg.mac_payload())), kCtrlCoveredHex);

  const util::Bytes key = ctrl_key();
  const util::Bytes tag = nsock::compute_mac(span(key), span(msg.mac_payload()));
  EXPECT_EQ(util::to_hex(span(tag)), kCtrlTagHex);

  msg.mac = tag;
  const std::string wire =
      std::string(kCtrlCoveredHex) + "00000020" + kCtrlTagHex;
  EXPECT_EQ(util::to_hex(span(msg.encode())), wire);

  auto decoded = nsock::CtrlMsg::decode(span(unhex(wire)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->encode(), msg.encode());
  EXPECT_EQ(decoded->node, alpha_node());
  EXPECT_EQ(decoded->group_id, 0xDEADBEEF01ULL);
  EXPECT_TRUE(nsock::verify_mac(span(key), span(decoded->mac_payload()),
                                span(decoded->mac)));
}

// ---- handoff stream -------------------------------------------------------

constexpr const char* kHandoffHex =
    "03"                                // type RESUME
    "000000000000007b"                  // conn_id 123
    "0000000000000006"                  // epoch 6
    "99aabbccddeeff00"                  // trace_id
    "00000000000001c8"                  // verifier 456
    "0000000000000315"                  // sent_seq 789
    "0000000000000309"                  // recv_seq 777
    "0000000b6d6f7665722d6167656e74"    // agent "mover-agent"
    ALPHA_NODE_HEX                      // node
    "0000000172"                        // reason "r"
    "0000000107";                       // mac {7}

TEST(CodecGolden, HandoffMsg) {
  nsock::HandoffMsg msg;
  msg.type = nsock::HandoffType::kResume;
  msg.conn_id = 123;
  msg.epoch = 6;
  msg.trace_id = 0x99AABBCCDDEEFF00ULL;
  msg.verifier = 456;
  msg.sent_seq = 789;
  msg.recv_seq = 777;
  msg.agent = "mover-agent";
  msg.node = alpha_node();
  msg.reason = "r";
  msg.mac = {7};
  EXPECT_EQ(util::to_hex(span(msg.encode())), kHandoffHex);

  auto decoded = nsock::HandoffMsg::decode(span(unhex(kHandoffHex)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->encode(), msg.encode());
}

constexpr const char* kBatchHex =
    "b7"                                // batch magic
    "0000000000000063"                  // trace_id 99
    "00000002"                          // 2 entries, each length-prefixed
    "0000005d"                          // entry 0: 93 bytes
    "03"                                //   RESUME
    "0000000000000001"                  //   conn_id 1
    "0000000000000007"                  //   epoch 7
    "000000000000002a"                  //   trace_id 42
    "00000000feedbeef"                  //   verifier
    "000000000000000a"                  //   sent_seq 10
    "0000000000000009"                  //   recv_seq 9
    "00000005616c696365"                //   agent "alice"
    "0000000164"                        //   node "d"
    "00000001680001"                    //     h:1
    "00000001680002"                    //     h:2
    "00000001680003"                    //     h:3
    "00000000"                          //   reason ""
    "00000001ab"                        //   mac {ab}
    "00000058"                          // entry 1: 88 bytes
    "01"                                //   ATTACH
    "0000000000000003"                  //   conn_id 3
    "0000000000000000"                  //   epoch
    "0000000000000000"                  //   trace_id
    "0000000000000000"                  //   verifier
    "0000000000000000"                  //   sent_seq
    "0000000000000000"                  //   recv_seq
    "000000056361726f6c"                //   agent "carol"
    "00000000"                          //   node "" ...
    "000000000000"                      //     :0
    "000000000000"                      //     :0
    "000000000000"                      //     :0
    "00000000"                          //   reason ""
    "00000000";                         //   mac {}

TEST(CodecGolden, BatchHandoffMsg) {
  nsock::BatchHandoffMsg batch;
  batch.trace_id = 99;
  nsock::HandoffMsg resume;
  resume.type = nsock::HandoffType::kResume;
  resume.conn_id = 1;
  resume.epoch = 7;
  resume.trace_id = 42;
  resume.verifier = 0xfeedbeef;
  resume.sent_seq = 10;
  resume.recv_seq = 9;
  resume.agent = "alice";
  resume.node.server_name = "d";
  resume.node.control = {"h", 1};
  resume.node.redirector = {"h", 2};
  resume.node.migration = {"h", 3};
  resume.mac = {0xAB};
  batch.entries.push_back(resume);
  nsock::HandoffMsg attach;
  attach.type = nsock::HandoffType::kAttach;
  attach.conn_id = 3;
  attach.agent = "carol";
  batch.entries.push_back(attach);
  EXPECT_EQ(util::to_hex(span(batch.encode())), kBatchHex);

  auto decoded = nsock::BatchHandoffMsg::decode(span(unhex(kBatchHex)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->encode(), batch.encode());
}

constexpr const char* kBatchReplyHex =
    "00000002"                          // 2 dispositions
    "01" "00000000"                     // ok, reason ""
    "00" "00000018"                     // refused, 24-byte reason:
    "6e6f206c697665206c6561736520666f7220636f6e6e2039";
                                        //   "no live lease for conn 9"

TEST(CodecGolden, BatchHandoffReply) {
  nsock::BatchHandoffReply reply;
  reply.entries.push_back({true, ""});
  reply.entries.push_back({false, "no live lease for conn 9"});
  EXPECT_EQ(util::to_hex(span(reply.encode())), kBatchReplyHex);

  auto decoded = nsock::BatchHandoffReply::decode(span(unhex(kBatchReplyHex)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_TRUE(decoded->entries[0].ok);
  EXPECT_FALSE(decoded->entries[1].ok);
  EXPECT_EQ(decoded->entries[1].reason, "no live lease for conn 9");
}

// ---- migrating session state ----------------------------------------------

constexpr const char* kSessionHex =
    "0102030405060708"                  // conn_id
    "1112131415161718"                  // verifier
    "01"                                // is_client
    "000000056d6f766572"                // local agent "mover"
    "0000000470656572"                  // peer agent "peer"
    "00000008a0a1a2a3a4a5a6a7"          // session key
    "00000032"                          // peer node, nested (50 bytes):
    "0000000462657461"                  //   "beta"
    "0000000831302e302e302e321389"      //   10.0.0.2:5001
    "0000000831302e302e302e32138a"      //   10.0.0.2:5002
    "0000000831302e302e302e32138b"      //   10.0.0.2:5003
    "000000000000000c"                  // tx_seq 12
    "0000000000000009"                  // rx_high 9
    "0000000000000007"                  // delivered 7
    "0000000000000009"                  // replay_low 9
    "00000002"                          // 2 buffered frames
    "0000000000000008" "000000026162"   //   seq 8 "ab"
    "0000000000000009" "00000003636465" //   seq 9 "cde"
    "000000050000000c00"                // raw tail (partial frame)
    "01010101"                          // remote_suspended,
                                        // local_suspend_parked, peer_parked,
                                        // peer_waiting_resume
    "000000000000000b"                  // peer_declared_seq 11
    "01"                                // history enabled
    "0000000000001000"                  // history limit 4096
    "00000002"                          // 2 history frames
    "000000000000000b" "000000027879"   //   seq 11 "xy"
    "000000000000000c" "000000017a"     //   seq 12 "z"
    "0000000000000003"                  // peer epoch 3
    "cafebabe00000001";                 // trace id

TEST(CodecGolden, SessionExportState) {
  const util::Bytes golden = unhex(kSessionHex);
  auto imported = nsock::Session::import_state(span(golden));
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  const nsock::SessionPtr& s = *imported;

  EXPECT_EQ(s->conn_id(), 0x0102030405060708ULL);
  EXPECT_EQ(s->verifier(), 0x1112131415161718ULL);
  EXPECT_TRUE(s->is_client());
  EXPECT_EQ(s->local_agent().name(), "mover");
  EXPECT_EQ(s->peer_agent().name(), "peer");
  EXPECT_EQ(util::to_hex(span(s->session_key())), "a0a1a2a3a4a5a6a7");
  EXPECT_EQ(s->peer_node().server_name, "beta");
  EXPECT_EQ(s->peer_node().migration.port, 5003);
  EXPECT_EQ(s->sent_seq(), 12u);
  EXPECT_EQ(s->highest_rx_seq(), 9u);
  EXPECT_EQ(s->buffered_frames(), 2u);
  EXPECT_EQ(s->buffered_bytes(), 5u);
  const nsock::Session::Flags flags = s->flags();
  EXPECT_TRUE(flags.remote_suspended);
  EXPECT_TRUE(flags.local_suspend_parked);
  EXPECT_TRUE(flags.peer_parked);
  EXPECT_TRUE(flags.peer_waiting_resume);
  EXPECT_EQ(flags.peer_declared_seq, 11u);
  EXPECT_TRUE(s->history_enabled());
  auto history = s->history_since(10);
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[1].first, 12u);
  EXPECT_EQ((*history)[1].second, bytes("z"));
  EXPECT_EQ(s->peer_epoch(), 3u);
  EXPECT_EQ(s->trace_id(), 0xCAFEBABE00000001ULL);
  EXPECT_EQ(s->state(), nsock::ConnState::kSuspended);

  // Re-export reproduces the blob byte for byte.
  EXPECT_EQ(util::to_hex(span(s->export_state())), kSessionHex);

  // The buffer replays in order, ahead of any socket.
  auto first = s->recv(100ms);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->seq, 8u);
  EXPECT_EQ(first->body, bytes("ab"));
  EXPECT_TRUE(first->from_buffer);
}

// ---- recovery journal and snapshot ----------------------------------------

constexpr const char* kManifestHex =
    "00000002"                          // 2 members
    "0000000000000005" "00000003010203" //   conn 5, blob {1,2,3}
    "0000000000000006" "00000000";      //   conn 6, empty blob

TEST(CodecGolden, GroupManifest) {
  recovery::GroupManifest manifest;
  manifest.members.push_back({5, {1, 2, 3}});
  manifest.members.push_back({6, {}});
  EXPECT_EQ(util::to_hex(span(manifest.encode())), kManifestHex);

  auto decoded = recovery::GroupManifest::decode(span(unhex(kManifestHex)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->encode(), manifest.encode());
}

constexpr const char* kSnapshotHex =
    "4e504c53"                          // magic 'NPLS'
    "00000001"                          // version 1
    "0000000000000011"                  // epoch 17
    "00000002"                          // 2 sessions, by conn_id:
    "0000000000000004" "00000002aabb"   //   conn 4
    "0000000000000009" "00000001cc"     //   conn 9
    "499ac30a";                         // crc32 of everything above

TEST(CodecGolden, SnapshotFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("naplet-codec-golden-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "snapshot").string();

  recovery::SnapshotData data;
  data.epoch = 17;
  data.sessions[9] = {0xCC};
  data.sessions[4] = {0xAA, 0xBB};
  ASSERT_TRUE(recovery::Snapshot::write(path, data).ok());
  std::ifstream in(path, std::ios::binary);
  const util::Bytes file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(util::to_hex(span(file)), kSnapshotHex);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const util::Bytes golden = unhex(kSnapshotHex);
    out.write(reinterpret_cast<const char*>(golden.data()),
              static_cast<std::streamsize>(golden.size()));
  }
  auto read = recovery::Snapshot::read(path);
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->epoch, 17u);
  EXPECT_EQ(read->sessions, data.sessions);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace naplet
