// Hostile container counts: a record whose count claims more elements than
// the rest of the input could hold must fail with kProtocolError before
// anything large is allocated. The 13-byte batch frame below used to make
// BatchHandoffMsg::decode reserve 4G entries, throw std::bad_alloc on the
// redirector's worker thread and abort the process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/redirector.hpp"
#include "core/session.hpp"
#include "core/wire.hpp"
#include "net/frame.hpp"
#include "net/sim.hpp"
#include "recovery/journal.hpp"
#include "recovery/snapshot.hpp"
#include "util/serial.hpp"

// Largest single heap request made by the measuring thread. The global
// operator new is replaced in this test binary only.
namespace {
thread_local bool g_measuring = false;
thread_local std::size_t g_largest = 0;
}  // namespace

// Kept out of line so the compiler does not pair an inlined malloc with
// a free it cannot see.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_measuring && n > g_largest) g_largest = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace naplet {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kSmallAllocation = 64 * 1024;

/// Runs `decode` on `input` and returns its status; fails the test if any
/// single allocation along the way exceeded kSmallAllocation.
template <typename Fn>
util::Status decode_measured(const util::Bytes& input, Fn&& decode) {
  g_largest = 0;
  g_measuring = true;
  util::Status st = decode(util::ByteSpan(input.data(), input.size()));
  g_measuring = false;
  EXPECT_LT(g_largest, kSmallAllocation) << "largest allocation " << g_largest;
  return st;
}

util::Bytes unhex(const std::string& hex) {
  auto bytes = util::from_hex(hex);
  EXPECT_TRUE(bytes.ok()) << hex;
  return bytes.ok() ? *bytes : util::Bytes{};
}

// B7 | trace id | count 0xFFFFFFFF, and nothing else.
const util::Bytes kHostileBatch = unhex("b7" "0000000000000000" "ffffffff");

TEST(HostileCount, BatchHandoffMsg) {
  const util::Status st = decode_measured(kHostileBatch, [](util::ByteSpan in) {
    return nsock::BatchHandoffMsg::decode(in).status();
  });
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError) << st.to_string();
}

TEST(HostileCount, BatchHandoffReply) {
  const util::Status st =
      decode_measured(unhex("ffffffff"), [](util::ByteSpan in) {
        return nsock::BatchHandoffReply::decode(in).status();
      });
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError) << st.to_string();
}

TEST(HostileCount, GroupManifest) {
  const util::Status st =
      decode_measured(unhex("ffffffff"), [](util::ByteSpan in) {
        return recovery::GroupManifest::decode(in).status();
      });
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError) << st.to_string();
}

TEST(HostileCount, ArchiveVectorAtOldCap) {
  // 2^24 elements: sized up front, 512 MB of empty strings for a 4-byte
  // input.
  const util::Status st =
      decode_measured(unhex("01000000"), [](util::ByteSpan in) {
        std::vector<std::string> v;
        return util::Archive::decode(in, v);
      });
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError) << st.to_string();
}

TEST(HostileCount, CountsEqualToTheInputStillDecode) {
  // The bound is the bytes left, not a guess: n one-byte elements in
  // exactly n bytes must decode.
  std::vector<std::uint8_t> v;
  const util::Bytes input = unhex("00000003" "010203");
  ASSERT_TRUE(util::Archive::decode(util::ByteSpan(input.data(), input.size()),
                                    v)
                  .ok());
  EXPECT_EQ(v, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(HostileCount, SessionBufferCount) {
  const util::Bytes blob = unhex(
      "0000000000000001" "0000000000000002" "01"  // conn, verifier, client
      "0000000161" "0000000162"                   // agents "a", "b"
      "00000000"                                  // no session key
      "00000016" "00000000"                       // empty peer node
      "000000000000" "000000000000" "000000000000"
      "0000000000000000" "0000000000000000"       // tx_seq, rx_high
      "0000000000000000" "0000000000000000"       // delivered, replay_low
      "ffffffff");                                // buffered frame count
  const util::Status st = decode_measured(blob, [](util::ByteSpan in) {
    return nsock::Session::import_state(in).status();
  });
  EXPECT_EQ(st.code(), util::StatusCode::kProtocolError) << st.to_string();
}

TEST(HostileCount, SnapshotSessionCount) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("naplet-hostile-count-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "snapshot").string();
  // A well-formed header and CRC around a count the body cannot hold.
  util::BytesWriter w;
  w.u32(0x4E504C53);  // 'NPLS'
  w.u32(1);
  w.u64(1);
  w.u32(0xFFFFFFFF);
  w.u64(0);
  w.u32(util::crc32(w.data()));
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
  }
  auto read = recovery::Snapshot::read(path);
  EXPECT_EQ(read.status().code(), util::StatusCode::kProtocolError)
      << read.status().to_string();
  fs::remove_all(dir);
}

TEST(HostileCount, LiveRedirectorCountsBadHandoffAndKeepsServing) {
  net::SimNet world;
  auto server_node = world.add_node("server");
  auto client_node = world.add_node("client");
  std::atomic<int> handled{0};
  nsock::Redirector redirector(
      *server_node, 0,
      [&handled](std::shared_ptr<net::Stream> stream, nsock::HandoffMsg) {
        handled.fetch_add(1);
        stream->close();
      });
  ASSERT_TRUE(redirector.start().ok());

  {
    auto stream = client_node->connect(redirector.endpoint(), 2s);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(net::write_frame(**stream,
                                 util::ByteSpan(kHostileBatch.data(),
                                                kHostileBatch.size()))
                    .ok());
    // The worker rejects the frame and closes the stream without a reply.
    EXPECT_FALSE(net::read_frame(**stream).ok());
  }
  EXPECT_EQ(redirector.bad_handoffs(), 1u);

  // Still serving: a well-formed batch gets its disposition frame.
  nsock::BatchHandoffMsg batch;
  batch.trace_id = 1;
  nsock::HandoffMsg entry;
  entry.type = nsock::HandoffType::kResume;
  entry.conn_id = 7;
  entry.agent = "mover";
  batch.entries.push_back(entry);
  auto stream = client_node->connect(redirector.endpoint(), 2s);
  ASSERT_TRUE(stream.ok());
  const util::Bytes encoded = batch.encode();
  ASSERT_TRUE(net::write_frame(**stream, util::ByteSpan(encoded.data(),
                                                       encoded.size()))
                  .ok());
  auto frame = net::read_frame(**stream);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  auto reply = nsock::BatchHandoffReply::decode(
      util::ByteSpan(frame->data(), frame->size()));
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  ASSERT_EQ(reply->entries.size(), 1u);
  EXPECT_TRUE(reply->entries[0].ok);
  EXPECT_EQ(redirector.batch_exchanges(), 1u);
  EXPECT_EQ(redirector.bad_handoffs(), 1u);
  EXPECT_EQ(handled.load(), 0);
  redirector.stop();
}

}  // namespace
}  // namespace naplet
