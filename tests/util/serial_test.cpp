#include "util/serial.hpp"

#include <gtest/gtest.h>

namespace naplet::util {
namespace {

struct Inner {
  std::uint32_t x = 0;
  std::string tag;
  void persist(Archive& ar) {
    ar.field(x);
    ar.field(tag);
  }
  friend bool operator==(const Inner&, const Inner&) = default;
};

struct Outer {
  std::uint64_t id = 0;
  double weight = 0;
  bool flag = false;
  std::vector<std::uint32_t> values;
  std::vector<Inner> inners;
  std::map<std::string, std::uint64_t> counters;
  Bytes blob;
  void persist(Archive& ar) {
    ar.field(id);
    ar.field(weight);
    ar.field(flag);
    ar.field(values);
    ar.field(inners);
    ar.field(counters);
    ar.field(blob);
  }
  friend bool operator==(const Outer&, const Outer&) = default;
};

TEST(Archive, RoundTripComposite) {
  Outer original;
  original.id = 0xDEADBEEFCAFEULL;
  original.weight = -2.5;
  original.flag = true;
  original.values = {1, 2, 3, 4000000000u};
  original.inners = {{7, "seven"}, {8, "eight"}};
  original.counters = {{"a", 1}, {"b", 2}};
  original.blob = {0x00, 0xFF, 0x10};

  const Bytes encoded = Archive::encode(original);
  Outer decoded;
  ASSERT_TRUE(Archive::decode(ByteSpan(encoded.data(), encoded.size()),
                              decoded)
                  .ok());
  EXPECT_EQ(decoded, original);
}

TEST(Archive, EmptyContainers) {
  Outer original;
  const Bytes encoded = Archive::encode(original);
  Outer decoded;
  decoded.values = {9, 9};  // must be cleared by decode
  ASSERT_TRUE(Archive::decode(ByteSpan(encoded.data(), encoded.size()),
                              decoded)
                  .ok());
  EXPECT_EQ(decoded, original);
}

TEST(Archive, TruncatedInputFails) {
  Outer original;
  original.values = {1, 2, 3};
  Bytes encoded = Archive::encode(original);
  encoded.resize(encoded.size() / 2);
  Outer decoded;
  EXPECT_FALSE(Archive::decode(ByteSpan(encoded.data(), encoded.size()),
                               decoded)
                   .ok());
}

TEST(Archive, TrailingBytesFail) {
  Outer original;
  Bytes encoded = Archive::encode(original);
  encoded.push_back(0);
  Outer decoded;
  auto status =
      Archive::decode(ByteSpan(encoded.data(), encoded.size()), decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);
}

TEST(Archive, HugeContainerCountRejected) {
  // A corrupt length prefix must not cause a giant allocation.
  BytesWriter w;
  w.u32(0xFFFFFFFF);
  Bytes encoded = std::move(w).take();
  Archive ar(ByteSpan(encoded.data(), encoded.size()));
  std::vector<std::uint32_t> v;
  ar.field(v);
  EXPECT_FALSE(ar.ok());
}

TEST(Archive, BoolBytesOtherThanZeroOrOneRejected) {
  const Bytes encoded = {0x02};
  bool v = false;
  auto status = Archive::decode(ByteSpan(encoded.data(), encoded.size()), v);
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);
}

TEST(Archive, DuplicateMapKeyRejected) {
  BytesWriter w;
  w.u32(2);
  for (int i = 0; i < 2; ++i) {
    w.str("k");
    w.u64(static_cast<std::uint64_t>(i));
  }
  const Bytes encoded = std::move(w).take();
  std::map<std::string, std::uint64_t> m;
  auto status = Archive::decode(ByteSpan(encoded.data(), encoded.size()), m);
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);
}

TEST(Archive, ModeFlags) {
  Archive writing;
  EXPECT_TRUE(writing.is_writing());
  EXPECT_FALSE(writing.is_reading());
  Bytes buf;
  Archive reading((ByteSpan(buf.data(), buf.size())));
  EXPECT_TRUE(reading.is_reading());
}

TEST(Archive, MapOrderIndependence) {
  std::map<std::string, std::uint64_t> m = {{"z", 26}, {"a", 1}, {"m", 13}};
  Archive w;
  w.field(m);
  Bytes encoded = std::move(w).take_bytes();
  std::map<std::string, std::uint64_t> decoded;
  Archive r((ByteSpan(encoded.data(), encoded.size())));
  r.field(decoded);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decoded, m);
}

TEST(Archive, NestedVectorsOfStructs) {
  std::vector<Inner> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = Inner{static_cast<std::uint32_t>(i), std::to_string(i)};
  }
  Archive w;
  w.field(v);
  Bytes encoded = std::move(w).take_bytes();
  std::vector<Inner> decoded;
  Archive r((ByteSpan(encoded.data(), encoded.size())));
  r.field(decoded);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decoded, v);
}

}  // namespace
}  // namespace naplet::util
