// Bidirectional binary archive for agent-state migration.
//
// The paper relies on Java object serialization to carry an agent's data and
// in-flight message buffer across hosts. This is the C++ equivalent: user
// types implement a single `persist(Archive&)` method that both saves and
// restores, so the two directions can never drift apart.
//
//   struct Counter {
//     std::uint64_t count = 0;
//     std::string label;
//     void persist(naplet::util::Archive& ar) {
//       ar.field(count);
//       ar.field(label);
//     }
//   };
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::util {

/// One object that either writes fields to a buffer or reads them back,
/// chosen at construction. On read, any underflow, bool byte other than 0
/// or 1, duplicate map key or impossible container count latches a
/// kProtocolError status; callers check status() once at the end.
///
/// Container counts are bounded by the input: every element encodes to at
/// least one byte, so a count larger than the bytes left is refused before
/// anything is allocated, and elements are appended one at a time as they
/// decode. A hostile count therefore costs no more memory than the bytes
/// that actually arrived.
class Archive {
 public:
  /// Writing archive.
  Archive() : writer_(&owned_writer_) {}
  /// Reading archive over an encoded buffer.
  explicit Archive(ByteSpan data) : reader_(data) {}

  [[nodiscard]] bool is_writing() const noexcept { return writer_ != nullptr; }
  [[nodiscard]] bool is_reading() const noexcept { return writer_ == nullptr; }

  void field(bool& v);
  void field(std::uint8_t& v);
  void field(std::uint16_t& v);
  void field(std::uint32_t& v);
  void field(std::uint64_t& v);
  void field(std::int64_t& v);
  void field(double& v);
  void field(std::string& v);
  void field(Bytes& v);

  /// Enumerations travel as their underlying integer. Range checks belong
  /// to the record's decode, after the read.
  template <typename E>
    requires std::is_enum_v<E>
  void field(E& v) {
    auto raw = static_cast<std::underlying_type_t<E>>(v);
    field(raw);
    v = static_cast<E>(raw);
  }

  template <typename A, typename B>
  void field(std::pair<A, B>& p) {
    dispatch(p.first);
    dispatch(p.second);
  }

  template <typename T>
  void field(std::vector<T>& v) {
    sequence(v, [this](T& e) { dispatch(e); });
  }

  template <typename T>
  void field(std::deque<T>& v) {
    sequence(v, [this](T& e) { dispatch(e); });
  }

  template <typename K, typename V>
  void field(std::map<K, V>& m) {
    std::uint32_t n = static_cast<std::uint32_t>(m.size());
    if (!field_count(n)) return;
    if (is_writing()) {
      for (auto& [k, val] : m) {
        K key = k;  // map keys are const; serialize a copy
        dispatch(key);
        dispatch(val);
      }
      return;
    }
    m.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      K key{};
      V val{};
      dispatch(key);
      dispatch(val);
      if (ok() && !m.emplace(std::move(key), std::move(val)).second) {
        fail("duplicate map key");
      }
    }
  }

  /// Nested user type with a persist(Archive&) method.
  template <typename T>
    requires requires(T t, Archive& a) { t.persist(a); }
  void field(T& v) {
    v.persist(*this);
  }

  /// u32 count, then `each(element)` per element: a container whose
  /// elements need something other than field(), e.g. nested().
  template <typename C, typename Fn>
  void sequence(C& c, Fn&& each) {
    std::uint32_t n = static_cast<std::uint32_t>(c.size());
    if (!field_count(n)) return;
    if (is_writing()) {
      for (auto& e : c) each(e);
      return;
    }
    c.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      typename C::value_type e{};
      each(e);
      if (ok()) c.push_back(std::move(e));
    }
  }

  /// A persist()-able value carried as a u32-length-prefixed sub-record.
  /// On read the sub-record must be consumed exactly.
  template <typename T>
  void nested(T& v) {
    if (is_writing()) {
      const std::size_t at = writer_->size();
      writer_->u32(0);
      dispatch(v);
      writer_->patch_u32(
          at, static_cast<std::uint32_t>(writer_->size() - at - 4));
      return;
    }
    Bytes inner;
    field(inner);
    if (!ok()) return;
    Status st = decode(ByteSpan(inner.data(), inner.size()), v);
    if (!st.ok()) status_ = std::move(st);
  }

  [[nodiscard]] bool ok() const noexcept { return status_.ok(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// A reading archive's final verdict: its status, or an error when
  /// input is left over.
  [[nodiscard]] Status finish() const;

  /// Finished encoded bytes (writing archives only).
  [[nodiscard]] Bytes take_bytes() &&;
  [[nodiscard]] const Bytes& bytes() const;

  /// Encode any persist()-able object to bytes. A writing archive only
  /// reads the fields it visits, so a const object is safe to pass.
  template <typename T>
  static Bytes encode(const T& obj) {
    Archive ar;
    ar.field(const_cast<T&>(obj));
    return std::move(ar).take_bytes();
  }

  /// Decode bytes into a persist()-able object.
  template <typename T>
  static Status decode(ByteSpan data, T& obj) {
    Archive ar(data);
    ar.field(obj);
    return ar.finish();
  }

 private:
  template <typename T>
  void dispatch(T& v) {
    field(v);
  }

  /// Write `n`, or read it into `n`; false when reading failed or `n`
  /// cannot fit in the remaining input.
  bool field_count(std::uint32_t& n);
  void fail(std::string msg);

  BytesWriter owned_writer_;
  BytesWriter* writer_ = nullptr;
  std::optional<BytesReader> reader_;
  Status status_;
};

}  // namespace naplet::util
