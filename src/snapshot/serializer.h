// Byte-stable binary serialization primitives for simulation checkpoints.
//
// Serializer appends fixed-width little-endian fields to a growable buffer;
// Deserializer reads them back in the same order. The encoding has no
// platform-dependent padding, endianness, or container-iteration dependence,
// so the bytes produced for a given simulation state are identical across
// runs and machines — the property the divergence auditor (snapshot.h) and
// the checkpoint content hash rely on.
//
// Layering: this target (jgre_snapshot_io) depends only on jgre_common, so
// every simulation module (runtime, os, binder, services, core, defense) can
// implement SaveState/RestoreState hooks against it. The checkpoint file
// format and the per-module orchestration live one level up in snapshot.h.
#ifndef JGRE_SNAPSHOT_SERIALIZER_H_
#define JGRE_SNAPSHOT_SERIALIZER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jgre::snapshot {

// FNV-1a over a byte range; the checkpoint content hash in the manifest.
inline std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size,
                           std::uint64_t seed = 14695981039346656037ULL) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

class Serializer {
 public:
  // Room for a prefix key or a config fingerprint in one allocation.
  Serializer() { buffer_.reserve(128); }

  void U8(std::uint8_t v) { buffer_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(static_cast<std::uint64_t>(v)); }
  void F64(double v) { AppendLe(std::bit_cast<std::uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }
  // Debugging aid: a tag the reader must match, catching save/restore hooks
  // that drift out of step field-wise.
  void Marker(std::uint32_t tag) { U32(tag); }

  void U64Vec(const std::vector<std::uint64_t>& v) {
    U64(v.size());
    for (std::uint64_t x : v) U64(x);
  }
  void I64Vec(const std::vector<std::int64_t>& v) {
    U64(v.size());
    for (std::int64_t x : v) I64(x);
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }
  std::uint64_t Hash() const { return Fnv1a(buffer_.data(), buffer_.size()); }

 private:
  template <typename T>
  void AppendLe(T v) {
    static_assert(std::is_unsigned_v<T>);
    std::uint8_t bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    buffer_.insert(buffer_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t> buffer_;
};

class Deserializer {
 public:
  Deserializer(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Deserializer(const std::vector<std::uint8_t>& bytes)
      : Deserializer(bytes.data(), bytes.size()) {}

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str() { return std::string(StrView()); }
  // The next string where it lies in the stream, valid while the stream's
  // bytes are: a reader that compares or assigns it copies nothing.
  std::string_view StrView() {
    const std::uint64_t n = U64();
    const std::uint8_t* bytes = Take(n);
    if (!ok_) return {};
    return {reinterpret_cast<const char*>(bytes), static_cast<std::size_t>(n)};
  }

  // Block reads: the next `n` bytes where they lie, after one bounds check,
  // for a reader that decodes a block of fixed-width records with the Load
  // helpers below. Fails the stream if fewer than `n` bytes remain; check
  // ok() before reading through the result.
  const std::uint8_t* Take(std::uint64_t n) {
    if (!Need(n)) return nullptr;
    const std::uint8_t* bytes = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return bytes;
  }
  static std::uint32_t LoadU32(const std::uint8_t* bytes) {
    return LoadLe<std::uint32_t>(bytes);
  }
  static std::uint64_t LoadU64(const std::uint8_t* bytes) {
    return LoadLe<std::uint64_t>(bytes);
  }
  static std::int64_t LoadI64(const std::uint8_t* bytes) {
    return static_cast<std::int64_t>(LoadU64(bytes));
  }
  // Fails the stream (and all subsequent reads) if the next u32 != tag.
  void Marker(std::uint32_t tag) {
    const std::uint32_t got = U32();
    if (ok_ && got != tag) Fail("marker mismatch");
  }

  std::vector<std::uint64_t> U64Vec() {
    const std::uint64_t n = U64();
    std::vector<std::uint64_t> v;
    if (!NeedRecords(n, 8)) return v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(U64());
    return v;
  }
  std::vector<std::int64_t> I64Vec() {
    const std::uint64_t n = U64();
    std::vector<std::int64_t> v;
    if (!NeedRecords(n, 8)) return v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(I64());
    return v;
  }

  // Fails the stream unless `count` records of at least `min_bytes` each
  // still fit in it. A reader calls this before it sizes a table from a
  // count (or an id) it read: a corrupt image then fails the stream instead
  // of allocating. Divides rather than multiplies, so a count of 2^61 cannot
  // wrap `count * 8` to a small number.
  bool NeedRecords(std::uint64_t count, std::size_t min_bytes) {
    if (!ok_) return false;
    if ((size_ - pos_) / min_bytes < count) {
      Fail("truncated stream");
      return false;
    }
    return true;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }
  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }

 private:
  bool Need(std::uint64_t n) {
    if (!ok_) return false;
    if (size_ - pos_ < n) {
      Fail("truncated stream");
      return false;
    }
    return true;
  }
  template <typename T>
  static T LoadLe(const std::uint8_t* bytes) {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(bytes[i]) << (8 * i);
    }
    return v;
  }
  template <typename T>
  T ReadLe() {
    if (!Need(sizeof(T))) return 0;
    const T v = LoadLe<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// Restore storage: a restore refills the storage a table already has, but
// storage more than twice what the image needs is released first, so a
// system restored in place does not keep the peak tables of whatever it ran
// since (a pooled system that ran a 51,200-entry attack, say).
template <typename T>
void ReleaseIfOversized(std::vector<T>& table, std::size_t need) {
  if (table.capacity() > 2 * need) std::vector<T>().swap(table);
}

// Serializes an unordered associative container in ascending key order, so
// the bytes are independent of hash-bucket history (which a restore does not
// — and must not — reproduce). `save_entry(out, key, value)` writes one pair.
template <typename Map, typename SaveEntryFn>
void SaveUnorderedMap(Serializer& out, const Map& map, SaveEntryFn save_entry) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  out.U64(keys.size());
  for (const auto& key : keys) save_entry(out, key, map.at(key));
}

}  // namespace jgre::snapshot

#endif  // JGRE_SNAPSHOT_SERIALIZER_H_
