// Parcel — typed transaction payload container.
//
// Values are written by the sender and read sequentially by the receiver.
// The JGRE-critical operation is ReadStrongBinder: like
// `Parcel.nativeReadStrongBinder` → `javaObjectForIBinder`, reading a strong
// binder in a process either returns the cached BinderProxy for that node or
// creates a new proxy taking **one JNI global reference** in the reading
// process. This is the Java JGR entry the paper's extractor identifies and
// the channel through which IPC callers push JGRs into victims.
#ifndef JGRE_BINDER_PARCEL_H_
#define JGRE_BINDER_PARCEL_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "binder/ibinder.h"

namespace jgre::binder {

class BinderDriver;

class Parcel {
 public:
  Parcel() = default;

  // --- writers (sender side) ----------------------------------------------

  void WriteInterfaceToken(std::string_view descriptor);
  void WriteInt32(std::int32_t value);
  void WriteInt64(std::int64_t value);
  void WriteBool(bool value);
  void WriteString(const std::string& value);
  // Only the size matters for the cost model; contents are not simulated.
  void WriteByteArray(std::uint64_t num_bytes);
  // Flattens the binder to its node handle (flat_binder_object).
  void WriteStrongBinder(const std::shared_ptr<IBinder>& binder);
  void WriteNullBinder();
  // A file descriptor (BINDER_TYPE_FD): the driver dups it into the receiver
  // on read — the §VI resource the JGRE analysis does not cover.
  void WriteFileDescriptor();

  // --- readers (receiver side) ----------------------------------------------

  // Readers validate the value kind at the cursor; a type confusion returns
  // kInvalidArgument (binder would signal a bad parcel).
  Status EnforceInterface(std::string_view descriptor) const;
  Result<std::int32_t> ReadInt32() const;
  Result<std::int64_t> ReadInt64() const;
  Result<bool> ReadBool() const;
  Result<std::string> ReadString() const;
  // The string at the cursor where it lies in the parcel (valid while the
  // parcel is): a reader that only checks or compares it copies nothing.
  Result<std::string_view> ReadStringView() const;
  Result<std::uint64_t> ReadByteArray() const;

  // Materializes the strong binder in the receiving process identified by
  // `ctx` — creating the BinderProxy object and its JGR when the node is new
  // to that process. Returns an invalid StrongBinder for a null binder.
  Result<StrongBinder> ReadStrongBinder(const CallContext& ctx) const;

  // Dups the fd into the receiving process's table (one open fd); fails with
  // kResourceExhausted at RLIMIT_NOFILE — fatally for system_server.
  Status ReadFileDescriptor(const CallContext& ctx) const;

  void RewindRead() const { cursor_ = 0; }

  // Total payload size for the transport cost model.
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::size_t value_count() const { return value_count_; }
  bool has_binders() const { return has_binders_; }

 private:
  struct InterfaceToken {
    std::string descriptor;
  };
  struct FlatBinder {
    NodeId node;  // invalid => null binder
  };
  struct ByteArray {
    std::uint64_t size;
  };
  struct FileDescriptor {};
  // std::monostate marks an inline slot no value was written to yet.
  using Value =
      std::variant<std::monostate, InterfaceToken, std::int32_t, std::int64_t,
                   bool, std::string, ByteArray, FlatBinder, FileDescriptor>;

  // Every parcel the benches write holds at most five values (the per-count
  // distribution is in CHANGES.md), so those stay inside the object and
  // longer parcels spill the rest to the heap.
  static constexpr std::size_t kInlineValues = 5;

  void Append(Value value);
  const Value& At(std::size_t index) const {
    return index < kInlineValues ? inline_values_[index]
                                 : spilled_values_[index - kInlineValues];
  }
  // The value at the cursor if it holds a T (the cursor then moves past it);
  // else a read-past-end or type-confusion error.
  template <typename T>
  Result<const T*> ReadValue() const;

  std::array<Value, kInlineValues> inline_values_;
  std::vector<Value> spilled_values_;  // values past the inline ones, in order
  std::size_t value_count_ = 0;
  mutable std::size_t cursor_ = 0;
  std::uint64_t payload_bytes_ = 0;
  bool has_binders_ = false;
};

}  // namespace jgre::binder

#endif  // JGRE_BINDER_PARCEL_H_
