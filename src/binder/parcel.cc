#include "binder/parcel.h"

#include "binder/binder_driver.h"
#include "common/strings.h"

namespace jgre::binder {

namespace {
// Approximate wire sizes for the transport cost model.
constexpr std::uint64_t kInt32Bytes = 4;
constexpr std::uint64_t kInt64Bytes = 8;
constexpr std::uint64_t kBoolBytes = 4;
constexpr std::uint64_t kFlatBinderBytes = 24;  // sizeof(flat_binder_object)
}  // namespace

void Parcel::WriteInterfaceToken(std::string_view descriptor) {
  payload_bytes_ += descriptor.size() * 2 + 8;  // UTF-16 + strict mode header
  Append(InterfaceToken{std::string(descriptor)});
}

void Parcel::WriteInt32(std::int32_t value) {
  payload_bytes_ += kInt32Bytes;
  Append(value);
}

void Parcel::WriteInt64(std::int64_t value) {
  payload_bytes_ += kInt64Bytes;
  Append(value);
}

void Parcel::WriteBool(bool value) {
  payload_bytes_ += kBoolBytes;
  Append(value);
}

void Parcel::WriteString(const std::string& value) {
  payload_bytes_ += value.size() * 2 + 4;
  Append(value);
}

void Parcel::WriteByteArray(std::uint64_t num_bytes) {
  payload_bytes_ += num_bytes + 4;
  Append(ByteArray{num_bytes});
}

void Parcel::WriteStrongBinder(const std::shared_ptr<IBinder>& binder) {
  payload_bytes_ += kFlatBinderBytes;
  has_binders_ = true;
  Append(FlatBinder{binder == nullptr ? NodeId{} : binder->node()});
}

void Parcel::WriteNullBinder() {
  payload_bytes_ += kFlatBinderBytes;
  has_binders_ = true;  // still a flat_binder_object in the objects array
  Append(FlatBinder{NodeId{}});
}

void Parcel::Append(Value value) {
  if (value_count_ < kInlineValues) {
    inline_values_[value_count_] = std::move(value);
  } else {
    spilled_values_.push_back(std::move(value));
  }
  ++value_count_;
}

template <typename T>
Result<const T*> Parcel::ReadValue() const {
  if (cursor_ >= value_count_) {
    return InvalidArgument("parcel read past end");
  }
  const T* value = std::get_if<T>(&At(cursor_));
  if (value == nullptr) {
    return InvalidArgument(
        StrCat("parcel type confusion at index ", cursor_));
  }
  ++cursor_;
  return value;
}

Status Parcel::EnforceInterface(std::string_view descriptor) const {
  auto token = ReadValue<InterfaceToken>();
  if (!token.ok()) return token.status();
  if (token.value()->descriptor != descriptor) {
    return InvalidArgument(StrCat("interface token mismatch: expected ",
                                  descriptor, ", got ",
                                  token.value()->descriptor));
  }
  return Status::Ok();
}

Result<std::int32_t> Parcel::ReadInt32() const {
  auto value = ReadValue<std::int32_t>();
  if (!value.ok()) return value.status();
  return *value.value();
}

Result<std::int64_t> Parcel::ReadInt64() const {
  auto value = ReadValue<std::int64_t>();
  if (!value.ok()) return value.status();
  return *value.value();
}

Result<bool> Parcel::ReadBool() const {
  auto value = ReadValue<bool>();
  if (!value.ok()) return value.status();
  return *value.value();
}

Result<std::string> Parcel::ReadString() const {
  auto value = ReadValue<std::string>();
  if (!value.ok()) return value.status();
  return *value.value();
}

Result<std::string_view> Parcel::ReadStringView() const {
  auto value = ReadValue<std::string>();
  if (!value.ok()) return value.status();
  return std::string_view(*value.value());
}

Result<std::uint64_t> Parcel::ReadByteArray() const {
  auto arr = ReadValue<ByteArray>();
  if (!arr.ok()) return arr.status();
  return arr.value()->size;
}

void Parcel::WriteFileDescriptor() {
  payload_bytes_ += kFlatBinderBytes;  // also a flat_binder_object
  Append(FileDescriptor{});
}

Status Parcel::ReadFileDescriptor(const CallContext& ctx) const {
  auto fd = ReadValue<FileDescriptor>();
  if (!fd.ok()) return fd.status();
  return ctx.driver->kernel().AllocFds(ctx.self_pid, 1);
}

Result<StrongBinder> Parcel::ReadStrongBinder(const CallContext& ctx) const {
  auto flat = ReadValue<FlatBinder>();
  if (!flat.ok()) return flat.status();
  if (!flat.value()->node.valid()) {
    return StrongBinder{};  // null binder
  }
  // javaObjectForIBinder: materialize in the *reading* process — this is the
  // JGR entry point Parcel.nativeReadStrongBinder reaches in the paper's
  // native call-graph analysis.
  return ctx.driver->MaterializeBinder(flat.value()->node, ctx.self_pid);
}

}  // namespace jgre::binder
