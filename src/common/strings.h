// String helpers: concatenation, joining, printf-style formatting.
#ifndef JGRE_COMMON_STRINGS_H_
#define JGRE_COMMON_STRINGS_H_

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jgre {

namespace strings_internal {

// Integers StrCat formats itself, exactly as a default-flagged ostream would.
// bool and one-byte integers stay on the stream: it prints `true` as "1" and
// `std::uint8_t{65}` as "A".
template <typename T>
inline constexpr bool kIsWideInteger = std::is_integral_v<T> && sizeof(T) > 1;

template <typename T>
inline constexpr bool kIsCString = std::is_same_v<std::decay_t<T>, char*> ||
                                   std::is_same_v<std::decay_t<T>, const char*>;

// Argument types StrCat appends without building an ostringstream: strings,
// C strings and char arrays, `char`, and integers wider than one byte. Any
// other type (double, bool, one-byte integers, enums, types with their own
// operator<<) sends the whole call through the stream.
template <typename T>
inline constexpr bool kAppendsDirectly =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    kIsCString<T> || std::is_same_v<T, char> || kIsWideInteger<T>;

// `ok` turns false at a null C string, after which nothing more is appended:
// the stream sets badbit there and drops every later argument.
template <typename T>
void AppendPiece(std::string& out, bool& ok, const T& value) {
  if (!ok) return;
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(value);
  } else if constexpr (kIsWideInteger<T>) {
    char digits[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
    const auto result = std::to_chars(digits, digits + sizeof(digits), value);
    out.append(digits, static_cast<std::size_t>(result.ptr - digits));
  } else if constexpr (kIsCString<T>) {
    const char* text = value;
    if (text == nullptr) {
      ok = false;
    } else {
      out.append(text);
    }
  } else {
    out.append(std::string_view(value));
  }
}

}  // namespace strings_internal

// StrCat("pid=", 42) -> "pid=42"; any ostream-able types, formatted as
// `std::ostringstream << ...` would.
template <typename... Args>
std::string StrCat(const Args&... args) {
  if constexpr ((strings_internal::kAppendsDirectly<Args> && ...)) {
    std::string out;
    bool ok = true;
    (strings_internal::AppendPiece(out, ok, args), ...);
    return out;
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

std::vector<std::string> StrSplit(std::string_view text, char sep);

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

bool StrStartsWith(std::string_view text, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace jgre

#endif  // JGRE_COMMON_STRINGS_H_
