#include "digest.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

void JsonlDigest::mix(std::uint64_t word) noexcept {
  const std::uint64_t x = hash_ ^ word;
  hash_ = ((x << 29) | (x >> 35)) * 0x9e3779b97f4a7c15ULL;
}

Digest JsonlDigest::digest() const noexcept {
  std::uint64_t x = hash_ ^ pending_ ^ (bytes_ << 3);
  x = ((x << 29) | (x >> 35)) * 0x9e3779b97f4a7c15ULL;
  return Digest{x ^ (x >> 31), bytes_, lines_};
}

void JsonlDigest::end_line() {
  const std::string prefix = "{\"index\":" + std::to_string(lines_) + ",";
  if (first_error_.empty() && head_.compare(0, prefix.size(), prefix) != 0) {
    first_error_ = "line " + std::to_string(lines_) +
                   " is not destination " + std::to_string(lines_);
  }
  ++lines_;
  head_.clear();
}

JsonlDigest::int_type JsonlDigest::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
  }
  return traits_type::not_eof(ch);
}

std::streamsize JsonlDigest::xsputn(const char* data, std::streamsize size) {
  const auto n = static_cast<std::size_t>(size);
  bytes_ += n;
  std::size_t i = 0;
  while (i < n) {
    if (pending_len_ == 0 && n - i >= 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, data + i, 8);
      mix(word);
      i += 8;
      continue;
    }
    pending_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
                << (8 * pending_len_);
    ++i;
    if (++pending_len_ == 8) {
      mix(pending_);
      pending_ = 0;
      pending_len_ = 0;
    }
  }
  for (std::size_t pos = 0; pos < n;) {
    const void* found = std::memchr(data + pos, '\n', n - pos);
    const std::size_t end =
        found == nullptr ? n : static_cast<std::size_t>(
                                   static_cast<const char*>(found) - data);
    if (head_.size() < kHead) {
      head_.append(data + pos, std::min(kHead - head_.size(), end - pos));
    }
    if (found == nullptr) break;
    end_line();
    pos = end + 1;
  }
  return size;
}

std::string JsonlDigest::order_error(std::uint64_t count) const {
  if (!first_error_.empty()) return first_error_;
  if (!head_.empty()) return "last line not newline-terminated";
  if (lines_ != count) {
    return std::to_string(lines_) + " lines for " + std::to_string(count) +
           " destinations";
  }
  return "";
}

}  // namespace perfbench
