// A JSONL stream that keeps no text: it hashes every byte (a 64-bit
// multiply-rotate hash over 8-byte words, independent of how the writes
// are chunked) and checks, line by line, that destination i's line is
// the i-th line. Two runs produced byte-identical output when their digests
// are equal; the benchmark's memory then stays the program's own.
#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>

namespace perfbench {

struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

class JsonlDigest final : public std::streambuf {
 public:
  JsonlDigest() : stream_(this) {}
  JsonlDigest(const JsonlDigest&) = delete;
  JsonlDigest& operator=(const JsonlDigest&) = delete;

  [[nodiscard]] std::ostream& stream() noexcept { return stream_; }
  [[nodiscard]] Digest digest() const noexcept;

  /// Empty when exactly `count` newline-terminated lines arrived and line
  /// i began `{"index":i,`; otherwise what went wrong first.
  [[nodiscard]] std::string order_error(std::uint64_t count) const;

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* data, std::streamsize size) override;

 private:
  void mix(std::uint64_t word) noexcept;
  void end_line();

  static constexpr std::size_t kHead = 32;
  std::uint64_t hash_ = 0x243f6a8885a308d3ULL;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
  std::uint64_t pending_ = 0;  ///< bytes not yet forming a whole word
  unsigned pending_len_ = 0;
  std::string head_;  ///< the first kHead bytes of the current line
  std::string first_error_;
  std::ostream stream_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H
