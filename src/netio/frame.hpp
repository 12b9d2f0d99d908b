// Wire protocol for the rt runtime's TCP serving path (DESIGN.md §13):
// a RESP-like length-prefixed binary framing, pipelined, with explicit
// error frames.
//
// Every frame is `magic(4) | body_len(4) | body_crc(4) | body`,
// little-endian, where the magic distinguishes requests from responses,
// the body length is bounded by the decoder (oversized prefixes are a
// protocol error, not an allocation) and body_crc is hash::crc32c of
// the body bytes. Request bodies carry an opcode
// (PUT/GET/DEL/EXISTS/AUTH), the tenant slot, a client-chosen request
// id echoed back verbatim (pipelining: responses may complete out of
// order, the id is the correlation key), and the key/value payloads.
// Response bodies carry the Errc status, a flags byte (found / has-seq
// / protocol-error), the retry-after hint in microseconds for
// OVERLOADED sheds, the shard serialization index, and the value bytes
// plus their checksum (so a client can fold result digests without
// recomputing, and ghost blobs -- size-only values -- survive the wire
// as size + checksum with no payload).
//
// The decoder is incremental and byte-exact: feed() any split of the
// stream (or recv() straight into its tail() and commit() it), next() yields need_more, one decoded frame, or a sticky
// error (bad magic, oversized body, short body, unknown opcode/status,
// inconsistent lengths, body checksum mismatch). It never throws and
// never reads past its buffer -- the fuzz suite
// (tests/test_netio_codec.cpp) holds it to that under random mutation.
//
// Integrity: body_crc is CRC32C over the whole body, kept in the header
// so no body field is zeroed before hashing. CRC32C detects every
// error burst of up to 32 bits -- so every single-bit and single-byte
// corruption -- and, unlike an order-blind byte sum, a swap of two body
// bytes. A bit-flipped status, request id, or payload byte therefore
// surfaces as a decoder error instead of silently wrong data -- the
// property the chaos layer (netio::ChaosProxy + ResilientClient)
// leans on. Header corruption is caught by the magic, the CRC and the
// length-consistency checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace memfss::netio {

/// Frame magics ("MFQ2" requests, "MFS2" responses, as on-wire bytes).
inline constexpr std::uint32_t kRequestMagic = 0x3251464Du;
inline constexpr std::uint32_t kResponseMagic = 0x3253464Du;

/// Default cap on a frame body; an advertised length past the decoder's
/// cap is a protocol error (a malicious 4GiB prefix must not allocate).
inline constexpr std::size_t kDefaultMaxBody = 16u << 20;

/// Request opcodes. 0 is deliberately invalid so a zeroed body decodes
/// to an error, not a PUT.
enum class Opcode : std::uint8_t {
  put = 1,
  get = 2,
  del = 3,
  exists = 4,
  auth = 5,
};

/// Response flag bits.
inline constexpr std::uint8_t kFlagFound = 0x1;     ///< exists: key present
inline constexpr std::uint8_t kFlagHasSeq = 0x2;    ///< seq field is engaged
/// The server detected a malformed stream: this frame is the last one
/// on the connection and carries no request id (there is no longer a
/// trustworthy framing to attribute it to).
inline constexpr std::uint8_t kFlagProtocolError = 0x4;

/// One decoded frame, request or response (kind tells which; the
/// other direction's fields are zero). Field layout documentation --
/// offsets within the body, all little-endian:
///
///   request:  opcode u8 | flags u8 | zero u16 | tenant u32 |
///             request_id u64 | key_len u32 | value_len u32 |
///             key bytes | value bytes
///   response: status u8 | flags u8 | zero u16 | retry_after_us u32 |
///             request_id u64 | seq u64 | checksum u64 |
///             value_len u32 | value_size u32 | value bytes
///
/// (request fixed part: 24 bytes; response fixed part: 40 bytes)
struct Frame {
  enum class Kind : std::uint8_t { request, response };
  Kind kind = Kind::request;

  // Request fields.
  std::uint8_t opcode = 0;  ///< Opcode; validated by the decoder
  std::uint32_t tenant = 0;
  std::string key;

  // Response fields.
  std::uint8_t status = 0;  ///< Errc, validated <= last known code
  std::uint8_t flags = 0;
  std::uint32_t retry_after_us = 0;  ///< OVERLOADED: hint, else 0
  std::uint64_t seq = 0;             ///< valid iff kFlagHasSeq
  std::uint64_t checksum = 0;        ///< value checksum (get responses)
  std::uint32_t value_size = 0;      ///< logical size (ghost: > value len)

  // Shared.
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> value;

  bool operator==(const Frame&) const = default;
};

/// Room a socket reader asks FrameDecoder::tail() for per recv().
inline constexpr std::size_t kRecvChunk = 64 * 1024;

inline constexpr std::size_t kHeaderLen = 12;  ///< magic + body_len + body_crc
inline constexpr std::size_t kRequestFixedLen = 24;  ///< body before key
inline constexpr std::size_t kResponseFixedLen = 40;  ///< body before value

/// The body integrity checksum carried at header offset 8:
/// hash::crc32c of `body[0..n)`. Exposed for tests and for tools that
/// patch frames in place.
std::uint32_t body_checksum(const std::uint8_t* body, std::size_t n);

/// Serialize `f` (using the fields of its kind) and append to `out`.
void encode_frame(const Frame& f, std::vector<std::uint8_t>& out);

/// Serialize response `f` with `value` as its value bytes (`f.value` is
/// not read) and append to `out`: a server encodes a GET hit straight
/// from the stored bytes, with no Frame-owned copy.
void encode_response(const Frame& f, std::span<const std::uint8_t> value,
                     std::vector<std::uint8_t>& out);

/// Convenience: encode into a fresh buffer.
std::vector<std::uint8_t> encode(const Frame& f);

enum class Decode : std::uint8_t {
  need_more,  ///< no complete frame buffered yet
  frame,      ///< one frame produced
  error,      ///< malformed stream; sticky, connection must close
};

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_body = kDefaultMaxBody)
      : max_body_(max_body) {}
  FrameDecoder(FrameDecoder&& o) noexcept { *this = std::move(o); }
  FrameDecoder& operator=(FrameDecoder&& o) noexcept;

  /// Writable room for at least `n` more stream bytes, after the ones
  /// buffered: a reader recv()s straight into it and then commit()s
  /// what arrived, so each received byte is copied once, into the
  /// value it belongs to. Valid until the next call on the decoder.
  std::span<std::uint8_t> tail(std::size_t n);
  /// Append the first `n` bytes written into the last tail() (n no
  /// more than its size).
  void commit(std::size_t n);

  /// Append raw stream bytes in any split (a copy into tail()).
  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Try to decode the next frame out of the buffered bytes. After an
  /// error every subsequent call returns error (the stream can no
  /// longer be trusted to realign).
  Decode next(Frame& out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by a decoded frame.
  std::size_t buffered() const { return end_ - off_; }

 private:
  Decode fail(const std::string& why);

  std::size_t max_body_ = kDefaultMaxBody;
  /// Stream bytes [off_, end_) of cap_; not zeroed, so room that tail()
  /// hands out costs no page until a byte lands in it.
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t off_ = 0;  ///< consumed prefix of buf_
  std::size_t end_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace memfss::netio
