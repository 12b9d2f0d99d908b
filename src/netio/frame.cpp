#include "netio/frame.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/buffer_recycler.hpp"
#include "common/result.hpp"
#include "hash/hashes.hpp"

namespace memfss::netio {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Patch the body checksum of the frame that starts at out[header].
void seal(std::vector<std::uint8_t>& out, std::size_t header) {
  const std::uint32_t crc = body_checksum(out.data() + header + kHeaderLen,
                                          out.size() - header - kHeaderLen);
  for (int i = 0; i < 4; ++i)
    out[header + 8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

}  // namespace

std::uint32_t body_checksum(const std::uint8_t* body, std::size_t n) {
  return hash::crc32c(body, n);
}

void encode_response(const Frame& f, std::span<const std::uint8_t> value,
                     std::vector<std::uint8_t>& out) {
  const std::size_t header = out.size();
  const std::size_t body = kResponseFixedLen + value.size();
  out.reserve(out.size() + kHeaderLen + body);
  put_u32(out, kResponseMagic);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u32(out, 0);  // body_crc, patched by seal()
  out.push_back(f.status);
  out.push_back(f.flags);
  put_u16(out, 0);
  put_u32(out, f.retry_after_us);
  put_u64(out, f.request_id);
  put_u64(out, f.seq);
  put_u64(out, f.checksum);
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  put_u32(out, f.value_size);
  out.insert(out.end(), value.begin(), value.end());
  seal(out, header);
}

void encode_frame(const Frame& f, std::vector<std::uint8_t>& out) {
  if (f.kind == Frame::Kind::response) {
    encode_response(f, f.value, out);
    return;
  }
  const std::size_t header = out.size();
  const std::size_t body = kRequestFixedLen + f.key.size() + f.value.size();
  out.reserve(out.size() + kHeaderLen + body);
  put_u32(out, kRequestMagic);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u32(out, 0);  // body_crc, patched by seal()
  out.push_back(f.opcode);
  out.push_back(f.flags);
  put_u16(out, 0);
  put_u32(out, f.tenant);
  put_u64(out, f.request_id);
  put_u32(out, static_cast<std::uint32_t>(f.key.size()));
  put_u32(out, static_cast<std::uint32_t>(f.value.size()));
  out.insert(out.end(), f.key.begin(), f.key.end());
  out.insert(out.end(), f.value.begin(), f.value.end());
  seal(out, header);
}

std::vector<std::uint8_t> encode(const Frame& f) {
  std::vector<std::uint8_t> out;
  encode_frame(f, out);
  return out;
}

FrameDecoder& FrameDecoder::operator=(FrameDecoder&& o) noexcept {
  max_body_ = o.max_body_;
  buf_ = std::move(o.buf_);
  cap_ = std::exchange(o.cap_, 0);
  off_ = std::exchange(o.off_, 0);
  end_ = std::exchange(o.end_, 0);
  failed_ = std::exchange(o.failed_, false);
  error_ = std::move(o.error_);
  return *this;
}

std::span<std::uint8_t> FrameDecoder::tail(std::size_t n) {
  if (off_ == end_) off_ = end_ = 0;  // all consumed: start over, no copy
  if (cap_ - end_ < n) {
    // Move the unconsumed bytes (at most one partial frame) to the
    // front, into a larger buffer when they and `n` do not fit.
    const std::size_t live = end_ - off_;
    if (live + n > cap_) {
      const std::size_t cap = std::max(2 * cap_, live + n);
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      if (live > 0) std::memcpy(grown.get(), buf_.get() + off_, live);
      buf_ = std::move(grown);
      cap_ = cap;
    } else if (live > 0) {
      std::memmove(buf_.get(), buf_.get() + off_, live);
    }
    off_ = 0;
    end_ = live;
  }
  return {buf_.get() + end_, n};
}

void FrameDecoder::commit(std::size_t n) {
  if (!failed_) end_ += n;  // the stream is already dead: don't hoard bytes
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (failed_ || n == 0) return;
  std::memcpy(tail(n).data(), data, n);
  commit(n);
}

Decode FrameDecoder::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  return Decode::error;
}

Decode FrameDecoder::next(Frame& out) {
  if (failed_) return Decode::error;
  // Magic and body_len (the first 8 header bytes) decide whether the
  // stream is bad, so reject it before the CRC field arrives.
  if (buffered() < 8) return Decode::need_more;
  const std::uint8_t* h = buf_.get() + off_;
  const std::uint32_t magic = get_u32(h);
  if (magic != kRequestMagic && magic != kResponseMagic)
    return fail("bad magic");
  const std::size_t body = get_u32(h + 4);
  if (body > max_body_) return fail("oversized body length");
  const bool request = magic == kRequestMagic;
  const std::size_t fixed = request ? kRequestFixedLen : kResponseFixedLen;
  if (body < fixed) return fail("short body");
  if (buffered() < kHeaderLen + body) return Decode::need_more;

  const std::uint8_t* b = h + kHeaderLen;
  if (get_u32(h + 8) != body_checksum(b, body))
    return fail("body checksum mismatch");
  // A value left in `out` (a caller reusing its Frame) goes back to the
  // recycler, and values of 4 KiB or more are taken from it.
  park_buffer(std::move(out.value));
  out = Frame{};
  if (request) {
    out.kind = Frame::Kind::request;
    out.opcode = b[0];
    if (out.opcode < static_cast<std::uint8_t>(Opcode::put) ||
        out.opcode > static_cast<std::uint8_t>(Opcode::auth))
      return fail("unknown opcode");
    out.flags = b[1];
    out.tenant = get_u32(b + 4);
    out.request_id = get_u64(b + 8);
    const std::size_t key_len = get_u32(b + 16);
    const std::size_t value_len = get_u32(b + 20);
    if (fixed + key_len + value_len != body)
      return fail("inconsistent request lengths");
    out.key.assign(reinterpret_cast<const char*>(b + fixed), key_len);
    out.value = take_copy({b + fixed + key_len, value_len});
  } else {
    out.kind = Frame::Kind::response;
    out.status = b[0];
    if (out.status > static_cast<std::uint8_t>(Errc::fatal))
      return fail("unknown status");
    out.flags = b[1];
    out.retry_after_us = get_u32(b + 4);
    out.request_id = get_u64(b + 8);
    out.seq = get_u64(b + 16);
    out.checksum = get_u64(b + 24);
    const std::size_t value_len = get_u32(b + 32);
    out.value_size = get_u32(b + 36);
    if (fixed + value_len != body)
      return fail("inconsistent response length");
    out.value = take_copy({b + fixed, value_len});
  }
  off_ += kHeaderLen + body;
  return Decode::frame;
}

}  // namespace memfss::netio
