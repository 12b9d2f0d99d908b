// Protocol codec property tests (DESIGN.md §13): the FrameDecoder must
// be the exact inverse of encode() no matter how the byte stream is
// sliced, and must *never* crash or over-allocate on adversarial
// input -- every feed ends in need_more, a decoded frame, or a sticky
// error, nothing else.
//
//   1. Round-trip: random frames (both kinds, all opcodes, empty and
//      large keys/values) encode -> decode to equal frames.
//   2. Split-feed: the same byte stream fed 1 byte at a time, and in
//      random-sized slices, decodes to the identical frame sequence.
//   3. Mutation fuzz: >= 100k random byte mutations over valid streams;
//      the decoder must always return need_more/frame/error and never
//      read out of bounds (ASan is the referee) or allocate from a
//      length prefix beyond its bound.
//   4. Integrity: body_checksum equals a bit-at-a-time CRC32C
//      reference on every length and at the body bound; every bit flip
//      and every swap of two distinct body bytes is rejected; one
//      request and one response frame encode to pinned bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netio/frame.hpp"

namespace memfss::netio {
namespace {

Frame random_request(Rng& rng) {
  Frame f;
  f.kind = Frame::Kind::request;
  f.opcode = static_cast<std::uint8_t>(rng.uniform_u64(1, 5));
  f.tenant = static_cast<std::uint32_t>(rng.uniform_u64(0, 1u << 20));
  f.request_id = rng.next_u64();
  const std::size_t klen = rng.uniform_u64(0, 64);
  for (std::size_t i = 0; i < klen; ++i)
    f.key.push_back(static_cast<char>(rng.uniform_u64(0, 255)));
  if (f.opcode == static_cast<std::uint8_t>(Opcode::put)) {
    const std::size_t vlen = rng.uniform_u64(0, 4096);
    f.value.resize(vlen);
    for (auto& b : f.value)
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  }
  return f;
}

Frame random_response(Rng& rng) {
  Frame f;
  f.kind = Frame::Kind::response;
  f.status = static_cast<std::uint8_t>(rng.uniform_u64(0, 16));
  f.flags = static_cast<std::uint8_t>(rng.uniform_u64(0, 7));
  f.retry_after_us = static_cast<std::uint32_t>(rng.uniform_u64(0, 1u << 30));
  f.request_id = rng.next_u64();
  f.seq = rng.next_u64();
  f.checksum = rng.next_u64();
  if (rng.chance(0.25)) {
    // Ghost-style response: logical size + checksum, no payload bytes.
    f.value_size = static_cast<std::uint32_t>(rng.uniform_u64(1, 1u << 24));
  } else {
    const std::size_t vlen = rng.uniform_u64(0, 4096);
    f.value.resize(vlen);
    for (auto& b : f.value)
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    f.value_size = static_cast<std::uint32_t>(f.value.size());
  }
  return f;
}

Frame random_frame(Rng& rng) {
  return rng.chance(0.5) ? random_request(rng) : random_response(rng);
}

TEST(NetioCodec, RoundTripRandomFrames) {
  Rng rng(1);
  for (int iter = 0; iter < 2000; ++iter) {
    const Frame in = random_frame(rng);
    FrameDecoder dec;
    const auto bytes = encode(in);
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_EQ(dec.next(out), Decode::frame) << "iter " << iter;
    EXPECT_EQ(out, in) << "iter " << iter;
    EXPECT_EQ(dec.next(out), Decode::need_more);
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

// A response whose value is passed apart from the Frame encodes to the
// same bytes as the Frame holding that value.
TEST(NetioCodec, ResponseWithExternalValueEncodesIdentically) {
  Rng rng(5);
  for (int iter = 0; iter < 500; ++iter) {
    const Frame in = random_response(rng);
    Frame head = in;
    head.value.clear();
    std::vector<std::uint8_t> out{0xee};  // appends after existing bytes
    encode_response(head, in.value, out);
    std::vector<std::uint8_t> want{0xee};
    encode_frame(in, want);
    ASSERT_EQ(out, want) << "iter " << iter;
  }
}

TEST(NetioCodec, OneByteAtATimeDecoding) {
  Rng rng(2);
  std::vector<Frame> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(random_frame(rng));
    encode_frame(frames.back(), stream);
  }
  FrameDecoder dec;
  std::size_t decoded = 0;
  for (const std::uint8_t b : stream) {
    dec.feed(&b, 1);
    Frame out;
    Decode d;
    while ((d = dec.next(out)) == Decode::frame) {
      ASSERT_LT(decoded, frames.size());
      EXPECT_EQ(out, frames[decoded]);
      ++decoded;
    }
    ASSERT_EQ(d, Decode::need_more);
  }
  EXPECT_EQ(decoded, frames.size());
}

TEST(NetioCodec, RandomSplitDecoding) {
  Rng rng(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<Frame> frames;
    std::vector<std::uint8_t> stream;
    const int n = static_cast<int>(rng.uniform_u64(1, 32));
    for (int i = 0; i < n; ++i) {
      frames.push_back(random_frame(rng));
      encode_frame(frames.back(), stream);
    }
    FrameDecoder dec;
    std::size_t decoded = 0, off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform_u64(1, 300), stream.size() - off);
      dec.feed(stream.data() + off, chunk);
      off += chunk;
      Frame out;
      Decode d;
      while ((d = dec.next(out)) == Decode::frame) {
        ASSERT_LT(decoded, frames.size());
        EXPECT_EQ(out, frames[decoded]);
        ++decoded;
      }
      ASSERT_EQ(d, Decode::need_more);
    }
    EXPECT_EQ(decoded, frames.size());
  }
}

// Decoder bound: a length prefix past max_body must be a protocol
// error, not a 2 GiB allocation.
TEST(NetioCodec, OversizedLengthPrefixIsError) {
  std::vector<std::uint8_t> bytes;
  const std::uint32_t magic = kRequestMagic;
  const std::uint32_t body = 1u << 31;
  bytes.resize(8);
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &body, 4);
  FrameDecoder dec(1u << 20);
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(dec.next(out), Decode::error);
  EXPECT_TRUE(dec.failed());
  // Sticky: more bytes never resurrect the stream.
  dec.feed(bytes.data(), bytes.size());
  EXPECT_EQ(dec.next(out), Decode::error);
}

TEST(NetioCodec, BadMagicIsError) {
  Rng rng(4);
  auto bytes = encode(random_frame(rng));
  bytes[0] ^= 0xff;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(dec.next(out), Decode::error);
  EXPECT_FALSE(dec.error().empty());
}

// The acceptance-criteria fuzz loop: >= 100k mutated frames, decoder
// never crashes, every next() is need_more/frame/error.
TEST(NetioCodec, MutationFuzzNeverCrashes) {
  Rng rng(5);
  std::uint64_t mutations = 0, decoded = 0, errors = 0;
  while (mutations < 120000) {
    // A small valid stream, then 1-4 byte mutations anywhere in it.
    std::vector<std::uint8_t> stream;
    const int n = static_cast<int>(rng.uniform_u64(1, 4));
    for (int i = 0; i < n; ++i) encode_frame(random_frame(rng), stream);
    const int flips = static_cast<int>(rng.uniform_u64(1, 4));
    for (int i = 0; i < flips; ++i, ++mutations) {
      const std::size_t pos = rng.uniform_u64(0, stream.size() - 1);
      switch (rng.uniform_u64(0, 2)) {
        case 0: stream[pos] ^= 1u << rng.uniform_u64(0, 7); break;
        case 1: stream[pos] = static_cast<std::uint8_t>(
                    rng.uniform_u64(0, 255)); break;
        default: stream[pos] = 0xff; break;
      }
    }
    // Also fuzz truncation: sometimes drop a tail.
    if (rng.chance(0.3))
      stream.resize(rng.uniform_u64(0, stream.size()));

    FrameDecoder dec(1u << 20);
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform_u64(1, 4096), stream.size() - off);
      dec.feed(stream.data() + off, chunk);
      off += chunk;
      Frame out;
      for (;;) {
        const Decode d = dec.next(out);
        if (d == Decode::frame) { ++decoded; continue; }
        ASSERT_TRUE(d == Decode::need_more || d == Decode::error);
        if (d == Decode::error) ++errors;
        break;
      }
      if (dec.failed()) break;
    }
  }
  ASSERT_GE(mutations, 100000u);
  // Both outcomes must actually occur or the fuzz has no teeth.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(errors, 0u);
}

// Torn-frame delivery (ISSUE 9 satellite): a valid multi-frame stream
// fed through *every* split point -- including splits inside the 8-byte
// length prefix and inside a body -- must decode to the exact frame
// sequence, never a partial frame, never a stuck stream. Each split
// point gets the stream twice: once torn at the split, then the whole
// stream again through the same decoder (a decoder that survives a torn
// delivery must keep decoding the connection afterwards).
TEST(NetioCodec, TornFrameEverySplitPointTwice) {
  Rng rng(6);
  std::vector<Frame> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 4; ++i) {
    Frame f = random_frame(rng);
    // Keep payloads small so every-split-point stays fast.
    if (f.value.size() > 48) f.value.resize(48);
    if (f.kind == Frame::Kind::response)
      f.value_size = static_cast<std::uint32_t>(f.value.size());
    frames.push_back(f);
    encode_frame(frames.back(), stream);
  }
  const auto drain = [&](FrameDecoder& dec, std::size_t& decoded) {
    Frame out;
    Decode d;
    while ((d = dec.next(out)) == Decode::frame) {
      EXPECT_EQ(out, frames[decoded % frames.size()]);
      ++decoded;
    }
    ASSERT_EQ(d, Decode::need_more);
  };
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    std::size_t decoded = 0;
    // Pass 1: torn at `split` (split == 0 / size() degenerate to one
    // feed; interior splits land inside the prefix and inside bodies).
    dec.feed(stream.data(), split);
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    if (split < kHeaderLen) {
      EXPECT_EQ(decoded, 0u) << "partial frame yielded at split " << split;
    }
    dec.feed(stream.data() + split, stream.size() - split);
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    ASSERT_EQ(decoded, frames.size()) << "stuck at split " << split;
    // Pass 2: the same decoder keeps working on an untorn replay.
    dec.feed(stream.data(), stream.size());
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    ASSERT_EQ(decoded, 2 * frames.size()) << "stuck after split " << split;
    EXPECT_FALSE(dec.failed());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

// The path a socket reader takes: recv() into tail() room, then
// commit() what arrived. Every frame is split at every byte boundary,
// behind a whole frame of the stream before it, and each piece lands in
// room of its own size or larger (a short recv). One decoder carries
// the unconsumed bytes across all of it, so its buffer is reused,
// compacted behind a consumed frame and grown in turn.
TEST(NetioCodec, TailCommitEverySplitOfEveryFrame) {
  Rng rng(8);
  FrameDecoder dec;
  auto deliver = [&](const std::uint8_t* p, std::size_t n, std::size_t room) {
    const auto t = dec.tail(std::max(n, room));
    ASSERT_GE(t.size(), n);
    if (n > 0) std::memcpy(t.data(), p, n);
    dec.commit(n);
  };
  Frame prev = random_frame(rng);
  for (int i = 0; i < 24; ++i) {
    Frame f = random_frame(rng);
    if (f.value.size() > 512) {
      f.value.resize(512);
      if (f.kind == Frame::Kind::response) f.value_size = 512;
    }
    std::vector<std::uint8_t> stream = encode(prev);
    const std::size_t head = stream.size();
    encode_frame(f, stream);
    for (std::size_t split = 0; split <= stream.size() - head; ++split) {
      const std::size_t room = split % 3 == 0 ? kRecvChunk : split % 7 + 1;
      const std::size_t cut = head + split;
      ASSERT_NO_FATAL_FAILURE(deliver(stream.data(), cut, room));
      Frame out;
      ASSERT_EQ(dec.next(out), Decode::frame) << i << " split " << split;
      ASSERT_EQ(out, prev);
      if (cut < stream.size()) {
        ASSERT_EQ(dec.next(out), Decode::need_more);
      }
      ASSERT_NO_FATAL_FAILURE(
          deliver(stream.data() + cut, stream.size() - cut, room));
      ASSERT_EQ(dec.next(out), Decode::frame) << i << " split " << split;
      ASSERT_EQ(out, f);
      ASSERT_EQ(dec.next(out), Decode::need_more);
    }
    prev = f;
  }
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_FALSE(dec.failed());
}

// Integrity property behind the chaos layer: flipping any single bit of
// an encoded frame must never decode to a (wrong) frame. Body flips are
// caught by the body checksum, so they must report a hard error; header
// flips may instead leave the decoder waiting for a longer body
// (need_more), which is equally safe -- no wrong data is surfaced.
TEST(NetioCodec, SingleBitFlipNeverYieldsAFrame) {
  Rng rng(7);
  std::uint64_t body_flips = 0, header_errors = 0;
  for (int iter = 0; iter < 24; ++iter) {
    Frame f = random_frame(rng);
    if (f.value.size() > 128) f.value.resize(128);
    if (f.kind == Frame::Kind::response && !f.value.empty())
      f.value_size = static_cast<std::uint32_t>(f.value.size());
    const auto bytes = encode(f);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
        FrameDecoder dec;
        dec.feed(mutated.data(), mutated.size());
        Frame out;
        const Decode d = dec.next(out);
        ASSERT_NE(d, Decode::frame)
            << "silent corruption at byte " << pos << " bit " << bit;
        if (pos >= kHeaderLen) {
          // CRC32C catches every single-bit error.
          ASSERT_EQ(d, Decode::error)
              << "undetected body flip at byte " << pos << " bit " << bit;
          ++body_flips;
        } else if (d == Decode::error) {
          ++header_errors;
        }
      }
    }
  }
  EXPECT_GT(body_flips, 0u);
  EXPECT_GT(header_errors, 0u);
}

// CRC32C bit at a time from its definition (reflected polynomial
// 0x82F63B78, preset and final inversion), sharing nothing with the
// library.
std::uint32_t reference_crc32c(const std::uint8_t* p, std::size_t n) {
  std::uint32_t reg = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    reg ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      reg = (reg & 1u) ? (reg >> 1) ^ 0x82f63b78u : reg >> 1;
  }
  return ~reg;
}

TEST(NetioCodec, ChecksumMatchesByteAtATimeReference) {
  Rng rng(8);
  // Random bodies of every length 0..4096, at every start alignment
  // mod 8, so each 8-byte loop head and tail is covered.
  std::vector<std::uint8_t> buf(4096 + 8);
  for (std::size_t n = 0; n <= 4096; ++n) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::uint8_t* body = buf.data() + n % 8;
    ASSERT_EQ(body_checksum(body, n), reference_crc32c(body, n))
        << "length " << n;
  }
  // All-0xFF at the decoder's body bound.
  const std::vector<std::uint8_t> big(kDefaultMaxBody, 0xff);
  EXPECT_EQ(body_checksum(big.data(), big.size()),
            reference_crc32c(big.data(), big.size()));
}

/// A PUT request whose body is exactly 1 KiB.
Frame kib_request() {
  Frame f;
  f.kind = Frame::Kind::request;
  f.opcode = static_cast<std::uint8_t>(Opcode::put);
  f.tenant = 3;
  f.request_id = 77;
  f.key = "key-1024";
  f.value.resize(1024 - kRequestFixedLen - f.key.size());
  for (std::size_t i = 0; i < f.value.size(); ++i)
    f.value[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return f;
}

// An order-blind checksum (the first wire version's byte sum) accepts a
// frame whose body has two bytes swapped; the CRC must not.
TEST(NetioCodec, SwappedBodyBytesAreRejected) {
  const auto bytes = encode(kib_request());
  ASSERT_EQ(bytes.size(), kHeaderLen + 1024);
  Rng rng(11);
  int swaps = 0;
  while (swaps < 2000) {
    const std::size_t i = kHeaderLen + rng.uniform_u64(0, 1023);
    const std::size_t j = kHeaderLen + rng.uniform_u64(0, 1023);
    if (bytes[i] == bytes[j]) continue;  // a no-op swap is not corruption
    auto mutated = bytes;
    std::swap(mutated[i], mutated[j]);
    FrameDecoder dec;
    dec.feed(mutated);
    Frame out;
    ASSERT_EQ(dec.next(out), Decode::error)
        << "swap of body bytes " << i - kHeaderLen << " and " << j - kHeaderLen;
    ++swaps;
  }
}

TEST(NetioCodec, EveryRequestBodyBitFlipIsRejected) {
  const auto bytes = encode(kib_request());
  for (std::size_t pos = kHeaderLen; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder dec;
      dec.feed(mutated);
      Frame out;
      ASSERT_EQ(dec.next(out), Decode::error)
          << "body byte " << pos - kHeaderLen << " bit " << bit;
      EXPECT_EQ(dec.error(), "body checksum mismatch");
    }
  }
}

// The exact wire bytes of one request and one response frame, captured
// from an independent bit-at-a-time CRC32C over the documented layout.
// Any change to the layout, the magics or the checksum value breaks
// this.
TEST(NetioCodec, WireBytesArePinned) {
  Frame q;
  q.kind = Frame::Kind::request;
  q.opcode = static_cast<std::uint8_t>(Opcode::put);
  q.tenant = 7;
  q.request_id = 0x0102030405060708ull;
  q.key = "key-1";
  q.value = {0xde, 0xad, 0xbe, 0xef};
  const std::vector<std::uint8_t> q_wire = {
      0x4d, 0x46, 0x51, 0x32, 0x21, 0x00, 0x00, 0x00, 0xb1, 0x93, 0xec, 0x06,
      0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05,
      0x04, 0x03, 0x02, 0x01, 0x05, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
      0x6b, 0x65, 0x79, 0x2d, 0x31, 0xde, 0xad, 0xbe, 0xef};

  Frame s;
  s.kind = Frame::Kind::response;
  s.status = 0;
  s.flags = kFlagFound | kFlagHasSeq;
  s.retry_after_us = 250;
  s.request_id = 42;
  s.seq = 9;
  s.checksum = 0x1122334455667788ull;
  s.value = {1, 2, 3};
  s.value_size = 3;
  const std::vector<std::uint8_t> s_wire = {
      0x4d, 0x46, 0x53, 0x32, 0x2b, 0x00, 0x00, 0x00, 0xe3, 0xad, 0x47, 0x85,
      0x00, 0x03, 0x00, 0x00, 0xfa, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x03, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03};

  EXPECT_EQ(encode(q), q_wire);
  EXPECT_EQ(encode(s), s_wire);
  FrameDecoder dec;
  dec.feed(q_wire);
  dec.feed(s_wire);
  Frame out;
  ASSERT_EQ(dec.next(out), Decode::frame);
  EXPECT_EQ(out, q);
  ASSERT_EQ(dec.next(out), Decode::frame);
  EXPECT_EQ(out, s);
  EXPECT_EQ(dec.next(out), Decode::need_more);
}

}  // namespace
}  // namespace memfss::netio
