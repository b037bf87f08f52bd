// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TYCHE_SHA_NI_CANDIDATE 1
#endif

namespace tyche {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t Load32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void Store32BE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

constexpr char kHexDigits[] = "0123456789abcdef";

#ifdef TYCHE_SHA_NI_CANDIDATE
// Hardware-assisted compression via the SHA extensions. One block in ~a
// dozen nanoseconds versus hundreds for the scalar rounds; everything
// downstream (attestation digests, HMAC session tokens, batch combiners)
// is hash-bound, so this is the single biggest throughput lever the fleet
// has. Layout follows the SHA-NI dataflow: state is carried as the ABEF /
// CDGH register pair, four message words per rnds2 step.
__attribute__((target("sha,sse4.1")))
void ProcessBlockShaNi(uint32_t* state, const uint8_t* block) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;

  auto k = [](int i) {
    return _mm_set_epi32(static_cast<int>(kK[i + 3]), static_cast<int>(kK[i + 2]),
                         static_cast<int>(kK[i + 1]), static_cast<int>(kK[i]));
  };

  // Rounds 0-15: load + byte-swap the message, no schedule yet.
  __m128i msg0 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 0)), kShuffle);
  __m128i msg = _mm_add_epi32(msg0, k(0));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

  __m128i msg1 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16)), kShuffle);
  msg = _mm_add_epi32(msg1, k(4));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  __m128i msg2 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32)), kShuffle);
  msg = _mm_add_epi32(msg2, k(8));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  __m128i msg3 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48)), kShuffle);
  msg = _mm_add_epi32(msg3, k(12));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmp);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 16-51: schedule four words per step with msg1/msg2 helpers.
  for (int i = 16; i < 52; i += 4) {
    msg = _mm_add_epi32(msg0, k(i));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    const __m128i rot0 = msg1;
    msg1 = msg2;
    msg2 = msg3;
    msg3 = msg0;
    msg0 = rot0;
  }

  // Rounds 52-63: no further schedule needed.
  msg = _mm_add_epi32(msg0, k(52));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg0, msg3, 4);
  msg1 = _mm_add_epi32(msg1, tmp);
  msg1 = _mm_sha256msg2_epu32(msg1, msg0);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

  msg = _mm_add_epi32(msg1, k(56));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmp = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmp);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

  msg = _mm_add_epi32(msg2, k(60));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool DetectShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

const bool kUseShaNi = DetectShaNi();
#endif  // TYCHE_SHA_NI_CANDIDATE

}  // namespace

std::string Digest::ToHex() const {
  std::string out;
  out.reserve(64);
  for (uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

uint64_t DigestPrefix64(const Digest& digest) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    prefix |= static_cast<uint64_t>(digest.bytes[i]) << (8 * i);
  }
  return prefix;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
#ifdef TYCHE_SHA_NI_CANDIDATE
  if (kUseShaNi) {
    ProcessBlockShaNi(state_, block);
    return;
  }
#endif
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = Load32BE(block + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0];
  uint32_t b = state_[1];
  uint32_t c = state_[2];
  uint32_t d = state_[3];
  uint32_t e = state_[4];
  uint32_t f = state_[5];
  uint32_t g = state_[6];
  uint32_t h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t offset = 0;

  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Digest Sha256::Finalize() {
  const uint64_t bit_len = total_bytes_ * 8;

  const uint8_t pad_byte = 0x80;
  Update(std::span<const uint8_t>(&pad_byte, 1));
  const uint8_t zero = 0;
  while (buffer_len_ != 56) {
    Update(std::span<const uint8_t>(&zero, 1));
  }

  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Bypass total_bytes_ accounting: the length field is part of padding.
  std::memcpy(buffer_ + buffer_len_, len_bytes, 8);
  buffer_len_ += 8;
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    Store32BE(digest.bytes.data() + 4 * i, state_[i]);
  }
  Reset();
  return digest;
}

Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finalize();
}

Digest Sha256::Hash(std::string_view data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finalize();
}

Digest HmacSha256(std::span<const uint8_t> key, std::span<const uint8_t> message) {
  uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Digest hashed = Sha256::Hash(key);
    std::memcpy(key_block, hashed.bytes.data(), hashed.bytes.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[64];
  uint8_t opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(std::span<const uint8_t>(ipad, 64));
  inner.Update(message);
  const Digest inner_digest = inner.Finalize();

  Sha256 outer;
  outer.Update(std::span<const uint8_t>(opad, 64));
  outer.Update(std::span<const uint8_t>(inner_digest.bytes.data(), inner_digest.bytes.size()));
  return outer.Finalize();
}

}  // namespace tyche
