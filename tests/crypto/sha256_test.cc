// Copyright 2026 The Tyche Reproduction Authors.

#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

namespace tyche {
namespace {

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(Sha256::Hash(std::string_view("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(Sha256::Hash(std::string_view("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  // FIPS 180-4 example: 56-byte message forcing two-block padding.
  EXPECT_EQ(
      Sha256::Hash(std::string_view("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, QuickBrownFox) {
  EXPECT_EQ(Sha256::Hash(std::string_view("The quick brown fox jumps over the lazy dog"))
                .ToHex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data(1000, 'x');
  Sha256 ctx;
  for (size_t i = 0; i < data.size(); i += 7) {
    ctx.Update(std::string_view(data).substr(i, 7));
  }
  EXPECT_EQ(ctx.Finalize(), Sha256::Hash(data));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4: one million repetitions of 'a'.
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.Update(chunk);
  }
  EXPECT_EQ(ctx.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ResetAfterFinalize) {
  Sha256 ctx;
  ctx.Update(std::string_view("abc"));
  (void)ctx.Finalize();
  ctx.Update(std::string_view("abc"));
  EXPECT_EQ(ctx.Finalize(), Sha256::Hash(std::string_view("abc")));
}

TEST(Sha256Test, UpdateValueOrderSensitive) {
  Sha256 a;
  a.UpdateValue<uint64_t>(1);
  a.UpdateValue<uint64_t>(2);
  Sha256 b;
  b.UpdateValue<uint64_t>(2);
  b.UpdateValue<uint64_t>(1);
  EXPECT_NE(a.Finalize(), b.Finalize());
}

TEST(DigestTest, ZeroAndComparison) {
  Digest zero;
  EXPECT_TRUE(zero.IsZero());
  const Digest d = Sha256::Hash(std::string_view("x"));
  EXPECT_FALSE(d.IsZero());
  EXPECT_NE(d, zero);
  EXPECT_EQ(d, Sha256::Hash(std::string_view("x")));
}

TEST(DigestTest, HexIs64Chars) {
  EXPECT_EQ(Digest{}.ToHex().size(), 64u);
  EXPECT_EQ(Digest{}.ToHex(), std::string(64, '0'));
}

// The short form journal records and wire checksums carry: the first eight
// digest bytes, little-endian. The migration handoff link is one of them, so
// writer and splice verifier must agree on it bit for bit.
TEST(DigestTest, Prefix64KnownAnswers) {
  // SHA-256("abc") starts ba 78 16 bf 8f 01 cf ea.
  EXPECT_EQ(DigestPrefix64(Sha256::Hash(std::string_view("abc"))), 0xeacf018fbf1678baULL);
  Digest counting;
  for (size_t i = 0; i < counting.bytes.size(); ++i) {
    counting.bytes[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(DigestPrefix64(counting), 0x0706050403020100ULL);
  EXPECT_EQ(DigestPrefix64(Digest{}), 0u);
}

TEST(HmacTest, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string message = "what do ya want for nothing?";
  const Digest mac =
      HmacSha256(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()),
                                          key.size()),
                 std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                                          message.size()));
  EXPECT_EQ(mac.ToHex(), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case1) {
  const std::vector<uint8_t> key(20, 0x0b);
  const std::string message = "Hi There";
  const Digest mac = HmacSha256(
      std::span<const uint8_t>(key),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
  EXPECT_EQ(mac.ToHex(), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const std::vector<uint8_t> long_key(131, 0xaa);
  const std::string message = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = HmacSha256(
      std::span<const uint8_t>(long_key),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
  EXPECT_EQ(mac.ToHex(), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

}  // namespace
}  // namespace tyche
