#include "src/crypto/crypto.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/coding.h"
#include "src/common/random.h"
#include "src/crypto/padding.h"

namespace minicrypt {
namespace {

TEST(SymmetricKey, DeterministicFromSeed) {
  const SymmetricKey a = SymmetricKey::FromSeed("customer-secret");
  const SymmetricKey b = SymmetricKey::FromSeed("customer-secret");
  EXPECT_EQ(0, memcmp(a.data(), b.data(), a.size()));
  const SymmetricKey c = SymmetricKey::FromSeed("other-secret");
  EXPECT_NE(0, memcmp(a.data(), c.data(), a.size()));
}

TEST(SymmetricKey, DerivedKeysAreDomainSeparated) {
  const SymmetricKey root = SymmetricKey::FromSeed("root");
  const SymmetricKey pack = root.Derive("pack:t1");
  const SymmetricKey prf = root.Derive("packid:t1");
  const SymmetricKey other_table = root.Derive("pack:t2");
  EXPECT_NE(0, memcmp(pack.data(), prf.data(), pack.size()));
  EXPECT_NE(0, memcmp(pack.data(), other_table.data(), pack.size()));
  EXPECT_NE(0, memcmp(pack.data(), root.data(), pack.size()));
}

TEST(Aes, RoundTripVariousSizes) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  Rng rng(1);
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17}, size_t{1000},
                   size_t{100000}}) {
    const std::string plaintext = rng.Bytes(n);
    auto envelope = AesCbcEncrypt(key, plaintext);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ(envelope->size() % kAesBlockBytes, 0u);
    auto back = AesCbcDecrypt(key, *envelope);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, plaintext);
  }
}

TEST(Aes, SemanticSecuritySameplaintextDifferentCiphertext) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string plaintext = "the same pack bytes";
  std::set<std::string> envelopes;
  for (int i = 0; i < 16; ++i) {
    auto envelope = AesCbcEncrypt(key, plaintext);
    ASSERT_TRUE(envelope.ok());
    envelopes.insert(*envelope);
  }
  EXPECT_EQ(envelopes.size(), 16u);  // fresh IV each time
}

TEST(Aes, WrongKeyFails) {
  auto envelope = AesCbcEncrypt(SymmetricKey::FromSeed("a"), "secret data here");
  ASSERT_TRUE(envelope.ok());
  auto out = AesCbcDecrypt(SymmetricKey::FromSeed("b"), *envelope);
  // CBC with PKCS#7: wrong key shows as padding corruption (or, rarely,
  // garbage that happens to have valid padding — envelope is short enough
  // that this is astronomically unlikely for this fixed test vector).
  EXPECT_FALSE(out.ok() && *out == "secret data here");
}

TEST(Aes, TamperedCiphertextRejectedOrGarbled) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  const std::string plaintext(1000, 'p');
  auto envelope = AesCbcEncrypt(key, plaintext);
  ASSERT_TRUE(envelope.ok());
  std::string tampered = *envelope;
  tampered[tampered.size() / 2] ^= 0x40;
  auto out = AesCbcDecrypt(key, tampered);
  EXPECT_FALSE(out.ok() && *out == plaintext);
}

TEST(Aes, GcmAadRoundTripAndMismatchRejected) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  Rng rng(9);
  // AAD with an embedded NUL, like the pack AAD's table/context delimiters.
  const std::string aad = std::string("table") + '\0' + "pack-17";
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{5000}}) {
    const std::string pt = rng.Bytes(n);
    auto env = AesGcmEncrypt(key, pt, aad);
    ASSERT_TRUE(env.ok());
    auto out = AesGcmDecrypt(key, *env, aad);
    ASSERT_TRUE(out.ok()) << "size " << n;
    EXPECT_EQ(*out, pt);
    // Truncating the AAD by one byte (NUL shifts the field boundary) fails.
    EXPECT_FALSE(AesGcmDecrypt(key, *env, aad.substr(0, aad.size() - 1)).ok());
  }
}

TEST(Aes, GcmAadBindsTheContext) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  auto env = AesGcmEncrypt(key, "payload", "context-A");
  ASSERT_TRUE(env.ok());
  auto ok = AesGcmDecrypt(key, *env, "context-A");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "payload");
  // Different AAD, AAD dropped, or AAD invented: all fail the tag check.
  EXPECT_TRUE(AesGcmDecrypt(key, *env, "context-B").status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, *env).status().IsCorruption());
  auto bare = AesGcmEncrypt(key, "payload");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(AesGcmDecrypt(key, *bare, "context-A").status().IsCorruption());
  EXPECT_TRUE(AesGcmDecrypt(key, *bare).ok());
}

TEST(Aes, GcmRoundTripsBySize) {
  const SymmetricKey key = SymmetricKey::FromSeed("gcm-roundtrip");
  Rng rng(77);
  for (size_t n : {0u, 1u, 16u, 100u, 4096u}) {
    const std::string pt = rng.Bytes(n);
    auto env = AesGcmEncrypt(key, pt);
    ASSERT_TRUE(env.ok());
    ASSERT_EQ(env->size(), kAesGcmIvBytes + n + kAesGcmTagBytes);
    auto d = AesGcmDecrypt(key, *env);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, pt) << "size " << n;
  }
}

TEST(Aes, GcmRejectsTampering) {
  const SymmetricKey key = SymmetricKey::FromSeed("gcm-tamper");
  Rng rng(55);
  const std::string pt = rng.Bytes(500);
  auto env = AesGcmEncrypt(key, pt);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(AesGcmDecrypt(key, *env).ok());
  // Flip one byte in the IV, body, and tag regions.
  for (size_t pos : {size_t{3}, kAesGcmIvBytes + 7, env->size() - 2}) {
    std::string tampered = *env;
    tampered[pos] ^= 1;
    EXPECT_FALSE(AesGcmDecrypt(key, tampered).ok()) << "pos " << pos;
  }
  EXPECT_FALSE(AesGcmDecrypt(key, "short").ok());
  // Wrong key.
  EXPECT_FALSE(AesGcmDecrypt(SymmetricKey::FromSeed("other"), *env).ok());
}

std::string HexOf(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// Pins the envelope bytes (IV || ciphertext || tag) and the AAD binding that
// stored packs depend on: SHA-256 of each envelope for a fixed key, IV,
// plaintext and AAD. A change here means existing envelopes no longer open.
// The digests were recorded while an in-repo AES-NI kernel still ran beside
// OpenSSL EVP, and both produced these exact envelopes.
TEST(Aes, GcmEnvelopeGoldenDigests) {
  const SymmetricKey key = SymmetricKey::FromSeed("gcm-golden");
  const std::string iv = "golden-iv-12";
  ASSERT_EQ(iv.size(), kAesGcmIvBytes);
  const std::string aad = std::string("table") + '\0' + "pack-17";
  struct Golden {
    size_t size;
    const char* bare;      // sha256(envelope) without AAD
    const char* with_aad;  // sha256(envelope) sealed over `aad`
  };
  const Golden kGolden[] = {
      {0, "e71618a9c8eb60120162067b2fc91780e32e56f11e328964d67b7c5129beed3d",
       "a7a66adc2881d50188c6beab519c50e1e93937b60ec022d775f7a460444669c4"},
      {1, "3cb9241cd7d9db0ddd3e4615347691f0fc611bbfb2d01cfb2dcc8be81432741e",
       "978dd1fa5ce287f45f5c39246033103acb7996fb27f7fb93908124fd583e5654"},
      {15, "2237c74ff6e9c3cd24c6acd2af70e4225800d6e7783224faf470ce1c81c4fd9d",
       "0900d74e93d48c9ae424b859e46a1d79c916da0a36175c116d039121692daf84"},
      {16, "88ae772b17b978103e6e3dba51b3fdba3ddafb9cbc371effaaa42b31b8bbb6f2",
       "8f5c1b66eaa0d2cb575a8d4e0217757bfde47c1124fcb496ee12f8755d64db9e"},
      {17, "6cf344eca0834dfcf4d0c3ec146ce247843a2a639db39012ecab611b6a73b183",
       "f2835f3cbdd98abdaece2086d62f18028518503db4f237c4c75b33d77e9c9aef"},
      {4099, "5114d392fd348a2190f732527a8177563728f006b37389a92ca9aa4f4378dc0d",
       "c6996dd8bd079f3a76c36481187baaeb6ba4173d74c6e4b41adab916691ebbc2"},
  };
  for (const Golden& g : kGolden) {
    std::string pt(g.size, '\0');
    for (size_t i = 0; i < pt.size(); ++i) {
      pt[i] = static_cast<char>((i * 131 + 7) & 0xff);
    }
    auto bare = AesGcmEncryptWithIv(key, iv, pt);
    auto bound = AesGcmEncryptWithIv(key, iv, pt, aad);
    ASSERT_TRUE(bare.ok());
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ(HexOf(Sha256(*bare)), g.bare) << "size " << g.size;
    EXPECT_EQ(HexOf(Sha256(*bound)), g.with_aad) << "size " << g.size << " with AAD";
    auto opened = AesGcmDecrypt(key, *bound, aad);
    ASSERT_TRUE(opened.ok()) << "size " << g.size;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(Aes, MalformedEnvelopeLengthsRejected) {
  const SymmetricKey key = SymmetricKey::FromSeed("k");
  EXPECT_TRUE(AesCbcDecrypt(key, "").status().IsCorruption());
  EXPECT_TRUE(AesCbcDecrypt(key, std::string(16, 'x')).status().IsCorruption());
  EXPECT_TRUE(AesCbcDecrypt(key, std::string(33, 'x')).status().IsCorruption());
}

TEST(Sha256, KnownProperties) {
  const std::string h1 = Sha256("abc");
  const std::string h2 = Sha256("abc");
  const std::string h3 = Sha256("abd");
  EXPECT_EQ(h1.size(), kSha256Bytes);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(Hmac, DeterministicPerKey) {
  const SymmetricKey k1 = SymmetricKey::FromSeed("1");
  const SymmetricKey k2 = SymmetricKey::FromSeed("2");
  EXPECT_EQ(HmacSha256(k1, "packid-5"), HmacSha256(k1, "packid-5"));
  EXPECT_NE(HmacSha256(k1, "packid-5"), HmacSha256(k2, "packid-5"));
  EXPECT_NE(HmacSha256(k1, "packid-5"), HmacSha256(k1, "packid-6"));
}

TEST(ConstantTimeEqual, Basics) {
  EXPECT_TRUE(ConstantTimeEqual("same", "same"));
  EXPECT_FALSE(ConstantTimeEqual("same", "s4me"));
  EXPECT_FALSE(ConstantTimeEqual("short", "longer"));
  EXPECT_TRUE(ConstantTimeEqual("", ""));
}

TEST(Padding, TierSelection) {
  const PaddingTiers tiers = PaddingTiers::SmallMediumLarge(1024, 4096, 16384);
  EXPECT_EQ(tiers.TierFor(1), 1024u);
  EXPECT_EQ(tiers.TierFor(1024), 1024u);
  EXPECT_EQ(tiers.TierFor(1025), 4096u);
  EXPECT_EQ(tiers.TierFor(16384), 16384u);
  // Above the top tier: multiples of the top tier.
  EXPECT_EQ(tiers.TierFor(16385), 32768u);
  EXPECT_EQ(tiers.TierFor(40000), 49152u);
}

TEST(Padding, ExponentialTiers) {
  const PaddingTiers tiers = PaddingTiers::Exponential(512, 4);  // 512,1k,2k,4k
  EXPECT_EQ(tiers.tiers().size(), 4u);
  EXPECT_EQ(tiers.TierFor(600), 1024u);
}

TEST(Padding, PadUnpadRoundTrip) {
  const PaddingTiers tiers = PaddingTiers::Exponential(256, 6);
  Rng rng(3);
  for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256}, size_t{1000},
                   size_t{50000}}) {
    const std::string payload = rng.Bytes(n);
    const std::string padded = tiers.Pad(payload);
    EXPECT_GE(padded.size(), payload.size());
    EXPECT_EQ(padded.size(), tiers.TierFor(payload.size() + VarintLength(payload.size())));
    auto back = PaddingTiers::Unpad(padded);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, payload);
    // A view into the padded buffer, not a copy.
    EXPECT_EQ(back->data(), padded.data() + VarintLength(payload.size()));
  }
}

TEST(Padding, SizesCollapseToTiers) {
  // The security point: many distinct payload sizes map to few visible sizes.
  const PaddingTiers tiers = PaddingTiers::SmallMediumLarge(1024, 4096, 16384);
  std::set<size_t> visible;
  for (size_t n = 0; n < 4000; n += 37) {
    visible.insert(tiers.Pad(std::string(n, 'x')).size());
  }
  EXPECT_LE(visible.size(), 2u);
}

TEST(Padding, DisabledPassThrough) {
  const PaddingTiers none = PaddingTiers::None();
  EXPECT_FALSE(none.enabled());
  const std::string payload(100, 'z');
  const std::string framed = none.Pad(payload);
  EXPECT_EQ(framed.size(), payload.size() + VarintLength(payload.size()));
  auto back = PaddingTiers::Unpad(framed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

TEST(Padding, TruncatedFrameRejected) {
  const PaddingTiers none = PaddingTiers::None();
  const std::string framed = none.Pad(std::string(100, 'z'));
  EXPECT_FALSE(PaddingTiers::Unpad(std::string_view(framed.data(), 50)).ok());
}

}  // namespace
}  // namespace minicrypt
