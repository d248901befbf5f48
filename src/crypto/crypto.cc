#include "src/crypto/crypto.h"

#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/rand.h>
#include <openssl/sha.h>

#include <cstring>
#include <memory>


namespace minicrypt {

namespace {

struct CipherCtxDeleter {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};
using CipherCtx = std::unique_ptr<EVP_CIPHER_CTX, CipherCtxDeleter>;

// AES-256-GCM via OpenSSL EVP, which selects its own AES-NI/PCLMUL code.
Result<std::string> EvpGcmEncrypt(const SymmetricKey& key, const uint8_t* iv,
                                  std::string_view plaintext, std::string_view aad) {
  CipherCtx ctx(EVP_CIPHER_CTX_new());
  if (!ctx) {
    return Status::Internal("EVP_CIPHER_CTX_new failed");
  }
  if (EVP_EncryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(), iv) != 1) {
    return Status::Internal("EVP_EncryptInit_ex failed");
  }
  int aad_len = 0;
  if (!aad.empty() &&
      EVP_EncryptUpdate(ctx.get(), nullptr, &aad_len,
                        reinterpret_cast<const unsigned char*>(aad.data()),
                        static_cast<int>(aad.size())) != 1) {
    return Status::Internal("EVP_EncryptUpdate (AAD) failed");
  }
  std::string out(reinterpret_cast<const char*>(iv), kAesGcmIvBytes);
  const size_t header = out.size();
  out.resize(header + plaintext.size() + kAesGcmTagBytes);

  int len1 = 0;
  if (!plaintext.empty() &&
      EVP_EncryptUpdate(ctx.get(), reinterpret_cast<unsigned char*>(out.data() + header),
                        &len1, reinterpret_cast<const unsigned char*>(plaintext.data()),
                        static_cast<int>(plaintext.size())) != 1) {
    return Status::Internal("EVP_EncryptUpdate failed");
  }
  int len2 = 0;
  if (EVP_EncryptFinal_ex(ctx.get(),
                          reinterpret_cast<unsigned char*>(out.data() + header + len1),
                          &len2) != 1) {
    return Status::Internal("EVP_EncryptFinal_ex failed");
  }
  if (static_cast<size_t>(len1 + len2) != plaintext.size()) {
    return Status::Internal("GCM ciphertext length mismatch");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_GET_TAG,
                          static_cast<int>(kAesGcmTagBytes),
                          out.data() + header + plaintext.size()) != 1) {
    return Status::Internal("EVP_CTRL_GCM_GET_TAG failed");
  }
  return out;
}

Result<std::string> EvpGcmDecrypt(const SymmetricKey& key, const uint8_t* iv,
                                  std::string_view ct, std::string_view tag,
                                  std::string_view aad) {
  CipherCtx ctx(EVP_CIPHER_CTX_new());
  if (!ctx) {
    return Status::Internal("EVP_CIPHER_CTX_new failed");
  }
  if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr, key.data(), iv) != 1) {
    return Status::Internal("EVP_DecryptInit_ex failed");
  }
  int aad_len = 0;
  if (!aad.empty() &&
      EVP_DecryptUpdate(ctx.get(), nullptr, &aad_len,
                        reinterpret_cast<const unsigned char*>(aad.data()),
                        static_cast<int>(aad.size())) != 1) {
    return Status::Internal("EVP_DecryptUpdate (AAD) failed");
  }
  std::string out(ct.size(), '\0');
  int len1 = 0;
  if (!ct.empty() &&
      EVP_DecryptUpdate(ctx.get(), reinterpret_cast<unsigned char*>(out.data()), &len1,
                        reinterpret_cast<const unsigned char*>(ct.data()),
                        static_cast<int>(ct.size())) != 1) {
    return Status::Corruption("GCM decrypt failed");
  }
  if (EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG,
                          static_cast<int>(tag.size()),
                          const_cast<char*>(tag.data())) != 1) {
    return Status::Internal("EVP_CTRL_GCM_SET_TAG failed");
  }
  int len2 = 0;
  if (EVP_DecryptFinal_ex(ctx.get(), reinterpret_cast<unsigned char*>(out.data() + len1),
                          &len2) != 1) {
    // Wrong key or tampered ciphertext/tag.
    return Status::Corruption("GCM tag check failed");
  }
  out.resize(static_cast<size_t>(len1) + static_cast<size_t>(len2));
  return out;
}

}  // namespace

SymmetricKey SymmetricKey::FromSeed(std::string_view seed) {
  SymmetricKey key;
  // Two chained SHA-256 invocations with distinct prefixes (simple KDF; the
  // security of the reproduction does not rest on password hardness).
  const std::string h = Sha256(std::string("minicrypt-key-v1\x01") + std::string(seed));
  std::memcpy(key.bytes_.data(), h.data(), kAesKeyBytes);
  return key;
}

SymmetricKey SymmetricKey::Random() {
  SymmetricKey key;
  RandomBytes(key.bytes_.data(), key.bytes_.size());
  return key;
}

SymmetricKey::~SymmetricKey() {
  // Best-effort wipe; OPENSSL_cleanse resists dead-store elimination.
  OPENSSL_cleanse(bytes_.data(), bytes_.size());
}

SymmetricKey SymmetricKey::Derive(std::string_view purpose) const {
  SymmetricKey out;
  const std::string mac = HmacSha256(*this, std::string("derive\x02") + std::string(purpose));
  std::memcpy(out.bytes_.data(), mac.data(), kAesKeyBytes);
  return out;
}

std::string Sha256(std::string_view data) {
  std::string out(kSha256Bytes, '\0');
  SHA256(reinterpret_cast<const unsigned char*>(data.data()), data.size(),
         reinterpret_cast<unsigned char*>(out.data()));
  return out;
}

std::string HmacSha256(const SymmetricKey& key, std::string_view data) {
  std::string out(kSha256Bytes, '\0');
  unsigned int len = 0;
  HMAC(EVP_sha256(), key.data(), static_cast<int>(key.size()),
       reinterpret_cast<const unsigned char*>(data.data()), data.size(),
       reinterpret_cast<unsigned char*>(out.data()), &len);
  out.resize(len);
  return out;
}

bool ConstantTimeEqual(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  unsigned char acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<unsigned char>(acc | (static_cast<unsigned char>(a[i]) ^
                                            static_cast<unsigned char>(b[i])));
  }
  return acc == 0;
}

Status RandomBytes(uint8_t* out, size_t n) {
  if (RAND_bytes(out, static_cast<int>(n)) != 1) {
    return Status::Internal("RAND_bytes failed");
  }
  return Status::Ok();
}

Result<std::string> AesCbcEncrypt(const SymmetricKey& key, std::string_view plaintext) {
  uint8_t iv[kAesBlockBytes];
  MC_RETURN_IF_ERROR(RandomBytes(iv, sizeof(iv)));

  CipherCtx ctx(EVP_CIPHER_CTX_new());
  if (!ctx) {
    return Status::Internal("EVP_CIPHER_CTX_new failed");
  }
  if (EVP_EncryptInit_ex(ctx.get(), EVP_aes_256_cbc(), nullptr, key.data(), iv) != 1) {
    return Status::Internal("EVP_EncryptInit_ex failed");
  }
  std::string out(reinterpret_cast<char*>(iv), kAesBlockBytes);
  const size_t header = out.size();
  out.resize(header + plaintext.size() + 2 * kAesBlockBytes);

  int len1 = 0;
  if (EVP_EncryptUpdate(ctx.get(), reinterpret_cast<unsigned char*>(out.data() + header), &len1,
                        reinterpret_cast<const unsigned char*>(plaintext.data()),
                        static_cast<int>(plaintext.size())) != 1) {
    return Status::Internal("EVP_EncryptUpdate failed");
  }
  int len2 = 0;
  if (EVP_EncryptFinal_ex(ctx.get(),
                          reinterpret_cast<unsigned char*>(out.data() + header + len1),
                          &len2) != 1) {
    return Status::Internal("EVP_EncryptFinal_ex failed");
  }
  out.resize(header + static_cast<size_t>(len1) + static_cast<size_t>(len2));
  return out;
}

Result<std::string> AesCbcDecrypt(const SymmetricKey& key, std::string_view envelope) {
  if (envelope.size() < 2 * kAesBlockBytes || (envelope.size() % kAesBlockBytes) != 0) {
    return Status::Corruption("AES envelope has invalid length");
  }
  const auto* iv = reinterpret_cast<const unsigned char*>(envelope.data());
  const std::string_view ct = envelope.substr(kAesBlockBytes);

  CipherCtx ctx(EVP_CIPHER_CTX_new());
  if (!ctx) {
    return Status::Internal("EVP_CIPHER_CTX_new failed");
  }
  if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_cbc(), nullptr, key.data(), iv) != 1) {
    return Status::Internal("EVP_DecryptInit_ex failed");
  }
  std::string out(ct.size() + kAesBlockBytes, '\0');
  int len1 = 0;
  if (EVP_DecryptUpdate(ctx.get(), reinterpret_cast<unsigned char*>(out.data()), &len1,
                        reinterpret_cast<const unsigned char*>(ct.data()),
                        static_cast<int>(ct.size())) != 1) {
    return Status::Corruption("AES decrypt failed");
  }
  int len2 = 0;
  if (EVP_DecryptFinal_ex(ctx.get(), reinterpret_cast<unsigned char*>(out.data() + len1),
                          &len2) != 1) {
    // Wrong key or tampered ciphertext shows up as a padding failure.
    return Status::Corruption("AES padding check failed");
  }
  out.resize(static_cast<size_t>(len1) + static_cast<size_t>(len2));
  return out;
}

Result<std::string> AesGcmEncryptWithIv(const SymmetricKey& key, std::string_view iv,
                                        std::string_view plaintext, std::string_view aad) {
  if (iv.size() != kAesGcmIvBytes) {
    return Status::InvalidArgument("GCM IV must be 12 bytes");
  }
  return EvpGcmEncrypt(key, reinterpret_cast<const uint8_t*>(iv.data()), plaintext, aad);
}

Result<std::string> AesGcmEncrypt(const SymmetricKey& key, std::string_view plaintext,
                                  std::string_view aad) {
  uint8_t iv[kAesGcmIvBytes];
  MC_RETURN_IF_ERROR(RandomBytes(iv, sizeof(iv)));
  return AesGcmEncryptWithIv(
      key, std::string_view(reinterpret_cast<const char*>(iv), sizeof(iv)), plaintext, aad);
}

Result<std::string> AesGcmDecrypt(const SymmetricKey& key, std::string_view envelope,
                                  std::string_view aad) {
  if (envelope.size() < kAesGcmIvBytes + kAesGcmTagBytes) {
    return Status::Corruption("GCM envelope has invalid length");
  }
  const auto* iv = reinterpret_cast<const uint8_t*>(envelope.data());
  const std::string_view ct =
      envelope.substr(kAesGcmIvBytes, envelope.size() - kAesGcmIvBytes - kAesGcmTagBytes);
  const std::string_view tag = envelope.substr(envelope.size() - kAesGcmTagBytes);
  return EvpGcmDecrypt(key, iv, ct, tag, aad);
}

}  // namespace minicrypt
