#include "src/harness/fingerprint.hpp"

#include <cstring>

#include "src/common/log.hpp"

namespace bowsim::harness {

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Self-contained so the digest has no external
// dependencies; it only needs to be stable and collision-resistant for
// pinning results, not cryptographically current.
// ---------------------------------------------------------------------

namespace {

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t
rotr(std::uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

void
sha256Block(std::uint32_t state[8], const std::uint8_t block[64])
{
    std::uint32_t w[64];
    for (unsigned i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t{block[i * 4]} << 24) |
               (std::uint32_t{block[i * 4 + 1]} << 16) |
               (std::uint32_t{block[i * 4 + 2]} << 8) |
               std::uint32_t{block[i * 4 + 3]};
    }
    for (unsigned i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (unsigned i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

}  // namespace

FingerprintHasher::FingerprintHasher()
{
    static constexpr std::uint32_t init[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::memcpy(state_, init, sizeof state_);
}

void
FingerprintHasher::update(const void *data, std::size_t len)
{
    if (finalized_)
        panic("FingerprintHasher: update after hex()");
    const auto *p = static_cast<const std::uint8_t *>(data);
    total_ += len;
    while (len > 0) {
        std::size_t take = 64 - buffered_;
        if (take > len)
            take = len;
        std::memcpy(buf_ + buffered_, p, take);
        buffered_ += take;
        p += take;
        len -= take;
        if (buffered_ == 64) {
            sha256Block(state_, buf_);
            buffered_ = 0;
        }
    }
}

namespace {

/** Tagged-field framing: tag NUL typechar, then a fixed-width payload. */
enum : char {
    kTypeU64 = 'u',
    kTypeI64 = 'i',
    kTypeBool = 'b',
    kTypeF64 = 'f',
    kTypeStr = 's',
};

}  // namespace

void
FingerprintHasher::add(const char *tag, std::uint64_t value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeU64;
    update(&t, 1);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(value >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, std::int64_t value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeI64;
    update(&t, 1);
    auto u = static_cast<std::uint64_t>(value);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(u >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, unsigned value)
{
    add(tag, static_cast<std::uint64_t>(value));
}

void
FingerprintHasher::add(const char *tag, bool value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeBool;
    update(&t, 1);
    std::uint8_t b = value ? 1 : 0;
    update(&b, 1);
}

void
FingerprintHasher::add(const char *tag, double value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeF64;
    update(&t, 1);
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    update(b, sizeof b);
}

void
FingerprintHasher::add(const char *tag, const std::string &value)
{
    update(tag, std::strlen(tag) + 1);
    char t = kTypeStr;
    update(&t, 1);
    // Length prefix keeps adjacent strings self-delimiting.
    add("len", static_cast<std::uint64_t>(value.size()));
    update(value.data(), value.size());
}

std::string
FingerprintHasher::hex()
{
    if (finalized_)
        panic("FingerprintHasher: hex() called twice");
    const std::uint64_t bits = total_ * 8;
    std::uint8_t pad = 0x80;
    update(&pad, 1);
    std::uint8_t zero = 0;
    while (buffered_ != 56)
        update(&zero, 1);
    std::uint8_t len[8];
    for (int i = 0; i < 8; ++i)
        len[i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
    update(len, sizeof len);
    finalized_ = true;

    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint32_t word : state_) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out += digits[(word >> shift) & 0xf];
    }
    return out;
}

}  // namespace bowsim::harness
