#include "src/storage/block.h"

#include <cstring>

#include "src/storage/spill_file.h"  // kMaxBlockBytes

namespace mrcost::storage {
namespace {

// ----------------------------------------------------------------------
// Identity codec.

class IdentityCodecImpl final : public Codec {
 public:
  std::uint8_t id() const override { return 0; }
  const char* name() const override { return "identity"; }

  void Compress(std::string_view in, std::string& out) const override {
    out.assign(in.data(), in.size());
  }

  common::Status Decompress(std::string_view in, std::size_t raw_size,
                            std::string& out) const override {
    if (in.size() != raw_size) {
      return common::Status::Internal(
          "identity codec: stored size mismatch");
    }
    out.assign(in.data(), in.size());
    return common::Status::Ok();
  }
};

// ----------------------------------------------------------------------
// "mrlz": greedy LZ77 with LZ4-style framing.
//
// A compressed stream is a sequence of sequences:
//
//   +--------+-----------------+-------------+------------------+
//   | token  | extra lit len.. | literals .. | u16 LE offset,   |
//   | u8     | (0xFF chain)    |             | extra match len..|
//   +--------+-----------------+-------------+------------------+
//
// token = (literal_len:4 | match_len-4:4); nibble 15 extends with
// 255-continuation bytes. Matches are at least 4 bytes within a 65535-byte
// window; the final sequence is literals-only (no offset field). The
// decoder trusts nothing: every length and offset is bounds-checked and
// decode stops exactly at raw_size.

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashLog = 13;

inline std::uint32_t HashQuad(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashLog);
}

void PutLzLength(std::size_t extra, std::string& out) {
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

bool GetLzLength(const char*& p, const char* end, std::size_t& len) {
  while (true) {
    if (p == end) return false;
    const auto byte = static_cast<unsigned char>(*p++);
    len += byte;
    if (byte != 255) return true;
  }
}

class Lz77CodecImpl final : public Codec {
 public:
  std::uint8_t id() const override { return 1; }
  const char* name() const override { return "mrlz"; }

  void Compress(std::string_view in, std::string& out) const override {
    out.clear();
    const auto* base = reinterpret_cast<const unsigned char*>(in.data());
    const std::size_t n = in.size();
    std::size_t lit_start = 0;  // first unemitted literal
    std::size_t i = 0;
    // head[h] = 1 + last position hashing to h (0 = none).
    std::vector<std::uint32_t> head(std::size_t{1} << kHashLog, 0);
    while (n >= kMinMatch && i + kMinMatch <= n) {
      const std::uint32_t h = HashQuad(base + i);
      const std::size_t cand = head[h];
      head[h] = static_cast<std::uint32_t>(i + 1);
      std::size_t match_len = 0;
      std::size_t offset = 0;
      if (cand != 0 && i + 1 - cand <= kMaxOffset) {
        const std::size_t c = cand - 1;
        if (std::memcmp(base + c, base + i, kMinMatch) == 0) {
          match_len = kMinMatch;
          while (i + match_len < n &&
                 base[c + match_len] == base[i + match_len]) {
            ++match_len;
          }
          offset = i - c;
        }
      }
      if (match_len == 0) {
        ++i;
        continue;
      }
      EmitSequence(in, lit_start, i - lit_start, offset, match_len, out);
      i += match_len;
      lit_start = i;
    }
    // Final literals-only sequence (always present, possibly empty, so the
    // decoder can tell a clean end from truncation).
    EmitFinal(in, lit_start, n - lit_start, out);
  }

  common::Status Decompress(std::string_view in, std::size_t raw_size,
                            std::string& out) const override {
    out.clear();
    out.reserve(raw_size);
    const char* p = in.data();
    const char* const end = p + in.size();
    while (true) {
      if (p == end) {
        return common::Status::Internal("mrlz: truncated stream");
      }
      const auto token = static_cast<unsigned char>(*p++);
      std::size_t lit_len = token >> 4;
      if (lit_len == 15 && !GetLzLength(p, end, lit_len)) {
        return common::Status::Internal("mrlz: truncated literal length");
      }
      if (static_cast<std::size_t>(end - p) < lit_len) {
        return common::Status::Internal("mrlz: literals overrun input");
      }
      if (out.size() + lit_len > raw_size) {
        return common::Status::Internal("mrlz: output overruns raw size");
      }
      out.append(p, lit_len);
      p += lit_len;
      if (out.size() == raw_size) {
        // Clean end: the final sequence carries no match.
        if (p != end) {
          return common::Status::Internal("mrlz: trailing bytes");
        }
        return common::Status::Ok();
      }
      if (static_cast<std::size_t>(end - p) < 2) {
        return common::Status::Internal("mrlz: truncated match offset");
      }
      const std::size_t offset =
          static_cast<unsigned char>(p[0]) |
          (static_cast<std::size_t>(static_cast<unsigned char>(p[1])) << 8);
      p += 2;
      std::size_t match_len = (token & 0x0F) + kMinMatch;
      if ((token & 0x0F) == 15 && !GetLzLength(p, end, match_len)) {
        return common::Status::Internal("mrlz: truncated match length");
      }
      if (offset == 0 || offset > out.size()) {
        return common::Status::Internal("mrlz: match offset out of range");
      }
      if (out.size() + match_len > raw_size) {
        return common::Status::Internal("mrlz: match overruns raw size");
      }
      // Byte-by-byte: overlapping matches (offset < len) are the RLE case.
      std::size_t src = out.size() - offset;
      for (std::size_t k = 0; k < match_len; ++k) {
        out.push_back(out[src + k]);
      }
    }
  }

 private:
  static void EmitSequence(std::string_view in, std::size_t lit_start,
                           std::size_t lit_len, std::size_t offset,
                           std::size_t match_len, std::string& out) {
    const std::size_t match_code = match_len - kMinMatch;
    const unsigned lit_nibble = lit_len < 15 ? static_cast<unsigned>(lit_len)
                                             : 15u;
    const unsigned match_nibble =
        match_code < 15 ? static_cast<unsigned>(match_code) : 15u;
    out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) PutLzLength(lit_len - 15, out);
    out.append(in.data() + lit_start, lit_len);
    out.push_back(static_cast<char>(offset & 0xFF));
    out.push_back(static_cast<char>((offset >> 8) & 0xFF));
    if (match_nibble == 15) PutLzLength(match_code - 15, out);
  }

  static void EmitFinal(std::string_view in, std::size_t lit_start,
                        std::size_t lit_len, std::string& out) {
    const unsigned lit_nibble = lit_len < 15 ? static_cast<unsigned>(lit_len)
                                             : 15u;
    out.push_back(static_cast<char>(lit_nibble << 4));
    if (lit_nibble == 15) PutLzLength(lit_len - 15, out);
    out.append(in.data() + lit_start, lit_len);
  }
};

constexpr std::uint8_t kFlagKeyDict = 1u << 0;

}  // namespace

const Codec& IdentityCodec() {
  static const IdentityCodecImpl codec;
  return codec;
}

const Codec& Lz77Codec() {
  static const Lz77CodecImpl codec;
  return codec;
}

const Codec& DefaultSpillCodec() { return Lz77Codec(); }

const Codec* CodecById(std::uint8_t id) {
  switch (id) {
    case 0:
      return &IdentityCodec();
    case 1:
      return &Lz77Codec();
    default:
      return nullptr;
  }
}

void EncodeBlock(const ColumnarRun& run, std::size_t lo, std::size_t hi,
                 const Codec& codec, std::string& payload,
                 BlockEncodeStats& stats) {
  const std::size_t n = hi - lo;
  std::string body;
  PutVarint(n, body);

  // Keys: sorted order puts equal keys adjacent, so a run-length
  // dictionary is worth it whenever it at least halves the entries.
  std::size_t n_runs = 0;
  for (std::size_t i = lo; i < hi;) {
    std::size_t j = i + 1;
    while (j < hi && run.keys.At(j) == run.keys.At(i)) ++j;
    ++n_runs;
    i = j;
  }
  const bool use_dict = n > 0 && n_runs * 2 <= n;
  body.push_back(static_cast<char>(use_dict ? kFlagKeyDict : 0));
  if (use_dict) {
    PutVarint(n_runs, body);
    for (std::size_t i = lo; i < hi;) {
      std::size_t j = i + 1;
      while (j < hi && run.keys.At(j) == run.keys.At(i)) ++j;
      const std::string_view key = run.keys.At(i);
      PutVarint(key.size(), body);
      body.append(key.data(), key.size());
      PutVarint(j - i, body);
      i = j;
    }
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::string_view key = run.keys.At(i);
      PutVarint(key.size(), body);
      body.append(key.data(), key.size());
    }
  }

  // Positions: zigzag deltas (sorted by key, so positions are only
  // near-monotone; deltas still tend small within a key's run).
  std::int64_t prev = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const auto pos = static_cast<std::int64_t>(run.positions[i]);
    PutVarint(ZigZagEncode(pos - prev), body);
    prev = pos;
  }

  for (std::size_t i = lo; i < hi; ++i) {
    const std::string_view value = run.values.At(i);
    PutVarint(value.size(), body);
    body.append(value.data(), value.size());
  }

  std::string compressed;
  codec.Compress(body, compressed);
  const bool keep = compressed.size() < body.size();
  const std::string& chosen = keep ? compressed : body;
  const std::uint8_t codec_id = keep ? codec.id() : IdentityCodec().id();

  payload.clear();
  payload.push_back(static_cast<char>(codec_id));
  PutVarint(body.size(), payload);
  payload.append(chosen);

  stats.raw_bytes += body.size();
  stats.encoded_bytes += payload.size();
  stats.blocks += 1;
  if (use_dict) stats.dict_blocks += 1;
}

common::Status DecodeBlock(std::string_view payload, ColumnarRun& run) {
  run.Clear();
  const char* p = payload.data();
  const char* const end = p + payload.size();
  if (p == end) {
    return common::Status::Internal("block: empty payload");
  }
  const auto codec_id = static_cast<std::uint8_t>(*p++);
  const Codec* codec = CodecById(codec_id);
  if (codec == nullptr) {
    return common::Status::Internal("block: unknown codec id " +
                                    std::to_string(codec_id));
  }
  std::uint64_t raw_size = 0;
  if (!GetVarint(p, end, raw_size)) {
    return common::Status::Internal("block: truncated raw size");
  }
  if (raw_size > kMaxBlockBytes) {
    return common::Status::Internal("block: implausible raw size " +
                                    std::to_string(raw_size));
  }
  std::string body;
  auto status = codec->Decompress(
      std::string_view(p, static_cast<std::size_t>(end - p)),
      static_cast<std::size_t>(raw_size), body);
  if (!status.ok()) return status;

  p = body.data();
  const char* const body_end = p + body.size();
  std::uint64_t n = 0;
  if (!GetVarint(p, body_end, n)) {
    return common::Status::Internal("block: truncated row count");
  }
  if (n > kMaxBlockBytes) {
    return common::Status::Internal("block: implausible row count");
  }
  if (p == body_end) {
    return common::Status::Internal("block: truncated flags");
  }
  const auto flags = static_cast<std::uint8_t>(*p++);
  if ((flags & ~kFlagKeyDict) != 0) {
    return common::Status::Internal("block: unknown flags");
  }

  run.hashes.reserve(n);
  run.positions.reserve(n);
  if ((flags & kFlagKeyDict) != 0) {
    std::uint64_t n_runs = 0;
    if (!GetVarint(p, body_end, n_runs)) {
      return common::Status::Internal("block: truncated dictionary size");
    }
    std::uint64_t total = 0;
    for (std::uint64_t r = 0; r < n_runs; ++r) {
      std::uint64_t key_len = 0;
      if (!GetVarint(p, body_end, key_len) ||
          static_cast<std::uint64_t>(body_end - p) < key_len) {
        return common::Status::Internal("block: truncated dictionary key");
      }
      const std::string_view key(p, static_cast<std::size_t>(key_len));
      p += key_len;
      std::uint64_t count = 0;
      if (!GetVarint(p, body_end, count)) {
        return common::Status::Internal("block: truncated run count");
      }
      if (count == 0 || total + count > n) {
        return common::Status::Internal("block: dictionary rows mismatch");
      }
      const std::uint64_t hash = HashBytes(key);
      for (std::uint64_t k = 0; k < count; ++k) {
        run.keys.Append(key);
        run.hashes.push_back(hash);
      }
      total += count;
    }
    if (total != n) {
      return common::Status::Internal("block: dictionary rows mismatch");
    }
  } else {
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t key_len = 0;
      if (!GetVarint(p, body_end, key_len) ||
          static_cast<std::uint64_t>(body_end - p) < key_len) {
        return common::Status::Internal("block: truncated key");
      }
      const std::string_view key(p, static_cast<std::size_t>(key_len));
      p += key_len;
      run.keys.Append(key);
      run.hashes.push_back(HashBytes(key));
    }
  }

  // Unsigned accumulation wraps where a corrupt delta would overflow a
  // signed sum, and equals the signed sum on every well-formed block.
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = 0;
    if (!GetVarint(p, body_end, delta)) {
      return common::Status::Internal("block: truncated position");
    }
    prev += static_cast<std::uint64_t>(ZigZagDecode(delta));
    run.positions.push_back(prev);
  }

  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t value_len = 0;
    if (!GetVarint(p, body_end, value_len) ||
        static_cast<std::uint64_t>(body_end - p) < value_len) {
      return common::Status::Internal("block: truncated value");
    }
    run.values.Append(std::string_view(p, static_cast<std::size_t>(value_len)));
    p += value_len;
  }
  if (p != body_end) {
    return common::Status::Internal("block: trailing bytes in body");
  }
  return common::Status::Ok();
}

}  // namespace mrcost::storage
