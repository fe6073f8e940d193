#include "src/storage/spill_file.h"

#include <array>
#include <cstring>

namespace mrcost::storage {
namespace {

// Standard IEEE 802.3 CRC-32 (reflected polynomial), computed
// slicing-by-8: eight derived tables let the hot loop fold eight input
// bytes per iteration instead of one. Same polynomial, same values as
// the classic bytewise loop — only the throughput changes (~8x), which
// matters because every RPC frame and spill-file block is CRC'd on both
// the write and the read side.
std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (int t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

/// Reads exactly `n` bytes; false on short read (stream eof/fail set).
bool ReadExact(std::ifstream& in, char* data, std::size_t n) {
  in.read(data, static_cast<std::streamsize>(n));
  return in.gcount() == static_cast<std::streamsize>(n);
}

}  // namespace

namespace {

/// The pre/post-inversion-free core: feeds `n` bytes into a running CRC
/// state. Crc32 and Crc32Resume wrap it with the standard inversions.
std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t n) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      MakeCrcTables();
  const auto& t = tables;
  // The 8-byte fold below reads words in memory order, which matches the
  // reflected CRC bit order only on little-endian hosts.
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__);
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
          t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n) {
  return Crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32Resume(std::uint32_t crc, const void* data,
                          std::size_t n) {
  return Crc32Update(crc ^ 0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

common::Result<SpillFileWriter> SpillFileWriter::Create(
    const std::string& path) {
  SpillFileWriter writer;
  writer.path_ = path;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) {
    return common::Status::NotFound("spill file: cannot create " + path);
  }
  const std::uint32_t header[2] = {kSpillMagic, kSpillFormatVersionBlocks};
  writer.out_.write(reinterpret_cast<const char*>(header), sizeof(header));
  writer.bytes_written_ = sizeof(header);
  if (!writer.out_) {
    return common::Status::Internal("spill file: header write failed for " +
                                    path);
  }
  return writer;
}

common::Status SpillFileWriter::AppendBlock(const std::string& payload) {
  const std::uint32_t frame[2] = {static_cast<std::uint32_t>(payload.size()),
                                  Crc32(payload.data(), payload.size())};
  out_.write(reinterpret_cast<const char*>(frame), sizeof(frame));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out_) {
    return common::Status::Internal("spill file: block write failed for " +
                                    path_);
  }
  bytes_written_ += sizeof(frame) + payload.size();
  return common::Status::Ok();
}

common::Status SpillFileWriter::Close() {
  if (!out_.is_open()) return common::Status::Ok();
  out_.flush();
  out_.close();
  if (out_.fail()) {
    return common::Status::Internal("spill file: close failed for " + path_);
  }
  return common::Status::Ok();
}

common::Result<SpillFileReader> SpillFileReader::Open(
    const std::string& path) {
  SpillFileReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) {
    return common::Status::NotFound("spill file: cannot open " + path);
  }
  std::uint32_t header[2] = {0, 0};
  if (!ReadExact(reader.in_, reinterpret_cast<char*>(header),
                 sizeof(header))) {
    return common::Status::OutOfRange("spill file: truncated header in " +
                                      path);
  }
  if (header[0] != kSpillMagic) {
    return common::Status::InvalidArgument("spill file: bad magic in " +
                                           path);
  }
  if (header[1] != kSpillFormatVersionBlocks) {
    return common::Status::InvalidArgument(
        "spill file: unsupported version " + std::to_string(header[1]) +
        " in " + path);
  }
  return reader;
}

common::Status SpillFileReader::Next(std::string& payload, bool& done) {
  done = false;
  std::uint32_t frame[2] = {0, 0};
  in_.read(reinterpret_cast<char*>(frame), sizeof(frame));
  if (in_.gcount() == 0 && in_.eof()) {
    done = true;
    return common::Status::Ok();
  }
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(frame))) {
    return common::Status::OutOfRange(
        "spill file: truncated block header in " + path_);
  }
  if (frame[0] > kMaxBlockBytes) {
    return common::Status::Internal("spill file: implausible block length " +
                                    std::to_string(frame[0]) + " in " +
                                    path_);
  }
  payload.resize(frame[0]);
  if (!ReadExact(in_, payload.data(), payload.size())) {
    return common::Status::OutOfRange("spill file: truncated block in " +
                                      path_);
  }
  if (Crc32(payload.data(), payload.size()) != frame[1]) {
    return common::Status::Internal("spill file: CRC mismatch in " + path_);
  }
  return common::Status::Ok();
}

}  // namespace mrcost::storage
