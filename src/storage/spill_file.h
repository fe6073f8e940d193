#ifndef MRCOST_STORAGE_SPILL_FILE_H_
#define MRCOST_STORAGE_SPILL_FILE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "src/common/status.h"

namespace mrcost::storage {

/// On-disk format of one spill run (see README "External shuffle"):
///
///   +-------------------+  file header
///   | u32 magic "MRSP"  |
///   | u32 version       |
///   +-------------------+  block, repeated until end of file
///   | u32 payload bytes |
///   | u32 CRC32(payload)|
///   | payload ...       |
///   +-------------------+
///
/// Payloads are opaque to this layer: a shuffle run's payload is one
/// encoded columnar block (src/storage/block.h — codec id, varint raw
/// size, compressed body), and the multi-process runtime's chunk and
/// result files frame their own serialized rows. Every block is
/// CRC-checked on read, so a torn write, a truncated file, or bit rot
/// surfaces as a Status instead of garbage groups.
std::uint32_t Crc32(const void* data, std::size_t n);

/// Extends a finished Crc32 value over more bytes, as if the original
/// buffer and `data` had been checksummed in one call:
/// Crc32Resume(Crc32(a), b) == Crc32(a + b). Lets framing layers checksum
/// a logically concatenated payload without materializing it.
std::uint32_t Crc32Resume(std::uint32_t crc, const void* data,
                          std::size_t n);

inline constexpr std::uint32_t kSpillMagic = 0x5053524Du;  // "MRSP"

/// The one format version readers accept; any other version — the
/// retired record format 1 included — fails Open with kInvalidArgument.
inline constexpr std::uint32_t kSpillFormatVersionBlocks = 2;

/// Blocks are flushed once their payload reaches this size (a single
/// oversized record still forms one valid, larger block).
inline constexpr std::size_t kDefaultBlockBytes = 256 * 1024;

/// Reject block length fields beyond this before allocating: no writer
/// produces them, so a larger length means a corrupt frame header.
inline constexpr std::uint32_t kMaxBlockBytes = 1u << 30;

/// Appends CRC-framed blocks to a spill file. Create() writes the header;
/// Close() flushes (the file persists — cleanup belongs to the caller,
/// normally a RunSpiller).
class SpillFileWriter {
 public:
  static common::Result<SpillFileWriter> Create(const std::string& path);

  SpillFileWriter(SpillFileWriter&&) = default;
  SpillFileWriter& operator=(SpillFileWriter&&) = default;

  common::Status AppendBlock(const std::string& payload);
  common::Status Close();

  /// Bytes written so far, header and block frames included.
  std::uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  SpillFileWriter() = default;

  std::ofstream out_;
  std::string path_;
  std::uint64_t bytes_written_ = 0;
};

/// Streams the blocks of a spill file back, verifying the header on Open
/// and each block's CRC on Next.
class SpillFileReader {
 public:
  static common::Result<SpillFileReader> Open(const std::string& path);

  SpillFileReader(SpillFileReader&&) = default;
  SpillFileReader& operator=(SpillFileReader&&) = default;

  /// Reads the next block's payload. Sets `done` (payload untouched) at a
  /// clean end of file; a partial frame returns kOutOfRange ("truncated")
  /// and a CRC mismatch kInternal.
  common::Status Next(std::string& payload, bool& done);

  const std::string& path() const { return path_; }

 private:
  SpillFileReader() = default;

  std::ifstream in_;
  std::string path_;
};

}  // namespace mrcost::storage

#endif  // MRCOST_STORAGE_SPILL_FILE_H_
