#include "src/dist/rpc.h"

#include <errno.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/storage/spill_file.h"

namespace mrcost::dist {

namespace {

/// Gathered write of the whole iovec list, retrying EINTR and resuming
/// after partial writes by advancing the iovecs in place. One writev puts
/// header + payload into a single syscall on the fast path, so a frame is
/// never split across a scheduling boundary unless the socket buffer
/// forces it — both the RPC channel and the shuffle data channel frame
/// through here.
common::Status WriteAllV(int fd, struct iovec* iov, int iovcnt) {
  std::size_t remaining = 0;
  for (int i = 0; i < iovcnt; ++i) remaining += iov[i].iov_len;
  while (remaining > 0) {
    // Skip iovecs a previous partial write fully consumed.
    while (iovcnt > 0 && iov[0].iov_len == 0) {
      ++iov;
      --iovcnt;
    }
    const ssize_t written = ::writev(fd, iov, iovcnt);
    if (written < 0) {
      if (errno == EINTR) continue;
      return common::Status::Internal(
          std::string("rpc: write failed: ") + std::strerror(errno));
    }
    remaining -= static_cast<std::size_t>(written);
    std::size_t consumed = static_cast<std::size_t>(written);
    for (int i = 0; i < iovcnt && consumed > 0; ++i) {
      const std::size_t take = std::min(consumed, iov[i].iov_len);
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + take;
      iov[i].iov_len -= take;
      consumed -= take;
    }
  }
  return common::Status::Ok();
}

/// Reads exactly `n` bytes. `got` reports the bytes read when the stream
/// ends early (0 at the very start = clean EOF).
common::Status ReadAll(int fd, char* data, std::size_t n,
                       std::size_t& got) {
  got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return common::Status::Unavailable("rpc: connection reset by peer");
      }
      return common::Status::Internal(
          std::string("rpc: read failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      return common::Status::OutOfRange("rpc: truncated frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return common::Status::Ok();
}

}  // namespace

common::Status WriteFrame(int fd, std::string_view payload,
                          bool checksum) {
  return WriteFrameParts(fd, payload, std::string_view(), checksum);
}

common::Status WriteFrameParts(int fd, std::string_view head,
                               std::string_view body, bool checksum) {
  const std::size_t total = head.size() + body.size();
  if (total > kMaxFrameBytes) {
    return common::Status::InvalidArgument(
        "rpc: frame of " + std::to_string(total) +
        " bytes exceeds the frame limit");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(total);
  std::uint32_t crc = kUncheckedCrc;
  if (checksum) {
    crc = storage::Crc32(head.data(), head.size());
    if (!body.empty()) {
      // CRC of the concatenation: resume the running value over `body`.
      crc = storage::Crc32Resume(crc, body.data(), body.size());
    }
  }
  char header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);
  struct iovec iov[3];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  int iovcnt = 1;
  for (std::string_view part : {head, body}) {
    if (part.empty()) continue;
    iov[iovcnt].iov_base = const_cast<char*>(part.data());
    iov[iovcnt].iov_len = part.size();
    ++iovcnt;
  }
  return WriteAllV(fd, iov, iovcnt);
}

common::Status ReadFrame(int fd, std::string& payload) {
  char header[8];
  std::size_t got = 0;
  if (auto status = ReadAll(fd, header, sizeof(header), got);
      !status.ok()) {
    if (got == 0 && status.code() == common::StatusCode::kOutOfRange) {
      return common::Status::NotFound("rpc: eof");
    }
    return status;
  }
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, header, 4);
  std::memcpy(&crc, header + 4, 4);
  if (len > kMaxFrameBytes) {
    return common::Status::InvalidArgument(
        "rpc: frame length " + std::to_string(len) +
        " exceeds the frame limit");
  }
  payload.resize(len);
  if (len > 0) {
    if (auto status = ReadAll(fd, payload.data(), len, got); !status.ok()) {
      return status;
    }
  }
  if (crc != kUncheckedCrc &&
      storage::Crc32(payload.data(), payload.size()) != crc) {
    return common::Status::Internal("rpc: frame crc mismatch");
  }
  return common::Status::Ok();
}

bool IsEof(const common::Status& status) {
  return status.code() == common::StatusCode::kNotFound;
}

bool IsPeerLost(const common::Status& status) {
  return IsEof(status) ||
         status.code() == common::StatusCode::kOutOfRange ||
         status.code() == common::StatusCode::kUnavailable;
}

}  // namespace mrcost::dist
