#ifndef MRCOST_DIST_RPC_H_
#define MRCOST_DIST_RPC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace mrcost::dist {

/// Length-prefixed CRC-framed message transport over a byte-stream fd
/// (the coordinator/worker socketpair; tests use pipes). Wire format per
/// frame, little-endian, matching the spill files' framing conventions:
///
///   [u32 payload_len][u32 crc32(payload)][payload bytes]
///
/// ReadFrame's Status contract mirrors SpillFileReader::Next: a clean EOF
/// at a frame boundary returns kNotFound ("eof" — the peer closed its
/// end), a partial frame kOutOfRange ("truncated"), a connection reset
/// by the peer kUnavailable (it died with bytes of ours unread), a CRC
/// mismatch kInternal, and an over-limit length kInvalidArgument. Both
/// calls retry EINTR and handle short reads/writes.

/// Frames larger than this are rejected on both sides (a corrupt length
/// prefix must not trigger a giant allocation).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// CRC field value meaning "sender skipped the checksum" — ReadFrame does
/// not verify such frames. The shuffle data plane sends its bulk RunBlock
/// frames unchecked: on a local AF_UNIX socket the kernel already
/// guarantees byte integrity, and checksumming the (deliberately
/// uncompressed) raw columnar frames would be the single largest CPU cost
/// of the transport. Control-plane frames stay checksummed. The sentinel
/// collides with the true CRC of a payload once in 2^32, in which case
/// that one checked frame merely skips verification — the same guarantee
/// an unchecked frame has. (An empty payload's CRC is also 0; verifying
/// it would be vacuous anyway.)
inline constexpr std::uint32_t kUncheckedCrc = 0;

/// `checksum = false` stamps kUncheckedCrc instead of the payload CRC.
common::Status WriteFrame(int fd, std::string_view payload,
                          bool checksum = true);

/// Writes one frame whose payload is the concatenation `head` + `body`
/// without materializing it — a single writev from the caller's buffers.
/// The data plane uses this to frame [u32 msg type][block bytes] straight
/// from the run registry's memory.
common::Status WriteFrameParts(int fd, std::string_view head,
                               std::string_view body, bool checksum = true);

common::Status ReadFrame(int fd, std::string& payload);

/// True iff `status` is ReadFrame's clean-EOF result.
bool IsEof(const common::Status& status);

/// True iff `status` is a ReadFrame result meaning the peer went away:
/// a clean EOF, a frame cut short, or a reset connection.
bool IsPeerLost(const common::Status& status);

}  // namespace mrcost::dist

#endif  // MRCOST_DIST_RPC_H_
