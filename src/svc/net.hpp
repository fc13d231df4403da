// Socket substrate of the certification service (DESIGN.md §12).
//
// The dispatcher (svc/dispatcher.hpp) and connected workers (svc/worker.hpp)
// speak a tiny framed protocol over a stream socket — Unix-domain
// ("unix:/path") or TCP loopback ("tcp:host:port", IPv4 literal). Every
// frame is checksummed independently of its payload, so transport-level
// corruption is detected at the framing layer even before a shard payload's
// own certify_wire checksum runs; a frame that does not verify throws
// std::invalid_argument, exactly like a corrupt shard file, and the
// dispatcher treats both identically (strike the range, drop the
// connection).
//
// Failure taxonomy matters here: socket-level faults (refused connection,
// EOF, send timeout) throw TransportError — retried with bounded backoff by
// callers and surfaced as exit code 4 by tools/bncg_certify — while
// *corruption* of successfully transported bytes throws
// std::invalid_argument and rides the exit-3 wire-guard path. The two must
// never blur: a flaky network is retryable, a lying peer is refused.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace bncg::svc {

/// Version of the dispatcher/worker frame protocol. Hellos (and Submit /
/// JobStatus control requests) carrying any other version are refused.
/// v2 added session multiplexing: Submit/Accepted/JobStatus frames,
/// session ids in Hello/Welcome/Lease, and per-lease run configuration.
inline constexpr std::uint32_t kSvcProtocolVersion = 2;

/// Leading magic of every frame ("BNCG", little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x47434E42u;

/// Upper bound on a frame payload; a corrupted length field must never
/// make the receiver try to buffer gigabytes.
inline constexpr std::size_t kMaxFramePayload = 1u << 24;

/// Socket-level failure (connect refused, EOF mid-frame, send timeout) —
/// distinct from data corruption, retryable, exit code 4 in the CLI.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frame types of the dispatch protocol. Handshake: worker sends Hello
/// (protocol version + instance fingerprint/n/m + optional session pin),
/// dispatcher answers Welcome (session adoption + default run
/// configuration), Refuse (reason), or JobStatus (parked: no queued job
/// matches yet — a later Welcome adopts the worker when one arrives).
/// Work: Lease (dispatcher → worker, one agent range plus that session's
/// run configuration), Result (worker → dispatcher, one
/// certify_wire-encoded ShardResult), Done (dispatcher → worker, no more
/// work, disconnect cleanly). Control clients (no Hello): Submit
/// (client → dispatcher, queue one job) answered by Accepted (session
/// id), and a JobStatus query answered by a JobStatus report.
enum class FrameType : std::uint8_t {
  Hello = 1,
  Welcome = 2,
  Refuse = 3,
  Lease = 4,
  Result = 5,
  Done = 6,
  Submit = 7,
  Accepted = 8,
  JobStatus = 9,
};

struct Frame {
  FrameType type = FrameType::Done;
  std::string payload;
};

// Frames and payloads are built with put_* and read with PayloadReader —
// the one little-endian codec of util/bytes.hpp, shared with the shard
// wire and the journal's session record.

/// Encodes magic + type + length + payload + FNV-1a checksum over
/// (type, payload).
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Incremental decoder over a receive buffer: returns std::nullopt while
/// the buffer holds no complete frame, consumes and returns the first
/// frame otherwise. Throws std::invalid_argument on bad magic, an
/// out-of-range length, an unknown type byte, or a checksum mismatch —
/// the stream is then unusable (framing may have lost sync) and the
/// caller must drop the connection.
[[nodiscard]] std::optional<Frame> try_decode_frame(std::string& buffer);

/// Owning wrapper of a connected stream socket. Move-only; closes on
/// destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close_fd() noexcept;

  /// Blocking, complete send of raw bytes (frames are encoded by the
  /// caller so fault injection can corrupt them deliberately). Throws
  /// TransportError on failure or a peer that stays unwritable past a
  /// bounded wait.
  void send_bytes(std::string_view bytes);
  void send_frame(const Frame& frame) { send_bytes(encode_frame(frame)); }

  /// Blocking receive of exactly one frame (worker side). Throws
  /// TransportError on EOF/socket error, std::invalid_argument on a
  /// corrupt frame.
  [[nodiscard]] Frame recv_frame();

  /// Non-blocking read for the dispatcher's poll loop: appends whatever
  /// is available to `sink`.
  enum class ReadStatus { Data, WouldBlock, Closed };
  [[nodiscard]] ReadStatus read_some(std::string& sink);

  void set_nonblocking(bool on);

 private:
  int fd_ = -1;
  std::string inbuf_;  // recv_frame buffering (blocking side only)
};

/// Connects to "unix:/path" or "tcp:host:port" (one attempt). Throws
/// TransportError when the peer is unreachable, std::invalid_argument on a
/// malformed address.
[[nodiscard]] Socket connect_to(const std::string& address);

/// Bound, listening server socket. For "tcp:host:0" the kernel picks the
/// port; address() reports the resolved one. Unix-domain paths are
/// unlinked on destruction.
class Listener {
 public:
  explicit Listener(const std::string& address);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& address() const noexcept { return address_; }

  /// Accepts one pending connection (non-blocking listener: returns an
  /// invalid Socket when none is pending). Throws TransportError on
  /// listener failure.
  [[nodiscard]] Socket accept_connection();

 private:
  int fd_ = -1;
  std::string address_;
  std::string unlink_path_;  // unix-domain socket file to remove
};

}  // namespace bncg::svc
