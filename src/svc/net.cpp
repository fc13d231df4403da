#include "svc/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace bncg::svc {

namespace {

constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4;  // magic + type + length
constexpr std::size_t kFrameTrailerBytes = 8;         // checksum
constexpr int kSendStallMs = 5000;  // unwritable peer → TransportError

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

[[nodiscard]] std::uint64_t frame_checksum(FrameType type, std::string_view payload) {
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload);
  return fnv1a64(body.data(), body.size());
}

/// Splits "tcp:host:port" / "unix:path". Throws std::invalid_argument on
/// anything else — a bad address is caller misuse, not a transport fault.
struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  std::uint16_t port = 0;
};

[[nodiscard]] ParsedAddress parse_address(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    BNCG_REQUIRE(!out.path.empty(), "svc: empty unix socket path");
    sockaddr_un probe{};
    BNCG_REQUIRE(out.path.size() < sizeof probe.sun_path, "svc: unix socket path too long");
    return out;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    BNCG_REQUIRE(colon != std::string::npos && colon > 0, "svc: tcp address must be host:port");
    out.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    BNCG_REQUIRE(!port_text.empty() &&
                     port_text.find_first_not_of("0123456789") == std::string::npos &&
                     std::stoul(port_text) <= 0xFFFF,
                 "svc: bad tcp port");
    out.port = static_cast<std::uint16_t>(std::stoul(port_text));
    return out;
  }
  BNCG_REQUIRE(false, "svc: address must start with unix: or tcp:");
  return out;  // unreachable
}

void fill_inet(const ParsedAddress& addr, sockaddr_in& sin) {
  sin = {};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(addr.port);
  BNCG_REQUIRE(inet_pton(AF_INET, addr.host.c_str(), &sin.sin_addr) == 1,
               "svc: tcp host must be an IPv4 literal");
}

void fill_unix(const ParsedAddress& addr, sockaddr_un& sun) {
  sun = {};
  sun.sun_family = AF_UNIX;
  std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  BNCG_REQUIRE(frame.payload.size() <= kMaxFramePayload, "svc frame: payload too large");
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  put_u32(out, kFrameMagic);
  put_u8(out, static_cast<std::uint8_t>(frame.type));
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  put_u64(out, frame_checksum(frame.type, frame.payload));
  return out;
}

std::optional<Frame> try_decode_frame(std::string& buffer) {
  if (buffer.size() < kFrameHeaderBytes) return std::nullopt;
  PayloadReader header(std::string_view(buffer).substr(0, kFrameHeaderBytes));
  BNCG_REQUIRE(header.u32() == kFrameMagic, "svc frame: bad magic");
  const std::uint8_t type_byte = header.u8();
  BNCG_REQUIRE(type_byte >= static_cast<std::uint8_t>(FrameType::Hello) &&
                   type_byte <= static_cast<std::uint8_t>(FrameType::JobStatus),
               "svc frame: unknown type");
  const std::uint32_t length = header.u32();
  BNCG_REQUIRE(length <= kMaxFramePayload, "svc frame: length out of range");
  const std::size_t total = kFrameHeaderBytes + length + kFrameTrailerBytes;
  if (buffer.size() < total) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.payload = buffer.substr(kFrameHeaderBytes, length);
  PayloadReader trailer(std::string_view(buffer).substr(kFrameHeaderBytes + length, 8));
  BNCG_REQUIRE(trailer.u64() == frame_checksum(frame.type, frame.payload),
               "svc frame: checksum mismatch");
  buffer.erase(0, total);
  return frame;
}

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close_fd(); }

void Socket::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_bytes(std::string_view bytes) {
  BNCG_REQUIRE(valid(), "svc: send on closed socket");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t rc =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Non-blocking fd with a full send buffer: wait briefly for the peer
      // to drain; a peer stuck past the stall bound is a transport fault.
      pollfd pfd{fd_, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, kSendStallMs);
      if (ready > 0) continue;
      if (ready < 0 && errno == EINTR) continue;
      throw TransportError("svc: peer unwritable (send stalled)");
    }
    throw_errno("svc: send failed");
  }
}

Frame Socket::recv_frame() {
  BNCG_REQUIRE(valid(), "svc: recv on closed socket");
  while (true) {
    if (std::optional<Frame> frame = try_decode_frame(inbuf_)) return *std::move(frame);
    char chunk[4096];
    const ssize_t rc = ::recv(fd_, chunk, sizeof chunk, 0);
    if (rc > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(rc));
      continue;
    }
    if (rc == 0) throw TransportError("svc: connection closed by peer");
    if (errno == EINTR) continue;
    throw_errno("svc: recv failed");
  }
}

Socket::ReadStatus Socket::read_some(std::string& sink) {
  BNCG_REQUIRE(valid(), "svc: read on closed socket");
  char chunk[65536];
  while (true) {
    const ssize_t rc = ::recv(fd_, chunk, sizeof chunk, 0);
    if (rc > 0) {
      sink.append(chunk, static_cast<std::size_t>(rc));
      return ReadStatus::Data;
    }
    if (rc == 0) return ReadStatus::Closed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::WouldBlock;
    return ReadStatus::Closed;  // hard socket error == peer gone
  }
}

void Socket::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("svc: fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) < 0) throw_errno("svc: fcntl(F_SETFL)");
}

Socket connect_to(const std::string& address) {
  const ParsedAddress addr = parse_address(address);
  const int fd = ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("svc: socket");
  Socket sock(fd);
  int rc;
  if (addr.is_unix) {
    sockaddr_un sun{};
    fill_unix(addr, sun);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof sun);
    } while (rc < 0 && errno == EINTR);
  } else {
    sockaddr_in sin{};
    fill_inet(addr, sin);
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof sin);
    } while (rc < 0 && errno == EINTR);
  }
  if (rc < 0) throw_errno("svc: connect to " + address + " failed");
  return sock;
}

Listener::Listener(const std::string& address) {
  const ParsedAddress addr = parse_address(address);
  fd_ = ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("svc: socket");
  try {
    if (addr.is_unix) {
      sockaddr_un sun{};
      fill_unix(addr, sun);
      // A stale socket file from a crashed dispatcher would fail bind();
      // removing it is safe because a *live* listener would still accept —
      // the certification handshake, not the path, authenticates sessions.
      ::unlink(addr.path.c_str());
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sun), sizeof sun) < 0) {
        throw_errno("svc: bind " + address);
      }
      unlink_path_ = addr.path;
      address_ = address;
    } else {
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in sin{};
      fill_inet(addr, sin);
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sin), sizeof sin) < 0) {
        throw_errno("svc: bind " + address);
      }
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
        throw_errno("svc: getsockname");
      }
      char host[INET_ADDRSTRLEN] = {};
      ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof host);
      address_ = "tcp:" + std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
    }
    if (::listen(fd_, 64) < 0) throw_errno("svc: listen");
    // Non-blocking so the dispatcher's poll loop can drain pending accepts
    // without stalling on a connection that vanished between poll and
    // accept.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
      throw_errno("svc: listener fcntl");
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

Socket Listener::accept_connection() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) return Socket();
    throw_errno("svc: accept failed");
  }
}

}  // namespace bncg::svc
