// Frame protocol and socket substrate of the certification service
// (svc/net.hpp): encode/decode round-trips, incremental decoding over
// arbitrarily fragmented buffers, the every-bit-flip corruption property
// (a flipped frame either throws or is detected as incomplete — it can
// never decode to a different valid frame silently), and live loopback
// transport over socketpair, unix-domain, and TCP sockets.
#include "svc/net.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "svc/protocol.hpp"

namespace bncg::svc {
namespace {

[[nodiscard]] Frame sample_frame(FrameType type, std::size_t payload_len) {
  Frame f;
  f.type = type;
  f.payload.reserve(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    f.payload.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
  }
  return f;
}

TEST(SvcNet, FrameRoundTripsEveryTypeAndSize) {
  for (const FrameType type : {FrameType::Hello, FrameType::Welcome, FrameType::Refuse,
                               FrameType::Lease, FrameType::Result, FrameType::Done,
                               FrameType::Submit, FrameType::Accepted, FrameType::JobStatus}) {
    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                                  std::size_t{256}, std::size_t{4096}}) {
      const Frame sent = sample_frame(type, len);
      std::string buffer = encode_frame(sent);
      const std::optional<Frame> got = try_decode_frame(buffer);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->type, sent.type);
      EXPECT_EQ(got->payload, sent.payload);
      EXPECT_TRUE(buffer.empty()) << "decode must consume the frame";
    }
  }
}

TEST(SvcNet, IncrementalDecodeAcrossEveryFragmentBoundary) {
  const Frame sent = sample_frame(FrameType::Result, 37);
  const std::string wire = encode_frame(sent);
  // Feed the frame one byte at a time; a complete frame must appear exactly
  // once, at the final byte, never from a prefix.
  for (std::size_t split = 1; split <= wire.size(); ++split) {
    std::string buffer = wire.substr(0, split);
    const std::optional<Frame> got = try_decode_frame(buffer);
    if (split < wire.size()) {
      EXPECT_FALSE(got.has_value()) << "split " << split;
      EXPECT_EQ(buffer.size(), split) << "incomplete decode must not consume";
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->payload, sent.payload);
    }
  }
}

TEST(SvcNet, BackToBackFramesDecodeInOrder) {
  const Frame a = sample_frame(FrameType::Lease, 21);
  const Frame b = sample_frame(FrameType::Result, 64);
  const Frame c = sample_frame(FrameType::Done, 0);
  std::string buffer = encode_frame(a) + encode_frame(b) + encode_frame(c);
  const std::optional<Frame> got_a = try_decode_frame(buffer);
  const std::optional<Frame> got_b = try_decode_frame(buffer);
  const std::optional<Frame> got_c = try_decode_frame(buffer);
  ASSERT_TRUE(got_a && got_b && got_c);
  EXPECT_EQ(got_a->payload, a.payload);
  EXPECT_EQ(got_b->payload, b.payload);
  EXPECT_EQ(got_c->type, FrameType::Done);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(try_decode_frame(buffer).has_value());
}

// The corruption property behind the chaos harness: flip ANY single bit of
// an encoded frame and the decoder either throws (detected), reports
// incomplete (a length-field flip asking for more bytes — the dispatcher
// then hits EOF or its next frame's magic check), or — never — returns a
// frame different from the original.
TEST(SvcNet, EveryBitFlipIsDetectedOrStarves) {
  const Frame sent = sample_frame(FrameType::Result, 48);
  const std::string wire = encode_frame(sent);
  std::size_t detected = 0;
  std::size_t starved = 0;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string buffer = wire;
      buffer[byte] = static_cast<char>(static_cast<unsigned char>(buffer[byte]) ^ (1u << bit));
      try {
        const std::optional<Frame> got = try_decode_frame(buffer);
        if (!got.has_value()) {
          ++starved;  // corrupted length now larger than the buffer
          continue;
        }
        // A decoded frame must be byte-identical to what was sent —
        // anything else means the checksum let corruption through.
        EXPECT_EQ(got->type, sent.type) << "byte " << byte << " bit " << bit;
        EXPECT_EQ(got->payload, sent.payload) << "byte " << byte << " bit " << bit;
        FAIL() << "bit flip at byte " << byte << " bit " << bit << " went undetected";
      } catch (const std::invalid_argument&) {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  // Only length-field flips can starve; everything else must throw.
  EXPECT_LE(starved, 8u * 4u);
}

TEST(SvcNet, OversizedLengthRefusedNotBuffered) {
  std::string wire = encode_frame(sample_frame(FrameType::Result, 4));
  // Overwrite the length field (offset 5..8) with kMaxFramePayload + 1.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  for (int i = 0; i < 4; ++i) wire[5 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  EXPECT_THROW((void)try_decode_frame(wire), std::invalid_argument);
}

TEST(SvcNet, PayloadReaderRejectsTruncationAndTrailingBytes) {
  std::string body;
  put_u8(body, 7);
  put_u32(body, 1234567);
  put_u64(body, 0xDEADBEEFCAFEull);
  put_bytes(body, "hello");
  {
    PayloadReader reader(body);
    EXPECT_EQ(reader.u8(), 7u);
    EXPECT_EQ(reader.u32(), 1234567u);
    EXPECT_EQ(reader.u64(), 0xDEADBEEFCAFEull);
    EXPECT_EQ(reader.bytes(), "hello");
    EXPECT_NO_THROW(reader.expect_end());
  }
  {
    PayloadReader truncated(std::string_view(body).substr(0, body.size() - 1));
    EXPECT_EQ(truncated.u8(), 7u);
    EXPECT_EQ(truncated.u32(), 1234567u);
    EXPECT_EQ(truncated.u64(), 0xDEADBEEFCAFEull);
    EXPECT_THROW((void)truncated.bytes(), std::invalid_argument);
  }
  {
    PayloadReader trailing(body);
    (void)trailing.u8();
    EXPECT_THROW(trailing.expect_end(), std::invalid_argument);
  }
  {
    // Booleans are exactly 0 or 1; any other byte is corruption, not true.
    std::string flags;
    put_bool(flags, false);
    put_bool(flags, true);
    put_u8(flags, 2);
    PayloadReader reader(flags);
    EXPECT_FALSE(reader.boolean());
    EXPECT_TRUE(reader.boolean());
    EXPECT_THROW((void)reader.boolean(), std::invalid_argument);
  }
  // Every protocol payload routes its booleans through boolean(): setting
  // one bool byte to 0x02 refuses the payload.
  WelcomeBody welcome;
  welcome.include_deletions = true;
  LeaseBody lease;
  lease.range = {0, 4, 0, 1};
  lease.include_deletions = true;
  SubmitBody submit;
  submit.n = 4;
  submit.include_deletions = true;
  AcceptedBody accepted;
  accepted.already_queued = true;
  JobSummary job;
  job.include_deletions = true;
  struct BoolByteCase {
    const char* name;
    Frame frame;
    std::size_t offset;
    std::function<void(const Frame&)> parse;
  };
  const BoolByteCase cases[] = {
      {"welcome", make_welcome(welcome), 1, [](const Frame& f) { (void)parse_welcome(f); }},
      {"lease", make_lease(lease), 33, [](const Frame& f) { (void)parse_lease(f); }},
      {"submit", make_submit(submit), 25, [](const Frame& f) { (void)parse_submit(f); }},
      {"accepted", make_accepted(accepted), 8, [](const Frame& f) { (void)parse_accepted(f); }},
      {"job status flag", make_job_status({job}), 4,
       [](const Frame& f) { (void)parse_job_status(f); }},
      {"job summary", make_job_status({job}), 38,
       [](const Frame& f) { (void)parse_job_status(f); }},
  };
  for (const BoolByteCase& c : cases) {
    EXPECT_NO_THROW(c.parse(c.frame)) << c.name;
    ASSERT_EQ(c.frame.payload.at(c.offset), 1) << c.name;
    Frame bad = c.frame;
    bad.payload[c.offset] = 2;
    EXPECT_THROW(c.parse(bad), std::invalid_argument) << c.name;
  }
}

void expect_loopback_conversation(Socket& a, Socket& b) {
  const Frame ping = sample_frame(FrameType::Hello, 19);
  const Frame pong = sample_frame(FrameType::Welcome, 2048);
  a.send_frame(ping);
  const Frame got_ping = b.recv_frame();
  EXPECT_EQ(got_ping.type, FrameType::Hello);
  EXPECT_EQ(got_ping.payload, ping.payload);
  b.send_frame(pong);
  const Frame got_pong = a.recv_frame();
  EXPECT_EQ(got_pong.type, FrameType::Welcome);
  EXPECT_EQ(got_pong.payload, pong.payload);
}

TEST(SvcNet, SocketpairConversationAndEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);
  expect_loopback_conversation(a, b);
  a.close_fd();
  EXPECT_THROW((void)b.recv_frame(), TransportError);
}

TEST(SvcNet, UnixListenerAcceptAndConverse) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bncg_svc_net_unix").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string address = "unix:" + dir + "/svc.sock";
  {
    Listener listener(address);
    EXPECT_EQ(listener.address(), address);
    Socket client = connect_to(address);
    Socket served;
    // The listener is non-blocking: spin briefly until the connection
    // surfaces (same pattern as the dispatcher's poll loop).
    for (int spin = 0; spin < 1000 && !served.valid(); ++spin) {
      served = listener.accept_connection();
      if (!served.valid()) ::usleep(1000);
    }
    ASSERT_TRUE(served.valid());
    expect_loopback_conversation(client, served);
  }
  // Destruction unlinks the socket file; reconnect must now fail cleanly.
  EXPECT_THROW((void)connect_to(address), TransportError);
  std::filesystem::remove_all(dir);
}

TEST(SvcNet, TcpListenerResolvesKernelPortAndConverses) {
  Listener listener("tcp:127.0.0.1:0");
  // Port 0 must have been replaced with the kernel's choice.
  EXPECT_EQ(listener.address().find("tcp:127.0.0.1:"), 0u);
  EXPECT_NE(listener.address(), "tcp:127.0.0.1:0");
  Socket client = connect_to(listener.address());
  Socket served;
  for (int spin = 0; spin < 1000 && !served.valid(); ++spin) {
    served = listener.accept_connection();
    if (!served.valid()) ::usleep(1000);
  }
  ASSERT_TRUE(served.valid());
  expect_loopback_conversation(served, client);
}

TEST(SvcNet, ConnectToDeadAddressThrowsTransportError) {
  EXPECT_THROW((void)connect_to("unix:/nonexistent/path/to.sock"), TransportError);
  EXPECT_THROW((void)connect_to("tcp:127.0.0.1:1"), TransportError);
}

TEST(SvcNet, MalformedAddressIsInvalidArgumentNotTransport) {
  EXPECT_THROW((void)connect_to("carrier-pigeon:coop7"), std::invalid_argument);
  EXPECT_THROW((void)connect_to("tcp:nohost"), std::invalid_argument);
  EXPECT_THROW((void)connect_to(""), std::invalid_argument);
}

}  // namespace
}  // namespace bncg::svc
