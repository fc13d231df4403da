#include "svc/protocol.hpp"

#include "core/certify_wire.hpp"
#include "util/error.hpp"

namespace bncg::svc {

namespace {

void require_type(const Frame& frame, FrameType want, const char* what) {
  BNCG_REQUIRE(frame.type == want, what);
}

void put_summary(std::string& out, const JobSummary& job) {
  put_u64(out, job.session_id);
  put_u64(out, job.fingerprint);
  put_u32(out, job.n);
  put_u64(out, job.m);
  put_model(out, job.model);
  put_bool(out, job.include_deletions);
  put_bool(out, job.stop_on_violation);
  put_u32(out, job.shard_count);
  put_u32(out, job.completed_ranges);
  put_u32(out, job.quarantined_ranges);
  put_u8(out, static_cast<std::uint8_t>(job.state));
}

[[nodiscard]] JobSummary read_summary(PayloadReader& in) {
  JobSummary job;
  job.session_id = in.u64();
  job.fingerprint = in.u64();
  job.n = in.u32();
  job.m = in.u64();
  job.model = read_model(in);
  job.include_deletions = in.boolean();
  job.stop_on_violation = in.boolean();
  job.shard_count = in.u32();
  job.completed_ranges = in.u32();
  job.quarantined_ranges = in.u32();
  const std::uint8_t state = in.u8();
  BNCG_REQUIRE(state <= static_cast<std::uint8_t>(JobSummary::State::Refused),
               "svc protocol: bad session state byte");
  job.state = static_cast<JobSummary::State>(state);
  BNCG_REQUIRE(job.shard_count >= 1, "svc protocol: zero shard count in summary");
  BNCG_REQUIRE(job.completed_ranges <= job.shard_count &&
                   job.quarantined_ranges <= job.shard_count,
               "svc protocol: summary range counts exceed the shard count");
  return job;
}

}  // namespace

Frame make_hello(const HelloBody& body) {
  Frame f;
  f.type = FrameType::Hello;
  put_u32(f.payload, body.protocol_version);
  put_u64(f.payload, body.fingerprint);
  put_u32(f.payload, body.n);
  put_u64(f.payload, body.m);
  put_u64(f.payload, body.session_id);
  return f;
}

Frame make_welcome(const WelcomeBody& body) {
  Frame f;
  f.type = FrameType::Welcome;
  put_model(f.payload, body.model);
  put_bool(f.payload, body.include_deletions);
  put_bool(f.payload, body.stop_on_violation);
  put_u32(f.payload, body.shard_count);
  put_u64(f.payload, body.session_id);
  return f;
}

Frame make_refuse(const std::string& reason) {
  Frame f;
  f.type = FrameType::Refuse;
  put_bytes(f.payload, reason);
  return f;
}

Frame make_lease(const LeaseBody& body) {
  Frame f;
  f.type = FrameType::Lease;
  put_u32(f.payload, body.range.lo);
  put_u32(f.payload, body.range.hi);
  put_u32(f.payload, body.range.shard_index);
  put_u32(f.payload, body.range.shard_count);
  put_u64(f.payload, body.lease_ms);
  put_u64(f.payload, body.session_id);
  put_model(f.payload, body.model);
  put_bool(f.payload, body.include_deletions);
  put_bool(f.payload, body.stop_on_violation);
  return f;
}

Frame make_result(std::string shard_wire_bytes) {
  Frame f;
  f.type = FrameType::Result;
  f.payload = std::move(shard_wire_bytes);
  return f;
}

Frame make_done() {
  Frame f;
  f.type = FrameType::Done;
  return f;
}

Frame make_submit(const SubmitBody& body) {
  Frame f;
  f.type = FrameType::Submit;
  put_u32(f.payload, body.protocol_version);
  put_u64(f.payload, body.fingerprint);
  put_u32(f.payload, body.n);
  put_u64(f.payload, body.m);
  put_model(f.payload, body.model);
  put_bool(f.payload, body.include_deletions);
  put_bool(f.payload, body.stop_on_violation);
  put_u32(f.payload, body.shard_count);
  return f;
}

Frame make_accepted(const AcceptedBody& body) {
  Frame f;
  f.type = FrameType::Accepted;
  put_u64(f.payload, body.session_id);
  put_bool(f.payload, body.already_queued);
  return f;
}

Frame make_job_query() {
  Frame f;
  f.type = FrameType::JobStatus;
  put_u32(f.payload, kSvcProtocolVersion);
  put_bool(f.payload, false);
  return f;
}

Frame make_job_status(const std::vector<JobSummary>& jobs) {
  Frame f;
  f.type = FrameType::JobStatus;
  put_u32(f.payload, kSvcProtocolVersion);
  put_bool(f.payload, true);
  put_u32(f.payload, static_cast<std::uint32_t>(jobs.size()));
  for (const JobSummary& job : jobs) put_summary(f.payload, job);
  return f;
}

HelloBody parse_hello(const Frame& frame) {
  require_type(frame, FrameType::Hello, "svc protocol: expected hello");
  PayloadReader in(frame.payload);
  HelloBody body;
  body.protocol_version = in.u32();
  body.fingerprint = in.u64();
  body.n = in.u32();
  body.m = in.u64();
  body.session_id = in.u64();
  in.expect_end();
  return body;
}

WelcomeBody parse_welcome(const Frame& frame) {
  require_type(frame, FrameType::Welcome, "svc protocol: expected welcome");
  PayloadReader in(frame.payload);
  WelcomeBody body;
  body.model = read_model(in);
  body.include_deletions = in.boolean();
  body.stop_on_violation = in.boolean();
  body.shard_count = in.u32();
  body.session_id = in.u64();
  BNCG_REQUIRE(body.shard_count >= 1, "svc protocol: zero shard count");
  in.expect_end();
  return body;
}

std::string parse_refuse(const Frame& frame) {
  require_type(frame, FrameType::Refuse, "svc protocol: expected refuse");
  PayloadReader in(frame.payload);
  std::string reason = in.bytes();
  in.expect_end();
  return reason;
}

LeaseBody parse_lease(const Frame& frame) {
  require_type(frame, FrameType::Lease, "svc protocol: expected lease");
  PayloadReader in(frame.payload);
  LeaseBody body;
  body.range.lo = in.u32();
  body.range.hi = in.u32();
  body.range.shard_index = in.u32();
  body.range.shard_count = in.u32();
  body.lease_ms = in.u64();
  body.session_id = in.u64();
  body.model = read_model(in);
  body.include_deletions = in.boolean();
  body.stop_on_violation = in.boolean();
  in.expect_end();
  BNCG_REQUIRE(body.range.lo <= body.range.hi, "svc protocol: bad lease range");
  BNCG_REQUIRE(body.range.shard_index < body.range.shard_count,
               "svc protocol: bad lease shard index");
  return body;
}

SubmitBody parse_submit(const Frame& frame) {
  require_type(frame, FrameType::Submit, "svc protocol: expected submit");
  PayloadReader in(frame.payload);
  SubmitBody body;
  body.protocol_version = in.u32();
  body.fingerprint = in.u64();
  body.n = in.u32();
  body.m = in.u64();
  body.model = read_model(in);
  body.include_deletions = in.boolean();
  body.stop_on_violation = in.boolean();
  body.shard_count = in.u32();
  in.expect_end();
  BNCG_REQUIRE(body.n >= 1, "svc protocol: submit of an empty instance");
  return body;
}

AcceptedBody parse_accepted(const Frame& frame) {
  require_type(frame, FrameType::Accepted, "svc protocol: expected accepted");
  PayloadReader in(frame.payload);
  AcceptedBody body;
  body.session_id = in.u64();
  body.already_queued = in.boolean();
  in.expect_end();
  return body;
}

JobStatusBody parse_job_status(const Frame& frame) {
  require_type(frame, FrameType::JobStatus, "svc protocol: expected job status");
  PayloadReader in(frame.payload);
  JobStatusBody body;
  body.protocol_version = in.u32();
  body.report = in.boolean();
  if (body.report) {
    const std::uint32_t count = in.u32();
    // A corrupted count must not make the receiver try to materialize
    // gigabytes; each summary is ≥ 40 bytes, so the frame length already
    // bounds an honest count.
    BNCG_REQUIRE(count <= kMaxFramePayload / 40, "svc protocol: job count out of range");
    body.jobs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) body.jobs.push_back(read_summary(in));
  }
  in.expect_end();
  return body;
}

}  // namespace bncg::svc
