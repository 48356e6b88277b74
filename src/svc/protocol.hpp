// Wire protocol for the sweep service (cgs-sweepd).
//
// Everything crossing the daemon's local TCP socket is one util/wire frame,
// in either direction: magic "CGSW", a one-byte MsgType as the head, and a
// payload capped at kMaxPayload.  The CRC exists because the daemon must
// survive garbage — a port scanner, a half-dead client, a truncated send
// — by classifying it, not by crashing or misparsing.  A frame that fails
// magic/length/CRC checks is unrecoverable mid-stream (framing is lost),
// so the daemon answers with one kBadFrame error and closes that session;
// every other malformed input is a structured kError reply on a session
// that stays open.
//
// Payloads are "key=value\n" text (KvMap) for requests and snapshots, and
// free-form text for human-facing reports — small, greppable, and
// versionless by construction: unknown keys are ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace cgs::svc {

/// Frame magic: rejects non-protocol peers at the first four bytes.
constexpr std::uint32_t kFrameMagic = 0x57534743u;  // "CGSW"

/// Hard payload cap: a length prefix beyond this is garbage (or an attack)
/// and classifies as a bad frame before any allocation happens.
constexpr std::size_t kMaxPayload = 1u << 20;

/// Bytes of framing around a payload: magic + type + length + crc.
constexpr std::size_t kFrameOverhead = 4 + 1 + 4 + 4;

/// Message taxonomy.  Requests are < 16, responses >= 16; values are wire
/// format — append, never renumber.
enum class MsgType : std::uint8_t {
  // client -> daemon
  kSubmit = 1,  // kv spec: named grid or inline scenario
  kStatus = 2,  // no payload: list all jobs
  kWatch = 3,   // kv: job=<id> [seq=<last-seen>] — subscribe to snapshots
  kCancel = 4,  // kv: job=<id>
  kDrain = 5,   // no payload: graceful daemon drain
  // daemon -> client
  kAccepted = 16,  // kv: job=<id> journal=<path>
  kError = 17,     // kv: code/name/message[/retry_after_s]
  kReport = 18,    // plain text, human-facing
  kSnapshot = 19,  // kv: job progress snapshot (droppable under pressure)
  kDone = 20,      // kv: job reached a terminal state
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<unsigned char> payload;

  [[nodiscard]] std::string text() const {
    return std::string(payload.begin(), payload.end());
  }
};

/// Assemble one wire frame.
[[nodiscard]] std::vector<unsigned char> encode_frame(MsgType type,
                                                      std::string_view payload);

/// Incremental frame decoder for one session's byte stream.  feed() bytes
/// as they arrive, then drain next() until it stops returning kFrame.
/// kBad is terminal: framing is lost, the caller must close the session
/// (bad_reason() says why, for the error reply and the log).
class FrameParser {
 public:
  enum class Status : std::uint8_t { kNeedMore, kFrame, kBad };

  void feed(const unsigned char* data, std::size_t n);
  Status next(Frame& out);

  [[nodiscard]] const std::string& bad_reason() const { return bad_reason_; }

 private:
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string bad_reason_;
  bool bad_ = false;
};

/// Request/snapshot payloads: sorted "key=value\n" lines.
using KvMap = std::map<std::string, std::string>;

/// Serialize (keys sorted by map order; '\n' in values becomes ' ' so the
/// line structure survives any input).
[[nodiscard]] std::string encode_kv(const KvMap& kv);

/// Parse "key=value" lines; lines without '=' are skipped, last duplicate
/// wins.  Never throws — unparseable text yields an empty/partial map.
[[nodiscard]] KvMap parse_kv(std::string_view text);

/// Lookup with default.
[[nodiscard]] std::string kv_get(const KvMap& kv, const std::string& key,
                                 const std::string& fallback = "");

/// Build a kError payload: code=<byte> name=<kebab> message=<text>
/// [retry_after_s=<seconds>].
[[nodiscard]] std::vector<unsigned char> encode_error(core::ProtoError code,
                                                      std::string_view message,
                                                      double retry_after_s = 0);

}  // namespace cgs::svc
