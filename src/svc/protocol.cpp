#include "svc/protocol.hpp"

#include "util/wire.hpp"

namespace cgs::svc {

std::vector<unsigned char> encode_frame(MsgType type,
                                        std::string_view payload) {
  util::wire::Writer w(kFrameOverhead + payload.size());
  w.u32(kFrameMagic).u8(std::uint8_t(type)).str(payload).seal();
  return w.take();
}

void FrameParser::feed(const unsigned char* data, std::size_t n) {
  if (bad_) return;  // the session is doomed; don't grow the buffer
  buf_.insert(buf_.end(), data, data + n);
}

FrameParser::Status FrameParser::next(Frame& out) {
  if (bad_) return Status::kBad;
  const util::wire::FrameView f = util::wire::scan_frame(
      buf_.data() + pos_, buf_.size() - pos_, kFrameMagic, 1, kMaxPayload);
  switch (f.status) {
    case util::wire::Scan::kShort:
      return Status::kNeedMore;
    case util::wire::Scan::kBadMagic:
      bad_reason_ = "bad frame magic";
      break;
    case util::wire::Scan::kOversized:
      bad_reason_ = "oversized frame (" + std::to_string(f.payload_len) +
                    " bytes > " + std::to_string(kMaxPayload) + " cap)";
      break;
    case util::wire::Scan::kBadCrc:
      bad_reason_ = "frame CRC mismatch";
      break;
    case util::wire::Scan::kFrame:
      out.type = MsgType(f.head[0]);
      out.payload.assign(f.payload, f.payload + f.payload_len);
      pos_ += f.size;
      // Compact once the dead prefix dominates, keeping the buffer bounded
      // by one in-flight frame plus change.
      if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + std::ptrdiff_t(pos_));
        pos_ = 0;
      }
      return Status::kFrame;
  }
  bad_ = true;
  return Status::kBad;
}

std::string encode_kv(const KvMap& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    out += k;
    out += '=';
    for (char c : v) out += (c == '\n') ? ' ' : c;
    out += '\n';
  }
  return out;
}

KvMap parse_kv(std::string_view text) {
  KvMap kv;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    kv[std::string(line.substr(0, eq))] = std::string(line.substr(eq + 1));
  }
  return kv;
}

std::string kv_get(const KvMap& kv, const std::string& key,
                   const std::string& fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

std::vector<unsigned char> encode_error(core::ProtoError code,
                                        std::string_view message,
                                        double retry_after_s) {
  KvMap kv;
  kv["code"] = std::to_string(int(code));
  kv["name"] = std::string(to_string(code));
  kv["message"] = std::string(message);
  if (retry_after_s > 0) kv["retry_after_s"] = std::to_string(retry_after_s);
  const std::string text = encode_kv(kv);
  return {text.begin(), text.end()};
}

}  // namespace cgs::svc
