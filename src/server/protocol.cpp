#include "server/protocol.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace uucs {

namespace {

/// Testcase/run ids travel in comma-separated lists; enforce the invariant.
void check_id(const std::string& id) {
  if (id.find(',') != std::string::npos || id.find('\n') != std::string::npos) {
    throw ProtocolError("id contains forbidden characters: " + id);
  }
}

/// Strict protocol-version field parse: absent falls back to `absent`, but a
/// present field must be a sane positive integer. The error is a typed
/// ProtocolError (never a hang, never a ParseError that reads like a file
/// bug) so version-skew failures are diagnosable at both ends. Templated so
/// KvRecord and KvDoc::Rec heads share the one implementation (and the one
/// error message).
template <class H>
int parse_version_field(const H& head, const std::string& key, int absent) {
  const auto raw = head.find(key);
  if (!raw) return absent;
  const auto v = parse_int(*raw);
  if (!v || *v < 1 || *v > 1000000) {
    throw ProtocolError("malformed protocol version '" + std::string(*raw) +
                        "' in [" + std::string(head.type()) + "]");
  }
  return static_cast<int>(*v);
}

/// `key = <integer>\n`, matching KvRecord::set_int + kv_serialize bytes.
void append_int_line(std::string& out, std::string_view key, std::int64_t v) {
  out.append(key);
  out.append(" = ");
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%lld",
                              static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
  out.push_back('\n');
}

void append_str_line(std::string& out, std::string_view key,
                     std::string_view value) {
  out.append(key);
  out.append(" = ");
  out.append(value);
  out.push_back('\n');
}

}  // namespace

std::string encode_register_request(const HostSpec& host, const std::string& nonce,
                                    int protocol_version) {
  KvRecord head("register-request");
  head.set_int("version", protocol_version);
  if (!nonce.empty()) head.set("nonce", nonce);
  return kv_serialize({head, host.to_record()});
}

void encode_register_response_into(const Guid& guid, int protocol_version,
                                   std::string& out) {
  out.append("[register-response]\n");
  append_str_line(out, "guid", guid.to_string());
  append_int_line(out, "version", protocol_version);
  out.push_back('\n');
}

std::string encode_register_response(const Guid& guid, int protocol_version) {
  std::string out;
  encode_register_response_into(guid, protocol_version, out);
  return out;
}

void encode_sync_request_into(const SyncRequest& request, std::string& out,
                              std::uint32_t protocol_version) {
  out.append("[sync-request]\n");
  // v1 requests stay byte-identical to the pre-negotiation wire format.
  if (protocol_version >= 2) append_int_line(out, "proto", protocol_version);
  out.append("guid = ");
  request.guid.append_to(out);  // no temporary: the sync hot path writes this
  out.push_back('\n');
  append_int_line(out, "sync_seq", static_cast<std::int64_t>(request.sync_seq));
  for (const auto& id : request.known_testcase_ids) check_id(id);
  out.append("known = ");
  for (std::size_t i = 0; i < request.known_testcase_ids.size(); ++i) {
    if (i) out.push_back(',');
    out.append(request.known_testcase_ids[i]);
  }
  out.push_back('\n');
  append_int_line(out, "result_count",
                  static_cast<std::int64_t>(request.results.size()));
  out.push_back('\n');
  for (const auto& r : request.results) r.serialize_into(out);
}

void encode_sync_request_into(const SyncRequest& request, std::string& out) {
  encode_sync_request_into(request, out, request.protocol_version);
}

std::string encode_sync_request(const SyncRequest& request) {
  std::string out;
  encode_sync_request_into(request, out);
  return out;
}

void encode_sync_response_into(const SyncResponse& response, std::string& out) {
  out.append("[sync-response]\n");
  if (response.protocol_version >= 2) {
    append_int_line(out, "proto", response.protocol_version);
    append_int_line(out, "generation",
                    static_cast<std::int64_t>(response.server_generation));
  }
  append_int_line(out, "accepted_results",
                  static_cast<std::int64_t>(response.accepted_results));
  append_int_line(out, "duplicate_results",
                  static_cast<std::int64_t>(response.duplicate_results));
  for (const auto& id : response.stored_run_ids) check_id(id);
  out.append("stored = ");
  for (std::size_t i = 0; i < response.stored_run_ids.size(); ++i) {
    if (i) out.push_back(',');
    out.append(response.stored_run_ids[i]);
  }
  out.push_back('\n');
  append_int_line(out, "server_testcase_count",
                  static_cast<std::int64_t>(response.server_testcase_count));
  append_int_line(out, "testcase_count",
                  static_cast<std::int64_t>(response.new_testcases.size()));
  out.push_back('\n');
  for (const auto& tc : response.new_testcases) {
    // Appends the testcase's warm serialization cache when present —
    // identical bytes to kv_serialize_record_into(tc.to_record(), out).
    tc.serialize_record_into(out);
  }
}

std::string encode_sync_response(const SyncResponse& response) {
  std::string out;
  encode_sync_response_into(response, out);
  return out;
}

void encode_error_into(const std::string& message, std::string& out) {
  out.append("[error]\n");
  append_str_line(out, "message", message);
  out.push_back('\n');
}

std::string encode_error(const std::string& message) {
  std::string out;
  encode_error_into(message, out);
  return out;
}

void encode_busy_into(const std::string& kind, const std::string& message,
                      std::uint64_t retry_after_ms, std::string& out) {
  out.append("[error]\n");
  append_str_line(out, "message", message);
  append_str_line(out, "kind", kind);
  append_int_line(out, "retry_after_ms",
                  static_cast<std::int64_t>(retry_after_ms));
  out.push_back('\n');
}

std::string encode_busy(const std::string& kind, const std::string& message,
                        std::uint64_t retry_after_ms) {
  std::string out;
  encode_busy_into(kind, message, retry_after_ms, out);
  return out;
}

RequestPeek peek_request(std::string_view request) noexcept {
  RequestPeek peek;
  const std::string_view sv = request;
  bool in_head = false;
  std::size_t pos = 0;
  while (pos < sv.size()) {
    const auto nl = sv.find('\n', pos);
    const std::string_view line =
        trim(sv.substr(pos, (nl == std::string_view::npos ? sv.size() : nl) - pos));
    pos = nl == std::string_view::npos ? sv.size() : nl + 1;
    if (line.empty() || line.front() == '#') continue;
    if (line.front() == '[') {
      if (in_head) break;  // second record: the head is fully scanned
      if (line.back() != ']') break;
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (name == "register-request") {
        peek.op = RequestPeek::Op::kRegister;
        peek.write_class = true;
      } else if (name == "sync-request") {
        peek.op = RequestPeek::Op::kSync;
      } else if (name == "stats-request") {
        peek.op = RequestPeek::Op::kStats;
      } else {
        break;
      }
      in_head = true;
      continue;
    }
    if (!in_head) break;  // junk before any record: the dispatcher's problem
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    const bool version_key = (peek.op == RequestPeek::Op::kSync && key == "proto") ||
                             (peek.op != RequestPeek::Op::kSync && key == "version");
    if (version_key) {
      const auto v = parse_int(value);
      if (v && *v >= 1 && *v <= 1000000) peek.protocol_version = static_cast<int>(*v);
    } else if (peek.op == RequestPeek::Op::kSync && key == "result_count") {
      const auto v = parse_int(value);
      if (v && *v > 0) peek.write_class = true;
    }
  }
  return peek;
}

namespace {

SyncRequest decode_sync_request(const KvDoc& doc) {
  SyncRequest request;
  const KvDoc::Rec head = doc.at(0);
  const int proto = parse_version_field(head, "proto", 1);
  if (proto > kProtocolVersionMax) {
    throw ProtocolError("unsupported sync protocol version " +
                        std::to_string(proto) + " (this server speaks up to " +
                        std::to_string(kProtocolVersionMax) + ")");
  }
  request.protocol_version = static_cast<std::uint32_t>(proto);
  request.guid = Guid::parse(std::string(head.get("guid")));
  request.sync_seq = static_cast<std::uint64_t>(head.get_int_or("sync_seq", 0));
  // Tokenize the known-ids list straight off the view (same boundaries as
  // split(raw, ','): empty fields skipped just like before).
  const std::string_view known = head.has("known") ? head.get("known") : "";
  if (!known.empty()) {
    request.known_testcase_ids.reserve(
        static_cast<std::size_t>(std::count(known.begin(), known.end(), ',')) + 1);
  }
  std::size_t start = 0;
  for (std::size_t i = 0; i <= known.size(); ++i) {
    if (i == known.size() || known[i] == ',') {
      if (i > start) {
        request.known_testcase_ids.emplace_back(known.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  request.results.reserve(doc.size() - 1);
  for (std::size_t i = 1; i < doc.size(); ++i) {
    request.results.push_back(RunRecord::from_kv(doc.at(i)));
  }
  const auto expected = static_cast<std::size_t>(head.get_int_or("result_count", -1));
  if (head.has("result_count") && expected != request.results.size()) {
    throw ProtocolError("sync request result_count mismatch");
  }
  return request;
}

SyncResponse decode_sync_response(const std::vector<KvRecord>& records) {
  SyncResponse response;
  const KvRecord& head = records.front();
  response.protocol_version =
      static_cast<std::uint32_t>(parse_version_field(head, "proto", 1));
  response.server_generation =
      static_cast<std::uint64_t>(head.get_int_or("generation", 0));
  response.accepted_results =
      static_cast<std::size_t>(head.get_int("accepted_results"));
  response.duplicate_results =
      static_cast<std::size_t>(head.get_int_or("duplicate_results", 0));
  for (const auto& id : split(head.get_or("stored", ""), ',')) {
    if (!id.empty()) response.stored_run_ids.push_back(id);
  }
  response.server_testcase_count =
      static_cast<std::size_t>(head.get_int("server_testcase_count"));
  for (std::size_t i = 1; i < records.size(); ++i) {
    response.new_testcases.push_back(Testcase::from_record(records[i]));
  }
  const auto expected = static_cast<std::size_t>(head.get_int("testcase_count"));
  if (expected != response.new_testcases.size()) {
    throw ProtocolError("sync response testcase_count mismatch");
  }
  return response;
}

}  // namespace

namespace {

/// Shared dispatch body. `journal_out == nullptr` is the blocking path (the
/// server journals + fsyncs internally before returning); non-null is the
/// deferred path (entries are queued on the server's committer, whose LSN
/// comes back in `*lsn_out`, or handed back when none is attached).
///
/// The parse is zero-copy: the request is sliced into a per-worker-thread
/// KvDoc arena whose index vectors stay warm across requests, so the
/// steady-state sync path allocates nothing between the frame buffer and
/// the typed SyncRequest. The views live only until this function returns
/// (or the same thread dispatches again) — everything that outlives the
/// call (run records, registration state) is copied by the decoders.
std::string dispatch_impl(UucsServer& server, std::string_view request,
                          Clock* clock, std::vector<std::string>* journal_out,
                          std::uint64_t* lsn_out) {
  try {
    thread_local KvDoc doc;
    doc.parse(request);
    if (doc.empty()) return encode_error("empty request");
    const std::string_view op = doc.at(0).type();
    if (op == "register-request") {
      if (doc.size() < 2) return encode_error("register request missing host");
      // Version negotiation: answer the highest version both sides speak. A
      // client newer than us simply gets our ceiling back; a malformed
      // version is a typed ProtocolError answered as [error], never a hang.
      const int requested =
          parse_version_field(doc.at(0), "version", kProtocolVersionMin);
      const int negotiated = std::min(requested, kProtocolVersionMax);
      const HostSpec host = HostSpec::from_record(doc.at(1).materialize());
      const Guid guid = server.register_client(host, clock ? clock->now() : 0.0,
                                               doc.at(0).get_or("nonce", ""),
                                               journal_out, lsn_out);
      return encode_register_response(guid, negotiated);
    }
    if (op == "sync-request") {
      // The decoded request exists only to be handed over: its records
      // move into the shard store. The response is encoded into a warm
      // per-thread buffer and copied out at its exact size.
      thread_local std::string reply;
      reply.clear();
      encode_sync_response_into(
          server.hot_sync(decode_sync_request(doc), journal_out, lsn_out), reply);
      return reply;
    }
    return encode_error("unknown operation '" + std::string(op) + "'");
  } catch (const std::exception& e) {
    // An error response acknowledges nothing, so nothing needs durability.
    if (journal_out != nullptr) journal_out->clear();
    if (lsn_out != nullptr) *lsn_out = 0;
    return encode_error(e.what());
  }
}

}  // namespace

std::string dispatch_request(UucsServer& server, std::string_view request,
                             Clock* clock) {
  return dispatch_impl(server, request, clock, nullptr, nullptr);
}

DispatchResult dispatch_request_deferred(UucsServer& server,
                                         std::string_view request,
                                         Clock* clock) {
  DispatchResult result;
  result.response =
      dispatch_impl(server, request, clock, &result.journal_entries, &result.lsn);
  return result;
}

void serve_channel(UucsServer& server, MessageChannel& channel, Clock* clock) {
  while (const auto request = channel.read()) {
    channel.write(dispatch_request(server, *request, clock));
  }
}

std::string RemoteServerApi::round_trip(const std::string& request) {
  channel_.write(request);
  const auto response = channel_.read();
  if (!response) throw ProtocolError("server closed the connection");
  return *response;
}

namespace {

/// An [error] reply with a `kind` key is v3 typed backpressure — retryable,
/// with an optional server pacing hint. Without the key it is the server
/// rejecting the request itself, which a retry cannot fix.
[[noreturn]] void throw_error_reply(const KvRecord& head) {
  if (const auto kind = head.find("kind")) {
    throw ServerBusyError(head.get_or("message", ""), *kind,
                          static_cast<std::uint64_t>(
                              head.get_int_or("retry_after_ms", 0)));
  }
  throw Error("server error: " + head.get("message"));
}

}  // namespace

Guid RemoteServerApi::register_client(const HostSpec& host, const std::string& nonce) {
  const auto records = kv_parse(
      round_trip(encode_register_request(host, nonce, requested_version_)));
  if (records.empty()) throw ProtocolError("empty register response");
  if (records.front().type() == "error") throw_error_reply(records.front());
  if (records.front().type() != "register-response") {
    throw ProtocolError("unexpected response [" + records.front().type() + "]");
  }
  // A pre-negotiation server answers without a version key: that IS the
  // answer ("I speak v1"), so the common version is the min of both sides.
  const int answered =
      parse_version_field(records.front(), "version", kProtocolVersionMin);
  negotiated_version_ = std::min(requested_version_, answered);
  return Guid::parse(records.front().get("guid"));
}

SyncResponse RemoteServerApi::hot_sync(const SyncRequest& request) {
  // Encode at the lower of what the caller asked for and what the server
  // negotiated: a caller that left the default 1 keeps the exact pre-v2
  // bytes, and nobody ever sends a version the server would reject.
  const int asked =
      request.protocol_version == 0 ? 1 : static_cast<int>(request.protocol_version);
  std::string wire;
  encode_sync_request_into(request, wire,
                           static_cast<std::uint32_t>(std::min(negotiated_version_, asked)));
  const auto records = kv_parse(round_trip(wire));
  if (records.empty()) throw ProtocolError("empty sync response");
  if (records.front().type() == "error") throw_error_reply(records.front());
  if (records.front().type() != "sync-response") {
    throw ProtocolError("unexpected response [" + records.front().type() + "]");
  }
  SyncResponse response = decode_sync_response(records);
  if (response.protocol_version >= 2) {
    last_generation_ = response.server_generation;
  }
  return response;
}

}  // namespace uucs
