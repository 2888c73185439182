#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "server/server.hpp"
#include "util/clock.hpp"

namespace uucs {

/// Client-side view of the server: the two interactions of §2, both
/// initiated by the client. Implemented directly by LocalServerApi
/// (in-process server object) and by RemoteServerApi (wire protocol over a
/// MessageChannel), so client code is transport-agnostic.
class ServerApi {
 public:
  virtual ~ServerApi() = default;

  /// Registers the client machine; returns the assigned GUID. A non-empty
  /// `nonce` makes the call idempotent: the server remembers nonce -> GUID,
  /// so a retry after a lost response returns the existing registration
  /// instead of minting an orphan. Nonce uniqueness is the caller's
  /// contract (UucsClient derives it from its per-client seed).
  virtual Guid register_client(const HostSpec& host,
                               const std::string& nonce = "") = 0;

  /// Performs one hot sync.
  virtual SyncResponse hot_sync(const SyncRequest& request) = 0;
};

/// Direct adapter over an in-process UucsServer (no serialization).
class LocalServerApi final : public ServerApi {
 public:
  explicit LocalServerApi(UucsServer& server, Clock* clock = nullptr)
      : server_(server), clock_(clock) {}

  Guid register_client(const HostSpec& host, const std::string& nonce = "") override {
    return server_.register_client(host, clock_ ? clock_->now() : 0.0, nonce);
  }
  SyncResponse hot_sync(const SyncRequest& request) override {
    return server_.hot_sync(request);
  }

 private:
  UucsServer& server_;
  Clock* clock_;
};

/// Bidirectional, message-oriented, blocking byte channel. One message in,
/// one message out; read() returns nullopt when the peer closed.
class MessageChannel {
 public:
  virtual ~MessageChannel() = default;
  virtual void write(const std::string& message) = 0;
  virtual std::optional<std::string> read() = 0;
  virtual void close() = 0;
};

/// Wire protocol versions this build speaks. v1 is the original
/// register/sync exchange; v2 additionally echoes the version (`proto`) and
/// carries the server generation on sync responses, so a client can observe
/// a live takeover rollout. v3 adds typed backpressure: when an overloaded
/// or read-degraded server rejects a v3 request, the [error] reply carries
/// optional `kind` and `retry_after_ms` keys so the client can distinguish
/// "busy, retry later" from "your request is wrong" and spread its retries.
/// Negotiation is per-connectionless: the register request carries the
/// client's highest version, the response answers the highest version both
/// sides speak, and every sync request then states the version it is
/// encoded in (absent = 1). Each version only *adds* optional keys, so
/// either side may be older without breaking the other mid-rollout.
constexpr int kProtocolVersionMin = 1;
constexpr int kProtocolVersionMax = 3;

/// Wire codec: messages are the library's key-value text format, with the
/// record type of the first record naming the operation
/// (register-request/-response, sync-request/-response, error).
std::string encode_register_request(const HostSpec& host,
                                    const std::string& nonce = "",
                                    int protocol_version = kProtocolVersionMax);
std::string encode_register_response(const Guid& guid,
                                     int protocol_version = kProtocolVersionMin);
std::string encode_sync_request(const SyncRequest& request);
std::string encode_sync_response(const SyncResponse& response);
std::string encode_error(const std::string& message);

/// Append-style encoders: write the message into a caller-owned buffer
/// (appending, not replacing), byte-identical to the string-returning
/// variants above. The hot paths reuse one warmed buffer per worker so a
/// steady stream of encodes performs no heap allocation; the golden wire
/// tests pin both variants against checked-in fixtures.
void encode_register_response_into(const Guid& guid, int protocol_version,
                                   std::string& out);
void encode_sync_request_into(const SyncRequest& request, std::string& out);
/// As above, but encodes `protocol_version` in place of
/// `request.protocol_version` (a client lowering it to the negotiated one
/// without copying the request).
void encode_sync_request_into(const SyncRequest& request, std::string& out,
                              std::uint32_t protocol_version);
void encode_sync_response_into(const SyncResponse& response, std::string& out);
void encode_error_into(const std::string& message, std::string& out);
void encode_busy_into(const std::string& kind, const std::string& message,
                      std::uint64_t retry_after_ms, std::string& out);

/// v3 typed backpressure: an [error] reply that additionally names its
/// shedding class (`kind`: "overload" | "degraded") and hints how long the
/// client should back off. Only ever sent to peers that asked for v3 —
/// older peers' wire bytes stay pinned (they are shed silently and their
/// retry timeout does the spreading).
std::string encode_busy(const std::string& kind, const std::string& message,
                        std::uint64_t retry_after_ms);

/// What the overload layer needs to know about a request *before* paying
/// for a full parse or dispatch: the operation, the protocol version it
/// self-describes, and whether admitting it would create new durable state
/// (registrations and uploads are write-class; a result-free sync is
/// read-class and stays serviceable while the journal is degraded).
struct RequestPeek {
  enum class Op { kRegister, kSync, kStats, kUnknown };
  Op op = Op::kUnknown;
  int protocol_version = 1;
  bool write_class = false;
};

/// Cheap, never-throwing scan of the request's head record. Operates on a
/// view (the ingest plane peeks straight into the connection's frame
/// buffer); allocates nothing. Malformed input yields kUnknown/defaults —
/// admission control must not crash on garbage the dispatcher would reject
/// anyway.
RequestPeek peek_request(std::string_view request) noexcept;

/// Server-side dispatch of one encoded request; returns the encoded
/// response (an [error] message for malformed or failing requests).
/// Journals and fsyncs accepted state before returning, so the returned
/// response may be sent immediately. `request` is only read during the
/// call (the parse is zero-copy into a per-thread arena), so callers may
/// pass a view into a transient frame buffer.
std::string dispatch_request(UucsServer& server, std::string_view request,
                             Clock* clock = nullptr);

/// Result of a deferred-durability dispatch: the encoded response plus what
/// must be durable *before* it is released to the client.
///
/// With a committer attached to the server (UucsServer::attach_committer),
/// the request's entries are already queued on it and `lsn` is the highest
/// LSN the response observed: its own entries, the original behind a
/// duplicate upload, or the registration a repeated nonce returns. Release
/// the response once the committer's durable LSN reaches it
/// (GroupCommitJournal::wait); 0 — a result-free sync or an error — may go
/// at once.
///
/// Without a committer, `journal_entries` holds the new entries for the
/// caller to make durable first. An empty list does NOT mean "send at
/// once": a duplicate's original may not even be queued yet.
struct DispatchResult {
  std::string response;
  std::vector<std::string> journal_entries;
  std::uint64_t lsn = 0;
};

/// Like dispatch_request, but does not fsync: new state is applied in
/// memory and its entries are queued on the server's committer (or handed
/// back when none is attached). The ingest plane sends the response once
/// its LSN is durable, which is what lets thousands of concurrent acks
/// share one fsync.
DispatchResult dispatch_request_deferred(UucsServer& server,
                                         std::string_view request,
                                         Clock* clock = nullptr);

/// Serves a channel until the peer closes: read request, dispatch, reply.
void serve_channel(UucsServer& server, MessageChannel& channel, Clock* clock = nullptr);

/// ServerApi speaking the wire protocol over a MessageChannel. Throws
/// ProtocolError on malformed responses and Error on [error] replies.
class RemoteServerApi final : public ServerApi {
 public:
  /// `protocol_version` is the highest version this client speaks (an old
  /// client pins it to 1 in mixed-fleet tests). Until the server answers a
  /// register, syncs optimistically use it — safe because newer versions
  /// only add keys an older server ignores.
  explicit RemoteServerApi(MessageChannel& channel,
                           int protocol_version = kProtocolVersionMax)
      : channel_(channel),
        requested_version_(protocol_version),
        negotiated_version_(protocol_version) {}

  Guid register_client(const HostSpec& host, const std::string& nonce = "") override;
  SyncResponse hot_sync(const SyncRequest& request) override;

  /// Version agreed at the last register (or the optimistic default).
  int negotiated_version() const { return negotiated_version_; }
  /// Carries a prior negotiation across a reconnect (RetryingServerApi
  /// rebuilds this object per connection).
  void set_negotiated_version(int v) { negotiated_version_ = v; }

  /// Server generation from the last v2 sync response (0 before one, and
  /// forever 0 against a v1 server).
  std::uint64_t last_server_generation() const { return last_generation_; }

 private:
  std::string round_trip(const std::string& request);
  MessageChannel& channel_;
  int requested_version_;
  int negotiated_version_;
  std::uint64_t last_generation_ = 0;
};

}  // namespace uucs
