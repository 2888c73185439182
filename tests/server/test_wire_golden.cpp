/// Golden byte-identity tests for the wire protocol and the journal's
/// on-disk format. The ISSUE 10 hot-path overhaul (zero-copy parse,
/// append-style encoders, slice-by-8 CRC, arena-framed group commit)
/// promised *zero* change to either byte stream; these fixtures pin that
/// promise so any future encoder or framing change that alters the bytes
/// fails loudly instead of silently stranding old clients and journals.
///
/// Fixtures live under tests/golden/wire/. Regenerate them (only after an
/// *intentional* format change, with a protocol-version bump) by running
/// this binary with UUCS_REGEN_WIRE_GOLDEN=1 in the environment.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/sysinfo.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "testcase/suite.hpp"
#include "util/crc32.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"
#include "util/strings.hpp"

#ifndef UUCS_GOLDEN_DIR
#error "UUCS_GOLDEN_DIR must point at tests/golden"
#endif

namespace uucs {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(UUCS_GOLDEN_DIR) + "/wire/" + name;
}

void check_golden(const std::string& name, const std::string& bytes) {
  const std::string path = golden_path(name);
  if (std::getenv("UUCS_REGEN_WIRE_GOLDEN") != nullptr) {
    write_file(path, bytes);
  }
  std::string expected;
  try {
    expected = read_file(path);
  } catch (const std::exception& e) {
    FAIL() << "missing fixture " << path
           << " (regenerate with UUCS_REGEN_WIRE_GOLDEN=1): " << e.what();
  }
  EXPECT_EQ(expected, bytes)
      << "wire bytes for " << name << " changed — this breaks deployed "
      << "clients/journals; if intentional, bump the protocol version and "
      << "regenerate with UUCS_REGEN_WIRE_GOLDEN=1";
}

Guid golden_guid() { return Guid::parse("00112233445566778899aabbccddeeff"); }

RunRecord golden_run(int i) {
  RunRecord r;
  r.run_id = "golden/" + std::to_string(i);
  r.client_guid = golden_guid().to_string();
  r.user_id = "user-7";
  r.testcase_id = "memory-ramp-x1-t120";
  r.task = i % 2 == 0 ? "word" : "quake";
  r.discomforted = i % 2 == 0;
  r.offset_s = 12.25 + i;  // exercises %.17g on a non-integer
  r.last_levels["memory"] = {0.1, 0.25, 1.0 / 3.0};
  r.metadata["engine"] = "golden";
  return r;
}

SyncRequest golden_sync_request(std::uint32_t version) {
  SyncRequest req;
  req.guid = golden_guid();
  req.sync_seq = 42;
  req.known_testcase_ids = {"cpu-ramp-x0.5-t60", "memory-ramp-x1-t120"};
  req.results = {golden_run(0), golden_run(1)};
  req.protocol_version = version;
  return req;
}

SyncResponse golden_sync_response(std::uint32_t version) {
  SyncResponse resp;
  resp.accepted_results = 2;
  resp.duplicate_results = 1;
  resp.stored_run_ids = {"golden/0", "golden/1", "golden/2"};
  resp.server_testcase_count = 5;
  resp.protocol_version = version;
  resp.server_generation = version >= 3 ? 9 : 0;
  resp.new_testcases.push_back(
      make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  resp.new_testcases.push_back(
      make_ramp_testcase(Resource::kCpu, 0.5, 0.05, 60.0));
  return resp;
}

// --- wire fixtures ---------------------------------------------------------

TEST(WireGolden, RegisterRequestAllVersions) {
  const HostSpec host = HostSpec::paper_study_machine();
  check_golden("register_request_v1.txt",
               encode_register_request(host, "golden-nonce", 1));
  check_golden("register_request_v3.txt",
               encode_register_request(host, "golden-nonce", 3));
}

TEST(WireGolden, RegisterResponseAllVersions) {
  check_golden("register_response_v1.txt",
               encode_register_response(golden_guid(), 1));
  check_golden("register_response_v3.txt",
               encode_register_response(golden_guid(), 3));
}

TEST(WireGolden, SyncRequestAllVersions) {
  check_golden("sync_request_v1.txt",
               encode_sync_request(golden_sync_request(1)));
  check_golden("sync_request_v2.txt",
               encode_sync_request(golden_sync_request(2)));
  check_golden("sync_request_v3.txt",
               encode_sync_request(golden_sync_request(3)));
}

TEST(WireGolden, SyncResponseAllVersions) {
  check_golden("sync_response_v1.txt",
               encode_sync_response(golden_sync_response(1)));
  check_golden("sync_response_v2.txt",
               encode_sync_response(golden_sync_response(2)));
  check_golden("sync_response_v3.txt",
               encode_sync_response(golden_sync_response(3)));
}

TEST(WireGolden, ErrorAndBusy) {
  check_golden("error.txt", encode_error("golden failure: line 3"));
  check_golden("busy_v3.txt", encode_busy("overload", "queue full", 250));
}

// --- the _into encoders append, byte-identical to the wrappers -------------

TEST(WireGolden, AppendEncodersMatchWrappersAndAppend) {
  const SyncResponse resp = golden_sync_response(3);
  std::string out = "PREFIX";
  encode_sync_response_into(resp, out);
  ASSERT_EQ(out.substr(0, 6), "PREFIX");
  EXPECT_EQ(out.substr(6), encode_sync_response(resp));

  out = "P";
  encode_sync_request_into(golden_sync_request(2), out);
  EXPECT_EQ(out.substr(1), encode_sync_request(golden_sync_request(2)));

  out.clear();
  encode_register_response_into(golden_guid(), 3, out);
  EXPECT_EQ(out, encode_register_response(golden_guid(), 3));

  out.clear();
  encode_error_into("boom", out);
  EXPECT_EQ(out, encode_error("boom"));

  out.clear();
  encode_busy_into("degraded", "shedding", 100, out);
  EXPECT_EQ(out, encode_busy("degraded", "shedding", 100));
}

TEST(WireGolden, WarmTestcaseCacheChangesNoBytes) {
  SyncResponse cold = golden_sync_response(1);
  SyncResponse warm = golden_sync_response(1);
  for (auto& tc : warm.new_testcases) tc.warm_encoded_record();
  EXPECT_EQ(encode_sync_response(cold), encode_sync_response(warm));

  // The store warms on add; a served copy must still match the cold encode.
  TestcaseStore store;
  store.add(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  std::string via_store;
  store.get("memory-ramp-x1-t120").serialize_record_into(via_store);
  std::string direct;
  kv_serialize_record_into(
      make_ramp_testcase(Resource::kMemory, 1.0, 120.0).to_record(), direct);
  EXPECT_EQ(via_store, direct);
}

// --- zero-copy parse is equivalent to the owning parse ---------------------

TEST(WireGolden, KvDocMatchesKvParseOnGoldenMessages) {
  const std::vector<std::string> messages = {
      encode_sync_request(golden_sync_request(3)),
      encode_sync_response(golden_sync_response(3)),
      encode_register_request(HostSpec::paper_study_machine(), "n", 2),
      encode_error("x"),
  };
  for (const std::string& text : messages) {
    const std::vector<KvRecord> owned = kv_parse(text);
    KvDoc doc;
    doc.parse(text);
    ASSERT_EQ(owned.size(), doc.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const KvRecord materialized = doc.at(i).materialize();
      EXPECT_EQ(owned[i].type(), materialized.type());
      ASSERT_EQ(owned[i].keys(), materialized.keys());
      for (const auto& key : owned[i].keys()) {
        EXPECT_EQ(owned[i].get(key), materialized.get(key));
      }
    }
  }
}

TEST(WireGolden, KvDocErrorMessagesMatchKvParse) {
  // The exact ParseError text is part of the protocol surface (clients log
  // and tests assert on it), so the zero-copy parser must throw the same
  // strings as the owning one.
  const std::vector<std::string> malformed = {
      "[unterminated\nkey = v\n",
      "[]\nkey = v\n",
      "no record yet\n",
      "[run]\nbadline\n",
      "[run]\n = v\n",
      "[run]\nk = a\nk = b\n",
  };
  for (const std::string& text : malformed) {
    std::string owned_err, doc_err;
    try {
      kv_parse(text);
    } catch (const std::exception& e) {
      owned_err = e.what();
    }
    try {
      KvDoc doc;
      doc.parse(text);
    } catch (const std::exception& e) {
      doc_err = e.what();
    }
    ASSERT_FALSE(owned_err.empty()) << "input not rejected: " << text;
    EXPECT_EQ(owned_err, doc_err) << "divergent error for: " << text;
  }
}

TEST(WireGolden, RunRecordSerializeIntoMatchesKvSerialize) {
  for (int i = 0; i < 4; ++i) {
    const RunRecord r = golden_run(i);
    std::string direct;
    r.serialize_into(direct);
    EXPECT_EQ(direct, kv_serialize({r.to_record()}));
  }
}

TEST(WireGolden, PeekRequestTakesViewsAndSubstrings) {
  const std::string text = encode_sync_request(golden_sync_request(3));
  const RequestPeek peek = peek_request(std::string_view(text));
  EXPECT_EQ(peek.op, RequestPeek::Op::kSync);
  EXPECT_EQ(peek.protocol_version, 3);
  EXPECT_TRUE(peek.write_class);
}

// --- journal on-disk format ------------------------------------------------

/// Reference implementation of the journal frame as it shipped before the
/// slice-by-8/arena rewrite: strprintf header + bytewise Sarwate CRC. Any
/// drift between this and Journal::frame_into is an on-disk format change.
std::string reference_frame(const std::string& payload) {
  const std::uint32_t crc = crc32_bytewise(payload);
  return strprintf("UUCSJ %zu %08x\n", payload.size(), crc) + payload + "\n";
}

std::vector<std::string> golden_journal_payloads() {
  std::vector<std::string> payloads;
  for (int i = 0; i < 3; ++i) {
    std::string entry;
    golden_run(i).serialize_into(entry);
    payloads.push_back(std::move(entry));
  }
  payloads.push_back("");  // empty payload frames too
  payloads.push_back(std::string("binary\0bytes\xff", 13));
  return payloads;
}

TEST(WireGolden, JournalFileBytesPinned) {
  TempDir dir;
  const std::string path = dir.file("golden.journal");
  {
    Journal journal = Journal::open(path);
    journal.append_batch(golden_journal_payloads());
  }
  check_golden("journal.bin", read_file(path));
}

TEST(WireGolden, JournalFrameMatchesReferenceFraming) {
  std::string expected;
  for (const auto& p : golden_journal_payloads()) expected += reference_frame(p);
  std::string actual;
  for (const auto& p : golden_journal_payloads()) {
    Journal::frame_into(actual, p);
  }
  EXPECT_EQ(expected, actual);
}

TEST(WireGolden, JournalCrossReplayOldAndNew) {
  const auto payloads = golden_journal_payloads();
  TempDir dir;

  // A journal written by the reference (pre-rewrite) framing must replay
  // cleanly through the current implementation...
  const std::string old_path = dir.file("old.journal");
  std::string old_bytes;
  for (const auto& p : payloads) old_bytes += reference_frame(p);
  write_file(old_path, old_bytes);
  Journal replayed = Journal::open(old_path);
  ASSERT_EQ(replayed.entries().size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replayed.entries()[i], payloads[i]);
  }

  // ...and a journal written by the current implementation must be
  // byte-identical to what the reference framing would have produced.
  const std::string new_path = dir.file("new.journal");
  {
    Journal journal = Journal::open(new_path);
    journal.append_batch(std::vector<std::string>(payloads));
  }
  EXPECT_EQ(read_file(new_path), old_bytes);

  // The checked-in fixture replays too (guards against both sides of this
  // test drifting together).
  Journal fixture = Journal::open(golden_path("journal.bin"));
  ASSERT_EQ(fixture.entries().size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(fixture.entries()[i], payloads[i]);
  }
}

// --- CRC implementations agree ---------------------------------------------

TEST(WireGolden, Crc32CheckValueAndDifferential) {
  // IEEE 802.3 check value: CRC32("123456789") == 0xcbf43926. The x86
  // SSE4.2 crc32 instruction computes CRC32C (Castagnoli) and would fail
  // this — which is exactly why the dispatcher must never pick it.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32_bytewise("123456789"), 0xcbf43926u);

  constexpr std::size_t kLengths = 300;
  constexpr std::size_t kOffsets = 16;
  std::string data;
  std::uint32_t x = 1;
  while (data.size() < kLengths + kOffsets) {
    x = x * 1103515245u + 12345u;
    data.push_back(static_cast<char>(x >> 16));
  }
  // Every length from every start offset 0-15, so the unaligned head, the
  // 16-byte steps and the tail each run at every phase of the buffer.
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t len = 0; len < kLengths; ++len) {
      const std::string_view view = std::string_view(data).substr(offset, len);
      EXPECT_EQ(crc32(view), crc32_bytewise(view))
          << "offset=" << offset << " len=" << len;
      // Chunked updates must match one-shot, at every split point parity.
      if (len > 0) {
        const std::size_t split = len / 3;
        std::uint32_t state = crc32_init();
        state = crc32_update(state, view.substr(0, split));
        state = crc32_update(state, view.substr(split));
        EXPECT_EQ(crc32_final(state), crc32(view))
            << "offset=" << offset << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace uucs
