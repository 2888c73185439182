/// Steady-state allocation-count assertions for the ingest hot path
/// (ISSUE 10): once warmed, the parse / encode / journal-framing / CRC
/// components each perform ZERO heap allocations per request. Built as its
/// own test binary because it replaces the global operator new/delete to
/// count allocations — that replacement must not leak into the other test
/// executables. CI runs this under ASan as well: the counting wrappers
/// forward to malloc/free, which ASan intercepts, so the assertions hold
/// with and without instrumentation.
///
/// What "steady-state zero" covers (and what it deliberately does not):
/// the per-worker KvDoc arena parse, peek_request, the append-style
/// encoders into a recycled buffer, Journal::frame_into into the recycled
/// group-commit batch buffer, and crc32. Producing owned RunRecords or
/// response strings that cross threads allocates by design and is outside
/// these brackets (DESIGN.md §16).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "server/protocol.hpp"
#include "server/server.hpp"
#include "study/controlled_study.hpp"
#include "testcase/suite.hpp"
#include "util/crc32.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/kvtext.hpp"

namespace {

// Plain (not atomic) counters: every test here is single-threaded, and an
// atomic would hide nothing — background threads do not exist in this
// binary.
std::uint64_t g_news = 0;

}  // namespace

// GCC's inliner pairs the library declaration of operator new with the
// free()-based deletes below and warns; the pairing is correct because this
// binary replaces both sides globally with malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace uucs {
namespace {

constexpr int kIterations = 64;

std::uint64_t allocs_since(std::uint64_t start) { return g_news - start; }

std::string sample_sync_request() {
  SyncRequest req;
  req.guid = Guid::parse("00112233445566778899aabbccddeeff");
  req.sync_seq = 3;
  for (int r = 0; r < 2; ++r) {
    RunRecord rec;
    rec.run_id = "alloc/" + std::to_string(r);
    rec.client_guid = req.guid.to_string();
    rec.testcase_id = "memory-ramp-x1-t120";
    rec.task = "bench";
    rec.discomforted = (r % 2) == 0;
    rec.offset_s = 10.5 + r;
    req.results.push_back(std::move(rec));
  }
  return encode_sync_request(req);
}

TEST(HotPathAlloc, KvDocParseIsZeroAllocWhenWarm) {
  const std::string text = sample_sync_request();
  KvDoc doc;
  doc.parse(text);  // warm: pair/record vectors grow to capacity
  const std::uint64_t start = g_news;
  for (int i = 0; i < kIterations; ++i) doc.parse(text);
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_EQ(doc.at(0).type(), "sync-request");
}

TEST(HotPathAlloc, PeekRequestIsZeroAlloc) {
  const std::string text = sample_sync_request();
  const std::uint64_t start = g_news;
  RequestPeek peek;
  for (int i = 0; i < kIterations; ++i) peek = peek_request(text);
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_EQ(peek.op, RequestPeek::Op::kSync);
}

TEST(HotPathAlloc, SyncResponseEncodeIsZeroAllocWhenWarm) {
  SyncResponse response;
  response.accepted_results = 2;
  response.stored_run_ids = {"alloc/0", "alloc/1"};
  response.server_testcase_count = 2;
  response.new_testcases.push_back(
      make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  for (auto& tc : response.new_testcases) tc.warm_encoded_record();
  std::string out;
  encode_sync_response_into(response, out);  // warm the buffer
  const std::uint64_t start = g_news;
  for (int i = 0; i < kIterations; ++i) {
    out.clear();
    encode_sync_response_into(response, out);
  }
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_FALSE(out.empty());
}

TEST(HotPathAlloc, SyncRequestEncodeIsZeroAllocWhenWarm) {
  SyncRequest req;
  req.guid = Guid::parse("00112233445566778899aabbccddeeff");
  req.sync_seq = 3;
  for (int r = 0; r < 2; ++r) {
    RunRecord rec;
    rec.run_id = "alloc/" + std::to_string(r);
    rec.testcase_id = "memory-ramp-x1-t120";
    rec.task = "bench";
    rec.offset_s = 10.5 + r;
    req.results.push_back(std::move(rec));
  }
  std::string out;
  encode_sync_request_into(req, out);  // warm the buffer
  const std::uint64_t start = g_news;
  for (int i = 0; i < kIterations; ++i) {
    out.clear();
    encode_sync_request_into(req, out);
  }
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_FALSE(out.empty());
}

TEST(HotPathAlloc, RunRecordSerializeIntoIsZeroAllocWhenWarm) {
  RunRecord rec;
  rec.run_id = "alloc/0";
  rec.testcase_id = "memory-ramp-x1-t120";
  rec.task = "bench";
  rec.offset_s = 10.5;
  rec.last_levels["memory"] = {0.25, 0.5, 0.75};
  std::string out;
  rec.serialize_into(out);  // warm the buffer
  const std::uint64_t start = g_news;
  for (int i = 0; i < kIterations; ++i) {
    out.clear();
    rec.serialize_into(out);
  }
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_FALSE(out.empty());
}

TEST(HotPathAlloc, JournalFrameIntoIsZeroAllocWhenWarm) {
  std::string entry;
  RunRecord rec;
  rec.run_id = "alloc/journal";
  rec.testcase_id = "memory-ramp-x1-t120";
  rec.offset_s = 1.0;
  rec.serialize_into(entry);
  std::string batch;
  for (int i = 0; i < 8; ++i) Journal::frame_into(batch, entry);  // warm
  const std::uint64_t start = g_news;
  for (int i = 0; i < kIterations; ++i) {
    batch.clear();
    for (int j = 0; j < 8; ++j) Journal::frame_into(batch, entry);
  }
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_FALSE(batch.empty());
}

TEST(HotPathAlloc, Crc32IsZeroAlloc) {
  const std::string data(4096, 'x');
  const std::uint64_t start = g_news;
  std::uint64_t sum = 0;
  for (int i = 0; i < kIterations; ++i) sum += crc32(data);
  EXPECT_EQ(allocs_since(start), 0u);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(crc32(data)) * kIterations);
}

// The end-to-end bracket: a warmed dispatch of N pipelined syncs. This one
// is NOT zero — each sync stores owned RunRecords and returns an owned
// response string (they outlive the request, crossing threads in the real
// server) — but it must stay at a small constant, independent of payload
// re-parsing: the parse/encode arena work is amortized away. A regression
// that reintroduces per-key string materialization in the parse path shows
// up as hundreds of allocations per sync and trips the budget.
TEST(HotPathAlloc, DispatchSteadyStateAllocBudget) {
  UucsServer server(1, 4);
  server.add_testcase(make_ramp_testcase(Resource::kMemory, 1.0, 120.0));
  const Guid guid = server.register_client(HostSpec::paper_study_machine(), 0.0);

  auto make_request = [&](int seq) {
    SyncRequest req;
    req.guid = guid;
    req.sync_seq = static_cast<std::uint64_t>(seq);
    req.known_testcase_ids = {"memory-ramp-x1-t120"};  // nothing to hand out
    for (int r = 0; r < 2; ++r) {
      RunRecord rec;
      rec.run_id = "dispatch/" + std::to_string(seq * 2 + r);
      rec.testcase_id = "memory-ramp-x1-t120";
      rec.task = "bench";
      rec.offset_s = 1.0 + r;
      req.results.push_back(std::move(rec));
    }
    return encode_sync_request(req);
  };

  // Warm: thread_local KvDoc arena, shard maps, response buffers.
  for (int i = 0; i < 8; ++i) dispatch_request(server, make_request(i));

  std::vector<std::string> requests;
  for (int i = 8; i < 8 + kIterations; ++i) requests.push_back(make_request(i));

  const std::uint64_t start = g_news;
  for (const auto& request : requests) {
    const std::string response = dispatch_request(server, request);
    ASSERT_FALSE(response.empty());
  }
  const std::uint64_t per_sync = allocs_since(start) / kIterations;
  // Owned artifacts per sync: 2 RunRecords (a handful of strings each), 2
  // stored run_ids + dedup-set entries, the journal-entry strings, the
  // response string. ~40 gives headroom; the pre-overhaul parse alone did
  // hundreds (one per key/value/record across 3 records).
  EXPECT_LE(per_sync, 40u) << "dispatch allocates " << per_sync
                           << " times per sync — hot-path regression";
}

// A 6-record upload shaped like the controlled study's records: 9 meta.*
// keys, a 5-value last.* list, and run and client ids past 40 characters.
SyncRequest controlled_upload(const Guid& guid, const std::vector<std::string>& known,
                              int seq) {
  SyncRequest req;
  req.protocol_version = kProtocolVersionMax;
  req.guid = guid;
  req.sync_seq = static_cast<std::uint64_t>(seq);
  req.known_testcase_ids = known;  // the whole catalog: nothing to hand out
  const std::string guid_text = guid.to_string();
  for (int r = 0; r < 6; ++r) {
    RunRecord rec;
    rec.run_id = guid_text + "/" + std::to_string(100000 + seq * 6 + r);
    rec.client_guid = guid_text;
    rec.user_id = "user-017";
    rec.testcase_id = "disk-ramp-x2.5-t120";
    rec.task = "word";
    rec.discomforted = (r % 2) == 0;
    rec.offset_s = 120.0 / (r + 3);
    rec.last_levels["disk"] = {0.1 * r, 0.7 / 3, 1.1 / 7, 2.0 / 3, 2.5};
    rec.metadata = {{"host.power", "0.93141592653589791"},
                    {"noise_triggered", "false"},
                    {"skill.ie", "power"},
                    {"skill.pc", "typical"},
                    {"skill.powerpoint", "typical"},
                    {"skill.quake", "beginner"},
                    {"skill.windows", "power"},
                    {"skill.word", "power"},
                    {"testcase.description", "ramp(2.5,120) disk"}};
    req.results.push_back(std::move(rec));
  }
  return req;
}

// The upload bracket: warmed 6-record syncs dispatched the way the ingest
// plane dispatches them (deferred, journal attached, entries handed back
// for the commit thread). 147 per sync when written; before the store took
// over the decoded records it was 340: a deep copy of every record into
// the store, journal entries and the response grown from empty, and
// per-sync vectors grown one push at a time.
//
// What still allocates, 22 per record:
//  - the decode, which the store then keeps: 3 long id strings, the
//    last-levels map node and its values, 9 metadata map nodes and their 4
//    long keys and values (18);
//  - the run_id's dedup-set node and string, its copy in the response's
//    stored list, and one exact-size journal entry (4).
// and the rest once per sync: the guid text, the 6 long known ids and
// their vector, the record, stored-id and journal-entry vectors, the
// sampler's exclusion mask and slot pool, and the exact-size response.
TEST(HotPathAlloc, UploadDispatchAllocBudget) {
  TempDir dir;
  UucsServer server(1, 16);
  server.add_testcases(study::controlled_study_testcases(sim::Task::kWord));
  server.attach_journal(dir.file("upload.journal"));
  const Guid guid = server.register_client(HostSpec::paper_study_machine(), 0.0);
  const std::vector<std::string> known = server.testcases().ids();

  // Warm: thread_local KvDoc arena and buffers, shard containers.
  for (int i = 0; i < 8; ++i) {
    dispatch_request_deferred(server, encode_sync_request(controlled_upload(guid, known, i)));
  }
  std::vector<std::string> requests;
  for (int i = 8; i < 8 + kIterations; ++i) {
    requests.push_back(encode_sync_request(controlled_upload(guid, known, i)));
  }

  std::uint64_t total = 0;
  for (const auto& request : requests) {
    const std::uint64_t start = g_news;
    const DispatchResult result = dispatch_request_deferred(server, request);
    total += allocs_since(start);
    ASSERT_EQ(result.journal_entries.size(), 6u) << result.response;
    ASSERT_NE(result.response.find("accepted_results = 6"), std::string::npos);
  }
  const std::uint64_t per_sync = total / kIterations;
  EXPECT_LE(per_sync, 160u) << "upload dispatch allocates " << per_sync
                            << " times per 6-record sync";
}

// Allocations per warmed, result-free sync that hands a client who knows
// nothing a full batch of 16 from a catalog of `catalog_size` testcases.
// Every testcase has the same function and a fixed-width id, so any 16 of
// them cost the same to copy and encode.
std::uint64_t fetch_allocs_per_sync(int catalog_size) {
  UucsServer server(1, 16);
  const Testcase shape = make_ramp_testcase(Resource::kCpu, 1.0, 120.0);
  for (int i = 0; i < catalog_size; ++i) {
    // Ids as long as real ones (past the inline-string capacity).
    Testcase tc("fetch-testcase-" + std::to_string(10000 + i));
    tc.set_description(shape.description());
    tc.set_function(Resource::kCpu, *shape.function(Resource::kCpu));
    server.add_testcase(std::move(tc));
  }
  const Guid guid = server.register_client(HostSpec::paper_study_machine(), 0.0);
  auto make_request = [&](int seq) {
    SyncRequest req;
    req.guid = guid;
    req.sync_seq = static_cast<std::uint64_t>(seq);
    return encode_sync_request(req);
  };

  for (int i = 0; i < 8; ++i) dispatch_request(server, make_request(i));  // warm

  std::vector<std::string> requests;
  for (int i = 8; i < 8 + kIterations; ++i) requests.push_back(make_request(i));
  std::vector<std::string> responses(requests.size());

  const std::uint64_t start = g_news;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i] = dispatch_request(server, requests[i]);
  }
  const std::uint64_t per_sync = allocs_since(start) / kIterations;

  for (const auto& response : responses) {
    std::size_t handed_out = 0;
    for (auto at = response.find("[testcase]"); at != std::string::npos;
         at = response.find("[testcase]", at + 1)) {
      ++handed_out;
    }
    EXPECT_EQ(handed_out, 16u);
  }
  return per_sync;
}

// The handout must not grow with the catalog: sampling shuffles slot
// numbers of the store's sorted index and copies only the chosen ids. The
// per-catalog-entry string copies it replaced cost thousands of
// allocations per sync at the seeded suite's size.
TEST(HotPathAlloc, FetchDispatchAllocsIndependentOfCatalog) {
  const std::uint64_t small = fetch_allocs_per_sync(64);
  const std::uint64_t large = fetch_allocs_per_sync(2140);
  EXPECT_EQ(small, large);
  // Per sync (94 when written): 16 Testcase copies (id, function map node,
  // samples, encoded cache), the 16 sampled ids and their list, the
  // sampling pool and exclusion mask, the decoded request and the response
  // string. 120 leaves headroom; copying every id cost over 2000.
  EXPECT_LE(large, 120u) << "fetch dispatch allocates " << large
                         << " times per sync at 2140 testcases";
}

}  // namespace
}  // namespace uucs
