#include "util/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace uucs {
namespace {

TEST(Journal, AppendAndReopen) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  {
    Journal j = Journal::open(path);
    EXPECT_TRUE(j.entries().empty());
    j.append("first entry");
    j.append("second entry");
    j.append_batch({"third", "fourth"});
    ASSERT_EQ(j.entries().size(), 4u);
  }
  Journal j = Journal::open(path);
  ASSERT_EQ(j.entries().size(), 4u);
  EXPECT_EQ(j.entries()[0], "first entry");
  EXPECT_EQ(j.entries()[1], "second entry");
  EXPECT_EQ(j.entries()[2], "third");
  EXPECT_EQ(j.entries()[3], "fourth");
  EXPECT_EQ(j.recovery().entries, 4u);
  EXPECT_EQ(j.recovery().dropped_bytes, 0u);
}

TEST(Journal, BinaryPayloadsSurvive) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  binary += "\nUUCSJ 3 deadbeef\nfoo\n";  // embedded fake frame header
  {
    Journal j = Journal::open(path);
    j.append(binary);
    j.append("");  // empty payload is legal
  }
  Journal j = Journal::open(path);
  ASSERT_EQ(j.entries().size(), 2u);
  EXPECT_EQ(j.entries()[0], binary);
  EXPECT_EQ(j.entries()[1], "");
}

// append_batch keeps the caller's strings once they are durable, and
// leaves them untouched when the write fails, so a failed batch can be
// parked and replayed (GroupCommitJournal does exactly that).
TEST(Journal, AppendBatchTakesPayloadsOnlyOnceDurable) {
  const std::string long_entry(200, 'p');  // past the inline-string capacity
  {
    TempDir dir;
    Journal j = Journal::open(dir.file("j.log"));
    std::vector<std::string> payloads{long_entry, "short"};
    const char* const heap = payloads[0].data();
    j.append_batch(std::move(payloads));
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.entries()[0], long_entry);
    EXPECT_EQ(j.entries()[0].data(), heap);  // moved, not copied
    EXPECT_EQ(j.entries()[1], "short");
  }
  // Every write(2) to /dev/full fails with ENOSPC.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  Journal full = Journal::open("/dev/full");
  std::vector<std::string> payloads{long_entry, "short"};
  EXPECT_THROW(full.append_batch(std::move(payloads)), SystemError);
  EXPECT_TRUE(full.entries().empty());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], long_entry);
  EXPECT_EQ(payloads[1], "short");
}

TEST(Journal, TornTailTruncated) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  {
    Journal j = Journal::open(path);
    j.append("kept one");
    j.append("kept two");
  }
  // Simulate a crash mid-append: a frame whose payload never fully landed.
  const std::string torn = "UUCSJ 100 0badf00d\nonly a few bytes";
  {
    std::string contents = read_file(path);
    write_file(path, contents + torn);
  }
  Journal j = Journal::open(path);
  ASSERT_EQ(j.entries().size(), 2u);
  EXPECT_EQ(j.entries()[0], "kept one");
  EXPECT_EQ(j.entries()[1], "kept two");
  EXPECT_EQ(j.recovery().dropped_bytes, torn.size());
  // The torn bytes are gone from disk, so appends continue cleanly.
  j.append("kept three");
  j.close();
  Journal reopened = Journal::open(path);
  ASSERT_EQ(reopened.entries().size(), 3u);
  EXPECT_EQ(reopened.entries()[2], "kept three");
  EXPECT_EQ(reopened.recovery().dropped_bytes, 0u);
}

TEST(Journal, CorruptCrcDropsFrameAndTail) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  {
    Journal j = Journal::open(path);
    j.append("good");
    j.append("to be corrupted");
    j.append("after the corruption");
  }
  std::string contents = read_file(path);
  const auto pos = contents.find("to be corrupted");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'T';  // payload no longer matches its CRC
  write_file(path, contents);

  Journal j = Journal::open(path);
  // Everything from the corrupt frame on is untrusted and dropped.
  ASSERT_EQ(j.entries().size(), 1u);
  EXPECT_EQ(j.entries()[0], "good");
  EXPECT_GT(j.recovery().dropped_bytes, 0u);
}

TEST(Journal, CompactKeepsOnlyRequested) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  Journal j = Journal::open(path);
  for (int i = 0; i < 100; ++i) j.append(strprintf("entry %d", i));
  const std::size_t before = j.size_bytes();
  j.compact({"survivor a", "survivor b"});
  EXPECT_LT(j.size_bytes(), before);
  ASSERT_EQ(j.entries().size(), 2u);
  // Appends after compaction land after the kept entries.
  j.append("post-compact");
  j.close();
  Journal reopened = Journal::open(path);
  ASSERT_EQ(reopened.entries().size(), 3u);
  EXPECT_EQ(reopened.entries()[0], "survivor a");
  EXPECT_EQ(reopened.entries()[1], "survivor b");
  EXPECT_EQ(reopened.entries()[2], "post-compact");
}

TEST(Journal, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Journal::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Journal::crc32(""), 0u);
}

TEST(Journal, GarbageFileRecoversToEmpty) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  write_file(path, "this was never a journal\n\xff\xfe binary noise");
  Journal j = Journal::open(path);
  EXPECT_TRUE(j.entries().empty());
  EXPECT_GT(j.recovery().dropped_bytes, 0u);
  j.append("fresh start");
  j.close();
  EXPECT_EQ(Journal::open(path).entries().size(), 1u);
}

}  // namespace
}  // namespace uucs
