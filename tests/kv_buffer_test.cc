#include "src/util/kv_buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/random.h"

namespace onepass {
namespace {

TEST(KvBufferTest, AppendAndRead) {
  KvBuffer buf;
  buf.Append("k1", "v1");
  buf.Append("", "value-with-empty-key");
  buf.Append("k3", "");
  EXPECT_EQ(buf.count(), 3u);

  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "k1");
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "");
  EXPECT_EQ(v, "value-with-empty-key");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "k3");
  EXPECT_EQ(v, "");
  EXPECT_FALSE(reader.Next(&k, &v));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(KvBufferTest, BytesMatchRecordBytes) {
  KvBuffer buf;
  uint64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string k = "key" + std::to_string(i);
    const std::string v(i, 'v');
    buf.Append(k, v);
    expected += RecordBytes(k, v);
  }
  EXPECT_EQ(buf.bytes(), expected);
}

TEST(KvBufferTest, AppendAllConcatenates) {
  KvBuffer a, b;
  a.Append("a", "1");
  b.Append("b", "2");
  b.Append("c", "3");
  a.AppendAll(b);
  EXPECT_EQ(a.count(), 3u);
  KvBufferReader reader(a);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "a");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "b");
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "c");
}

TEST(KvBufferTest, ClearAndReuse) {
  KvBuffer buf;
  buf.Append("k", "v");
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.bytes(), 0u);
  buf.Append("k2", "v2");
  EXPECT_EQ(buf.count(), 1u);
}

TEST(KvBufferTest, ReleaseAndFromDataRoundTrip) {
  KvBuffer buf;
  buf.Append("x", "y");
  buf.Append("z", "w");
  const uint64_t count = buf.count();
  std::string data = buf.ReleaseData();
  EXPECT_EQ(buf.count(), 0u);
  KvBuffer restored = KvBuffer::FromData(std::move(data), count);
  EXPECT_EQ(restored.count(), 2u);
  KvBufferReader reader(restored);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "x");
}

TEST(KvBufferTest, LargeValues) {
  KvBuffer buf;
  const std::string big(1 << 20, 'B');
  buf.Append("big", big);
  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(v.size(), big.size());
}

TEST(KvBufferTest, ReserveAvoidsReallocation) {
  KvBuffer buf;
  buf.Reserve(1 << 16);
  const char* before = buf.data().data();
  std::string v(100, 'v');
  for (int i = 0; i < 500; ++i) buf.Append("key" + std::to_string(i), v);
  ASSERT_LT(buf.bytes(), uint64_t{1} << 16);
  EXPECT_EQ(buf.data().data(), before);
  // Reserving less than the current capacity must not shrink anything.
  buf.Reserve(1);
  EXPECT_EQ(buf.data().data(), before);
  EXPECT_EQ(buf.count(), 500u);
}

TEST(KvBufferTest, AppendAllGrowsGeometrically) {
  // Many small bulk appends (a bucket file absorbing page flushes) must
  // not reallocate per call: capacity doubles rather than tracking size
  // exactly, so N appends cost O(N) copies overall, not O(N^2).
  KvBuffer page;
  page.Append("key", std::string(60, 'v'));
  KvBuffer file;
  size_t reallocations = 0;
  const char* last = file.data().data();
  for (int i = 0; i < 1000; ++i) {
    file.AppendAll(page);
    if (file.data().data() != last) {
      ++reallocations;
      last = file.data().data();
    }
  }
  EXPECT_EQ(file.count(), 1000u);
  EXPECT_LE(reallocations, 40u) << "AppendAll reallocates per call";
}

TEST(KvBufferTest, AppendAllReservesWholeNeedForBigDonor) {
  // A donor bigger than 2x the current capacity is reserved for exactly,
  // not doubled into repeatedly.
  KvBuffer big;
  for (int i = 0; i < 2000; ++i) big.Append("k" + std::to_string(i), "v");
  KvBuffer dst;
  dst.Append("seed", "s");
  dst.AppendAll(big);
  EXPECT_EQ(dst.count(), 2001u);
  EXPECT_GE(dst.data().capacity(), dst.bytes());
}

TEST(KvBufferTest, ShrinkToFitReleasesSlack) {
  KvBuffer buf;
  buf.Reserve(1 << 20);
  buf.Append("key", "value");
  ASSERT_GE(buf.data().capacity(), size_t{1} << 20);
  buf.ShrinkToFit();
  EXPECT_LT(buf.data().capacity(), size_t{1} << 20);
  // Contents survive.
  KvBufferReader reader(buf);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  EXPECT_EQ(k, "key");
  EXPECT_EQ(v, "value");
  EXPECT_EQ(buf.count(), 1u);
}

// KeyPrefix's contract: whenever two prefixes differ, their integer order
// is the keys' byte-lexicographic order. Equal prefixes promise nothing.
void ExpectPrefixAgrees(const std::string& a, const std::string& b) {
  const uint64_t pa = KeyPrefix(a);
  const uint64_t pb = KeyPrefix(b);
  if (pa == pb) return;
  EXPECT_EQ(pa < pb, std::string_view(a) < std::string_view(b))
      << "a=" << testing::PrintToString(a)
      << " b=" << testing::PrintToString(b);
}

TEST(KvBufferTest, KeyPrefixEdgeCases) {
  const std::vector<std::string> keys = {
      std::string(""),
      std::string("\0", 1),
      std::string("a"),
      std::string("ab"),
      std::string("ab\0", 3),
      std::string("ab\x01"),
      std::string("ab\xff"),
      std::string("ab\x7f"),
      std::string("ab\x80"),
      std::string("1234567"),
      std::string("12345678"),
      std::string("12345678\0", 9),
      std::string("123456789"),
      std::string("12345679"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\0\0\0\0\0\0\0\0", 8),
      std::string("\0\0\0\0\0\0\0\0\x01", 9),
  };
  for (const auto& a : keys) {
    for (const auto& b : keys) ExpectPrefixAgrees(a, b);
  }
  // Big-endian packing, zero padded.
  EXPECT_EQ(KeyPrefix(""), 0u);
  EXPECT_EQ(KeyPrefix("a"), uint64_t{0x61} << 56);
  EXPECT_EQ(KeyPrefix("12345678"), 0x3132333435363738u);
  EXPECT_EQ(KeyPrefix("123456789"), KeyPrefix("12345678"));
  // Ties the prefix cannot break.
  EXPECT_EQ(KeyPrefix("ab"), KeyPrefix(std::string("ab\0", 3)));
  EXPECT_NE(KeyPrefix("ab"), KeyPrefix("ab\x01"));
}

TEST(KvBufferTest, KeyPrefixOrderMatchesStringOrderOnRandomPairs) {
  Xoshiro256StarStar rng(77);
  // Small alphabets with 0x00 and 0xff make shared prefixes, embedded NULs
  // and proper-prefix pairs common.
  const std::string alphabet("\0\x01\x7f\x80\xfe\xff" "ab", 8);
  auto random_key = [&]() {
    std::string k(rng.NextBounded(13), '\0');
    for (char& c : k) c = alphabet[rng.NextBounded(alphabet.size())];
    return k;
  };
  int decided = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::string a = random_key();
    std::string b = random_key();
    if (rng.NextBounded(4) == 0) {
      b = a.substr(0, rng.NextBounded(a.size() + 1)) + b;
    }
    ExpectPrefixAgrees(a, b);
    decided += KeyPrefix(a) != KeyPrefix(b);
  }
  EXPECT_GT(decided, 50000);  // the random pairs mostly test the fast path
}

}  // namespace
}  // namespace onepass
