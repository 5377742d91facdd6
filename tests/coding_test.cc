#include "src/util/coding.h"

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace onepass {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  PutFixed32(&s, 0);
  PutFixed32(&s, 1);
  PutFixed32(&s, 0xdeadbeef);
  ASSERT_EQ(s.size(), 12u);
  EXPECT_EQ(DecodeFixed32(s.data()), 0u);
  EXPECT_EQ(DecodeFixed32(s.data() + 4), 1u);
  EXPECT_EQ(DecodeFixed32(s.data() + 8), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(DecodeFixed64(s.data()), 0xdeadbeefcafebabeULL);
}

TEST(CodingTest, Varint32Boundaries) {
  const uint32_t cases[] = {0, 1, 127, 128, 16383, 16384,
                            (1u << 21) - 1, 1u << 21, 0xffffffffu};
  for (uint32_t v : cases) {
    std::string s;
    PutVarint32(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
    std::string_view in = s;
    uint32_t out = 0;
    ASSERT_TRUE(GetVarint32(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint64Boundaries) {
  const uint64_t cases[] = {0,
                            127,
                            128,
                            (1ull << 35) - 1,
                            1ull << 35,
                            0xffffffffffffffffULL};
  for (uint64_t v : cases) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
    std::string_view in = s;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out)) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintRandomRoundTrip) {
  Xoshiro256StarStar rng(99);
  std::string s;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Next() % 64);
    values.push_back(v);
    PutVarint64(&s, v);
  }
  std::string_view in = s;
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint32(&s, 1u << 30);  // 5 bytes
  for (size_t cut = 0; cut + 1 < s.size(); ++cut) {
    std::string_view in(s.data(), cut);
    uint32_t v;
    EXPECT_FALSE(GetVarint32(&in, &v));
  }
}

TEST(CodingTest, OverlongVarint32Rejected) {
  // 5th byte 0x7f would set bits 32-34; they used to be dropped silently,
  // decoding to 0xffffffff.
  const std::string overlong("\xff\xff\xff\xff\x7f", 5);
  std::string_view in = overlong;
  uint32_t v = 0;
  EXPECT_FALSE(GetVarint32(&in, &v));
  EXPECT_EQ(in.size(), 5u);  // nothing consumed
  const std::string just_over("\xff\xff\xff\xff\x10", 5);
  in = just_over;
  EXPECT_FALSE(GetVarint32(&in, &v));
  // The largest legal 5th byte still decodes.
  const std::string max("\xff\xff\xff\xff\x0f", 5);
  in = max;
  ASSERT_TRUE(GetVarint32(&in, &v));
  EXPECT_EQ(v, 0xffffffffu);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, OverlongVarint64Rejected) {
  // 10th byte above 0x01 would set bits 64+.
  std::string overlong(9, '\xff');
  overlong.push_back('\x02');
  std::string_view in = overlong;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(&in, &v));
  overlong.back() = '\x7f';
  in = overlong;
  EXPECT_FALSE(GetVarint64(&in, &v));
  overlong.back() = '\x01';
  in = overlong;
  ASSERT_TRUE(GetVarint64(&in, &v));
  EXPECT_EQ(v, 0xffffffffffffffffULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, OneByteFastPathMatchesEncoder) {
  for (uint32_t v = 0; v < 300; ++v) {
    std::string s;
    PutVarint32(&s, v);
    s.push_back('\x80');  // trailing garbage must stay unread
    std::string_view in = s;
    uint32_t out = 0;
    ASSERT_TRUE(GetVarint32(&in, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(in.size(), 1u);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, std::string(300, 'z'));
  std::string_view in = s;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello");
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());
  EXPECT_FALSE(GetLengthPrefixed(&in, &a));
}

TEST(CodingTest, LengthPrefixedRejectsShortBuffer) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  std::string_view in(s.data(), s.size() - 1);
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

}  // namespace
}  // namespace onepass
