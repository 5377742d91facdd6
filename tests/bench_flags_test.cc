// Command-line parsing shared by the bench binaries (bench/bench_common.h):
// a valid line fills every flag, and bad input — an unknown flag, a value
// passed without '=', a malformed or out-of-range number — is rejected with
// an error naming the flag instead of being ignored or crashing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace onepass::bench {
namespace {

Result<Flags> Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return TryParseFlags(static_cast<int>(args.size()), args.data());
}

void ExpectRejected(std::vector<const char*> args, const std::string& flag) {
  const Result<Flags> flags = Parse(args);
  ASSERT_FALSE(flags.ok()) << "accepted " << args[0];
  EXPECT_TRUE(flags.status().IsInvalidArgument());
  EXPECT_NE(flags.status().message().find(flag), std::string_view::npos)
      << flags.status().ToString();
}

TEST(BenchFlagsTest, ParsesValidLine) {
  const Result<Flags> flags =
      Parse({"--scale=0.25", "--threads=4", "--codec=lz", "--batch_size=64",
             "--simd=scalar", "--iterations=3", "--shuffle_mode=resident",
             "--combine_scope=node", "--node_combine_budget=65536", "--plot",
             "b", "--ssd", "--hop", "--util"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->scale, 0.25);
  EXPECT_EQ(flags->threads, 4);
  EXPECT_EQ(flags->codec, "lz");
  EXPECT_EQ(flags->batch_size, 64u);
  EXPECT_EQ(flags->simd, "scalar");
  EXPECT_EQ(flags->iterations, 3);
  EXPECT_EQ(flags->shuffle_mode, "resident");
  EXPECT_EQ(flags->combine_scope, "node");
  EXPECT_EQ(flags->node_combine_budget, 65536u);
  EXPECT_EQ(flags->plot, "b");
  EXPECT_TRUE(flags->ssd);
  EXPECT_TRUE(flags->hop);
  EXPECT_TRUE(flags->util);

  const Result<Flags> defaults = Parse({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->scale, 1.0);
  EXPECT_EQ(defaults->threads, 0);
  EXPECT_EQ(Parse({"--plot=e"})->plot, "e");
}

TEST(BenchFlagsTest, RejectsUnknownFlags) {
  ExpectRejected({"--sclae=0.1"}, "--sclae");
  ExpectRejected({"--verbose"}, "--verbose");
  // A value separated by a space is not attached to its flag.
  ExpectRejected({"--scale", "0.1"}, "--scale");
  ExpectRejected({"--ssd=1"}, "--ssd");
}

TEST(BenchFlagsTest, RejectsMalformedNumbers) {
  ExpectRejected({"--scale=abc"}, "--scale");
  ExpectRejected({"--scale=0.1x"}, "--scale");
  ExpectRejected({"--threads="}, "--threads");
  ExpectRejected({"--threads=99999999999"}, "--threads");
  ExpectRejected({"--batch_size=-1"}, "--batch_size");
  ExpectRejected({"--iterations=two"}, "--iterations");
  ExpectRejected({"--node_combine_budget=1e6"}, "--node_combine_budget");
}

TEST(BenchFlagsDeathTest, ParseFlagsExitsWithUsageError) {
  const char* argv[] = {"bench_test", "--scale=abc"};
  EXPECT_EXIT(ParseFlags(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "malformed number for --scale");
}

}  // namespace
}  // namespace onepass::bench
