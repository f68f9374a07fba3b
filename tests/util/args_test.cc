#include "util/args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace wavekit {
namespace {

Args Parse(std::vector<std::string> argv, int first = 1) {
  std::vector<char*> pointers;
  for (std::string& arg : argv) pointers.push_back(arg.data());
  return Args(static_cast<int>(pointers.size()), pointers.data(), first);
}

TEST(ArgsTest, ParsesFlagsBareFlagsAndStrays) {
  const Args args = Parse({"tool", "--port=80", "--verbose", "stray",
                           "--name=a=b"});
  EXPECT_EQ(args.GetInt("port", 0), 80);
  EXPECT_TRUE(args.GetBool("verbose"));
  EXPECT_EQ(args.Get("name", ""), "a=b");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.Unknown({"port", "name"}),
            (std::vector<std::string>{"--verbose", "stray"}));
  EXPECT_EQ(args.Unknown({"port", "name", "verbose"}),
            std::vector<std::string>{"stray"});
}

TEST(ArgsTest, SkipsArgumentsBeforeFirst) {
  const Args args = Parse({"wavectl", "run", "--days=3"}, /*first=*/2);
  EXPECT_TRUE(args.Unknown({"days"}).empty());
  EXPECT_EQ(args.GetInt("days", 0), 3);
}

TEST(ArgsTest, TypedGettersParseWholeValues) {
  const Args args = Parse({"tool", "--a=-7", "--b=18446744073709551615",
                           "--c=0.25", "--d=0", "--e=true"});
  EXPECT_EQ(args.GetInt("a", 0), -7);
  EXPECT_EQ(args.GetU64("b", 0), UINT64_MAX);
  EXPECT_DOUBLE_EQ(args.GetDouble("c", 0), 0.25);
  EXPECT_FALSE(args.GetBool("d", true));
  EXPECT_TRUE(args.GetBool("e"));
  EXPECT_EQ(args.GetInt("absent", 42), 42);
  EXPECT_TRUE(args.GetBool("absent", true));
}

TEST(ArgsTest, MalformedValuesExitWithUsageError) {
  const Args args = Parse({"tool", "--port=abc", "--seed=-1", "--n=12x",
                           "--big=99999999999", "--rate=", "--on=yes"});
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(args.GetInt("port", 0), usage_error, "--port='abc'");
  EXPECT_EXIT(args.GetU64("seed", 0), usage_error, "--seed='-1'");
  EXPECT_EXIT(args.GetInt("n", 0), usage_error, "--n='12x'");
  EXPECT_EXIT(args.GetInt("big", 0), usage_error, "--big=");
  EXPECT_EXIT(args.GetDouble("rate", 0), usage_error, "--rate=''");
  EXPECT_EXIT(args.GetBool("on"), usage_error, "--on='yes'");
}

TEST(ArgsTest, RangedIntRejectsValuesOutsideItsRange) {
  const Args args = Parse({"waved", "--port=70000", "--tenants=-5",
                           "--records=-1", "--max=0", "--low=1",
                           "--high=65535"});
  EXPECT_EQ(args.GetInt("max", 20, 0, 100), 0);
  EXPECT_EQ(args.GetInt("low", 4, 1, 65535), 1);
  EXPECT_EQ(args.GetInt("high", 0, 0, 65535), 65535);
  EXPECT_EQ(args.GetInt("absent", 7, 1, 3), 7) << "the fallback is unchecked";
  const auto usage_error = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(args.GetInt("port", 8787, 0, 65535), usage_error,
              "--port='70000' is not an integer in \\[0, 65535\\]");
  EXPECT_EXIT(args.GetInt("tenants", 4, 1, 65535), usage_error,
              "--tenants='-5'");
  EXPECT_EXIT(args.GetInt("records", 200, 0, 1 << 30), usage_error,
              "--records='-1'");
  EXPECT_EXIT(args.GetInt("low", 0, 2, 3), usage_error, "--low='1'");
  EXPECT_EXIT(args.GetInt("high", 0, 0, 65534), usage_error, "--high=");
}

}  // namespace
}  // namespace wavekit
