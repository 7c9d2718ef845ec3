#include "common/flags.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace focus::common {
namespace {

std::optional<Flags> ParseArgs(std::vector<const char*> argv,
                               const std::vector<std::string>& allowed) {
  return Flags::Parse(static_cast<int>(argv.size()),
                      const_cast<char* const*>(argv.data()), 1, allowed);
}

TEST(FlagsTest, ParsesFlagValuePairs) {
  const auto flags = ParseArgs({"tool", "--out", "a.txns", "--seed", "7"},
                               {"out", "seed", "items"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->Get("out", ""), "a.txns");
  EXPECT_EQ(flags->Get("seed", ""), "7");
  EXPECT_EQ(flags->Get("items", "123"), "123");  // fallback
  EXPECT_TRUE(flags->Has("out"));
  EXPECT_FALSE(flags->Has("items"));
}

TEST(FlagsTest, EmptyCommandLineIsValid) {
  EXPECT_TRUE(ParseArgs({"tool"}, {"out"}).has_value());
}

TEST(FlagsTest, TrailingFlagWithoutValueIsAnError) {
  EXPECT_FALSE(ParseArgs({"tool", "--out", "a.txns", "--seed"},
                         {"out", "seed"})
                   .has_value());
  EXPECT_FALSE(ParseArgs({"tool", "--seed"}, {"seed"}).has_value());
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  EXPECT_FALSE(ParseArgs({"tool", "--typo", "1"}, {"out", "seed"}).has_value());
}

TEST(FlagsTest, NonFlagTokenIsAnError) {
  EXPECT_FALSE(ParseArgs({"tool", "out", "a.txns"}, {"out"}).has_value());
  EXPECT_FALSE(ParseArgs({"tool", "--", "a"}, {"out"}).has_value());
}

TEST(FlagsTest, DuplicateFlagIsAnError) {
  EXPECT_FALSE(
      ParseArgs({"tool", "--seed", "1", "--seed", "2"}, {"seed"}).has_value());
}

TEST(FlagsTest, NumericAccessors) {
  const auto flags =
      ParseArgs({"tool", "--minsup", "0.25", "--top", "12"}, {"minsup", "top"});
  ASSERT_TRUE(flags.has_value());
  double minsup = 0.0;
  int top = 0;
  std::string error;
  EXPECT_TRUE(ReadDoubleFlag(
      *flags, "minsup", 0.0, [](double v) { return v > 0.0; }, "> 0", &minsup,
      &error));
  EXPECT_EQ(minsup, 0.25);
  EXPECT_TRUE(ReadIntFlag(*flags, "top", 0, 1, &top, &error));
  EXPECT_EQ(top, 12);
}

TEST(FlagsTest, ReadIntFlagTakesOnlyWholeIntegersInRange) {
  const auto flags = ParseArgs(
      {"tool", "--a", "7", "--b", "-3", "--c", "65536"}, {"a", "b", "c", "d"});
  ASSERT_TRUE(flags.has_value());
  int value = 0;
  std::string error;
  EXPECT_TRUE(ReadIntFlag(*flags, "a", 1, 0, &value, &error));
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(ReadIntFlag(*flags, "d", 11, 0, &value, &error));
  EXPECT_EQ(value, 11);  // absent: the fallback
  EXPECT_TRUE(ReadIntFlag(*flags, "b", 0, -3, &value, &error));
  EXPECT_EQ(value, -3);

  EXPECT_FALSE(ReadIntFlag(*flags, "b", 0, 0, &value, &error));
  EXPECT_EQ(error, "--b must be an integer in [0, 2147483647], got -3");
  EXPECT_FALSE(ReadIntFlag(*flags, "c", 0, 0, &value, &error, 65535));
  EXPECT_EQ(error, "--c must be an integer in [0, 65535], got 65536");
  EXPECT_FALSE(ReadIntFlag(*flags, "d", 70000, 0, &value, &error, 65535));
}

TEST(FlagsTest, ReadIntFlagRejectsAnythingButANumber) {
  // atoll reads each of these as a number and ignores the rest.
  for (const char* text : {"10s", "4x", "0x10", "abc", "", " 5", "1.5",
                           "5 ", "99999999999999999999"}) {
    const auto flags = ParseArgs({"tool", "--n", text}, {"n"});
    ASSERT_TRUE(flags.has_value());
    int value = -1;
    std::string error;
    EXPECT_FALSE(ReadIntFlag(*flags, "n", 1, 0, &value, &error))
        << "'" << text << "'";
    EXPECT_EQ(value, -1) << "'" << text << "'";
    EXPECT_EQ(error, std::string("--n must be an integer in [0, 2147483647], "
                                 "got ") + text);
  }
}

TEST(FlagsTest, ReadDoubleFlagRejectsAnythingButANumber) {
  const auto at_most_one = [](double v) { return v > 0.0 && v <= 1.0; };
  for (const char* text : {"0.05zz", "abc", "", " 0.5", "0.5 ", "nan"}) {
    const auto flags = ParseArgs({"tool", "--x", text}, {"x"});
    ASSERT_TRUE(flags.has_value());
    double value = -1.0;
    std::string error;
    EXPECT_FALSE(ReadDoubleFlag(*flags, "x", 0.5, at_most_one, "in (0, 1]",
                                &value, &error))
        << "'" << text << "'";
    EXPECT_EQ(value, -1.0) << "'" << text << "'";
    EXPECT_EQ(error, std::string("--x must be in (0, 1], got ") + text);
  }
  for (const auto& [text, expected] :
       {std::pair<const char*, double>{"0.25", 0.25}, {"1e-2", 0.01},
        {"1", 1.0}}) {
    const auto flags = ParseArgs({"tool", "--x", text}, {"x"});
    ASSERT_TRUE(flags.has_value());
    double value = -1.0;
    std::string error;
    EXPECT_TRUE(ReadDoubleFlag(*flags, "x", 0.5, at_most_one, "in (0, 1]",
                               &value, &error))
        << text << ": " << error;
    EXPECT_EQ(value, expected);
  }
}

// focus_cli reads its numbers strictly too: the real binary answers a
// malformed count with a usage error naming the flag, where atoll wrote
// 10 rows for "10x" and "abc" aborted in the generator.
TEST(FlagsTest, FocusCliRejectsMalformedNumbers) {
  const std::filesystem::path dir = ::testing::TempDir();
  const std::filesystem::path out = dir / "focus_cli_flags.txns";
  const std::filesystem::path err = dir / "focus_cli_flags.stderr";
  for (const std::string value : {"10x", "abc"}) {
    std::filesystem::remove(out);
    const std::string cmd = std::string(FOCUS_CLI_PATH) +
                            " gen-quest --out " + out.string() +
                            " --transactions " + value + " > /dev/null 2> " +
                            err.string();
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << value;
    EXPECT_EQ(WEXITSTATUS(status), 1) << value;
    std::ifstream in(err);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(),
              "--transactions must be an integer in [1, 2147483647], got " +
                  value + "\n");
    EXPECT_FALSE(std::filesystem::exists(out)) << value;
  }
}

}  // namespace
}  // namespace focus::common
