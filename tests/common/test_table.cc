/**
 * @file
 * Unit tests for the experiment table printer.
 */

#include <gtest/gtest.h>

#include "common/table.hh"

using desc::Table;
using desc::fmt;

TEST(Fmt, FixedPrecision)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 3), "2.000");
}

TEST(Table, CsvRoundTrip)
{
    Table t({"app", "energy", "time"});
    t.row().add("fft").add(0.5, 2).add(std::uint64_t{42});
    t.row().add("lu").add(1.25, 2).add(std::uint64_t{7});
    EXPECT_EQ(t.toCsv(),
              "app,energy,time\n"
              "fft,0.50,42\n"
              "lu,1.25,7\n");
}

TEST(Table, PrintDoesNotCrash)
{
    Table t({"a", "b"});
    t.row().add("x").add(1.0, 1);
    t.print("title");
}

TEST(TableDeath, TooManyCellsPanics)
{
    Table t({"only"});
    t.row().add("one");
    EXPECT_DEATH(t.add("two"), "row overflow");
}

TEST(TableDeath, AddBeforeRowPanics)
{
    Table t({"c"});
    EXPECT_DEATH(t.add("x"), "add\\(\\) before row\\(\\)");
}

TEST(Table, CsvEnvironmentSwitch)
{
    // With DESC_TABLE_CSV set, print() emits the CSV form.
    setenv("DESC_TABLE_CSV", "1", 1);
    Table t({"a", "b"});
    t.row().add("x").add(std::uint64_t{1});
    testing::internal::CaptureStdout();
    t.print("csv mode");
    std::string out = testing::internal::GetCapturedStdout();
    unsetenv("DESC_TABLE_CSV");
    EXPECT_NE(out.find("a,b"), std::string::npos);
    EXPECT_NE(out.find("x,1"), std::string::npos);
}

TEST(Table, CsvZeroPrintsAlignedText)
{
    // DESC_TABLE_CSV is a strict 0/1 bool: "0" prints the same
    // aligned text as leaving it unset.
    Table t({"a", "b"});
    t.row().add("x").add(std::uint64_t{1});
    auto render = [&t] {
        testing::internal::CaptureStdout();
        t.print("text mode");
        return testing::internal::GetCapturedStdout();
    };
    unsetenv("DESC_TABLE_CSV");
    const std::string text = render();
    setenv("DESC_TABLE_CSV", "0", 1);
    const std::string zero = render();
    unsetenv("DESC_TABLE_CSV");
    EXPECT_EQ(zero, text);
    EXPECT_EQ(text.find("a,b"), std::string::npos) << text;
}
