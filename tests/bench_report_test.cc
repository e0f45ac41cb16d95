// bench::Report is the one writer of the google-benchmark-shaped JSON
// rows that tools/bench_merge.py merges into BENCH_simcore and gates.
// These tests pin its bytes: a changed quote, separator or number
// format would silently drop gated rows from the merge.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.h"

using namespace dtdctcp;

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A fresh export directory per test, named after the test and the
/// process so parallel ctest runs never share one.
class BenchReport : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bench_report_test.") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("DTDCTCP_CSV_DIR");
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(BenchReport, WritesRowsInBenchMergeShape) {
  ::setenv("DTDCTCP_CSV_DIR", dir_.c_str(), 1);
  const int critical_n = -1;
  const std::uint64_t events = 98560;
  const std::size_t flows = 100000;
  bench::Report report("unit_bench");
  report.row("unit/first")
      .add("events/s", 58.62425245547078)
      .add("critical_n", critical_n);
  report.row("unit/second").add("events", events).add("flows", flows);
  report.write();

  EXPECT_EQ(slurp(dir_ / "unit_bench.json"),
            "{\n"
            "  \"context\": {\"executable\": \"unit_bench\"},\n"
            "  \"benchmarks\": [\n"
            "    {\"name\": \"unit/first\", \"run_name\": \"unit/first\", "
            "\"run_type\": \"iteration\", \"iterations\": 1, "
            "\"events/s\": 58.62425245547078, \"critical_n\": -1},\n"
            "    {\"name\": \"unit/second\", \"run_name\": \"unit/second\", "
            "\"run_type\": \"iteration\", \"iterations\": 1, "
            "\"events\": 98560, \"flows\": 100000}\n"
            "  ]\n"
            "}\n");
}

TEST_F(BenchReport, FieldsKeepInsertionOrder) {
  ::setenv("DTDCTCP_CSV_DIR", dir_.c_str(), 1);
  bench::Report report("order_bench");
  report.row("r").add("zeta", 1).add("alpha", 2.5).add("mid", 3);
  report.write();

  const std::string json = slurp(dir_ / "order_bench.json");
  const auto zeta = json.find("\"zeta\": 1");
  const auto alpha = json.find("\"alpha\": 2.5");
  const auto mid = json.find("\"mid\": 3");
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  EXPECT_LT(zeta, alpha);
  EXPECT_LT(alpha, mid);
}

TEST_F(BenchReport, WritesNothingWithoutExportDir) {
  bench::Report report("off_bench");
  report.row("r").add("x", 1);

  // Checked before each write: an empty value must mean "off", never
  // the filesystem root.
  ::unsetenv("DTDCTCP_CSV_DIR");
  ASSERT_EQ(export_path("off_bench.json"), "");
  report.write();
  ::setenv("DTDCTCP_CSV_DIR", "", 1);
  ASSERT_EQ(export_path("off_bench.json"), "");
  report.write();

  EXPECT_TRUE(fs::is_empty(dir_));
  EXPECT_FALSE(fs::exists("off_bench.json"));
}

}  // namespace
