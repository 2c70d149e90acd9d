// The committed benchmark records (BENCH_parallel.json and
// BENCH_profile.json at the repository root) must hold the harness's own
// invariant: every row's p50 and p95 are exact order statistics of its
// reps, so best <= p50 <= p95 <= max, and its MAD is the median of the
// reps' distances from p50, so 0 <= mad <= max - best, over n >= 1 reps.
// A record written by an older harness, or edited by hand, fails here.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "tests/json_lite.hpp"

namespace {

std::string read_record(const std::string& name) {
  std::ifstream in(std::string(ICKPT_SOURCE_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_ordered_rows(const std::string& name) {
  const std::string text = read_record(name);
  ASSERT_FALSE(text.empty()) << name << " is missing or empty";
  const ickpt::testjson::ValuePtr doc = ickpt::testjson::parse(text);
  ASSERT_TRUE(doc->is_array()) << name;
  ASSERT_FALSE(doc->array.empty()) << name << " has no rows";
  for (const ickpt::testjson::ValuePtr& row : doc->array) {
    const std::string where = name + ": " + row->at("config").str();
    const double best = row->at("best_s").num();
    const double p50 = row->at("p50_s").num();
    const double p95 = row->at("p95_s").num();
    const double max = row->at("max_s").num();
    const double mad = row->at("mad_s").num();
    EXPECT_LE(best, p50) << where;
    EXPECT_LE(p50, p95) << where;
    EXPECT_LE(p95, max) << where;
    EXPECT_GE(mad, 0.0) << where;
    // The record prints 9 significant digits; allow for that rounding.
    EXPECT_LE(mad, (max - best) * (1 + 1e-8)) << where;
    EXPECT_GE(row->at("n").num(), 1.0) << where;
  }
}

}  // namespace

TEST(BenchRecords, ParallelRowsAreOrdered) {
  expect_ordered_rows("BENCH_parallel.json");
}

TEST(BenchRecords, ProfileRowsAreOrdered) {
  expect_ordered_rows("BENCH_profile.json");
}
