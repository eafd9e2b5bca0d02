// Self-test of the benchmark's own logic (logic.hpp): the seeded open-loop
// schedule, the tail-percentile rule, quantiles, and the span self-time fold
// on a small synthetic trace. Run: ctest in the benchmark's build directory,
// or the perfbench_logic_test binary directly; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <string>

#include "logic.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

void schedule_is_seeded() {
  const auto a = perfbench::poisson_schedule(7, 500.0, 2.0, 8, 0.01);
  const auto b = perfbench::poisson_schedule(7, 500.0, 2.0, 8, 0.01);
  const auto c = perfbench::poisson_schedule(8, 500.0, 2.0, 8, 0.01);
  check(!a.empty() && a.size() == b.size(), "same seed gives the same arrival count");
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].op == b[i].op && a[i].replace == b[i].replace;
  }
  check(same, "same seed gives the same send times, ops and replacements");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].due_ns != c[i].due_ns;
  check(differs, "another seed gives other send times");

  // Rate and bounds: ~1000 arrivals expected over 2 s at 500/s; all due
  // times inside the phase, ascending, ops in range.
  check(a.size() > 850 && a.size() < 1150, "arrival count matches the rate");
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && a[i].due_ns < 2'000'000'000ull && a[i].op < 8 &&
              (i == 0 || a[i - 1].due_ns <= a[i].due_ns);
  }
  check(ordered, "due times ascend within the phase and ops are in range");

  const auto all = perfbench::poisson_schedule(3, 1000.0, 1.0, 4, 1.0);
  const auto none = perfbench::poisson_schedule(3, 1000.0, 1.0, 4, 0.0);
  bool all_replace = true, no_replace = true;
  for (const auto& x : all) all_replace = all_replace && x.replace;
  for (const auto& x : none) no_replace = no_replace && !x.replace;
  check(all_replace && no_replace, "replace share 1 and 0 are honoured");

  // A share of 1/100 replaces exactly every 100th arrival.
  const auto some = perfbench::poisson_schedule(5, 2000.0, 1.0, 4, 0.01);
  std::size_t replaced = 0, first = some.size();
  bool strided = true;
  for (std::size_t i = 0; i < some.size(); ++i) {
    if (!some[i].replace) continue;
    if (first == some.size()) first = i;
    strided = strided && (i - first) % 100 == 0;
    ++replaced;
  }
  check(strided && first < 100 && replaced >= some.size() / 100 - 1 &&
            replaced <= some.size() / 100 + 1,
        "replacements fall on a fixed stride from a seeded offset");
}

void tail_rule() {
  // The highest ladder percentile with at least ten samples beyond it.
  check(perfbench::tail_percentile(19) == 0.0, "n=19: no percentile has 10 beyond");
  check(perfbench::tail_percentile(20) == 50.0, "n=20: p50");
  check(perfbench::tail_percentile(39) == 50.0, "n=39: p50 (p75 has only 9.75 beyond)");
  check(perfbench::tail_percentile(40) == 75.0, "n=40: p75");
  check(perfbench::tail_percentile(100) == 90.0, "n=100: p90");
  check(perfbench::tail_percentile(199) == 90.0, "n=199: p90 (p95 has 9.95 beyond)");
  check(perfbench::tail_percentile(200) == 95.0, "n=200: p95");
  check(perfbench::tail_percentile(1000) == 99.0, "n=1000: p99");
  check(perfbench::tail_percentile(9999) == 99.0, "n=9999: p99");
  check(perfbench::tail_percentile(10000) == 99.9, "n=10000: p99.9");
}

void quantiles() {
  check(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median interpolates");
  check(near(perfbench::quantile({0.0, 10.0}, 0.9), 9.0), "linear interpolation");
  check(std::isinf(perfbench::quantile({1.0, 2.0, INFINITY}, 1.0)),
        "a failed request (+inf) lands on the top quantile");
  check(near(perfbench::quantile({1.0, 2.0, 3.0, INFINITY}, 0.5), 2.5),
        "+inf does not move the median below it");
}

void self_time_fold() {
  // Thread 1: a 100 us root with two children (30 + 20 us), one of which has
  // a 5 us grandchild; a wait span overlapping the root's end is not nested.
  // Thread 2: a 40 us span with no parent (pool worker).
  const std::string json =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"root","cat":"ust","ph":"X","ts":1000.000,"dur":100.000,"pid":1,"tid":1,"args":{"trace_id":7}},)"
      R"({"name":"child","cat":"ust","ph":"X","ts":1010.000,"dur":30.000,"pid":1,"tid":1,"args":{"trace_id":7,"nnz":12}},)"
      R"({"name":"grandchild","cat":"ust","ph":"X","ts":1015.000,"dur":5.000,"pid":1,"tid":1,"args":{"trace_id":7}},)"
      R"({"name":"child","cat":"ust","ph":"X","ts":1060.000,"dur":20.000,"pid":1,"tid":1,"args":{"trace_id":7}},)"
      R"({"name":"wait","cat":"ust","ph":"X","ts":1090.000,"dur":50.000,"pid":1,"tid":1,"args":{"trace_id":9}},)"
      R"({"name":"worker","cat":"ust","ph":"X","ts":1020.000,"dur":40.000,"pid":1,"tid":2,"args":{"trace_id":7}},)"
      R"({"name":"after","cat":"ust","ph":"X","ts":1100.000,"dur":10.000,"pid":1,"tid":1,"args":{"trace_id":8}})"
      R"(]})";
  const auto spans = perfbench::parse_chrome_trace(json);
  check(spans.size() == 7, "parser reads every event");
  check(spans[1].name == "child" && spans[1].tid == 1 && near(spans[1].ts_us, 1010.0) &&
            near(spans[1].dur_us, 30.0) && spans[1].trace_id == 7 && spans[1].args.at("nnz") == 12,
        "parser reads name, tid, ts, dur, trace_id and args");

  const auto rows = perfbench::fold_self_time(spans, {"wait"});
  auto row = [&](const std::string& n) {
    for (const auto& r : rows) {
      if (r.name == n) return r;
    }
    return perfbench::LayerRow{};
  };
  check(row("root").count == 1 && near(row("root").total_us, 100.0) &&
            near(row("root").self_us, 50.0),
        "root self = 100 - (30 + 20): grandchildren are not subtracted twice");
  check(row("child").count == 2 && near(row("child").total_us, 50.0) &&
            near(row("child").self_us, 45.0),
        "child self = 50 - 5");
  check(near(row("grandchild").self_us, 5.0), "leaf self = duration");
  check(near(row("worker").self_us, 40.0), "a span on another thread is not a child");
  check(near(row("wait").self_us, 50.0), "wait spans neither nest nor take children");
  check(near(row("after").self_us, 10.0), "a span starting at its predecessor's end is a sibling");
  check(rows.front().name == "root" || rows.front().name == "wait",
        "rows are ordered by self time");
}

}  // namespace

int main() {
  schedule_is_seeded();
  tail_rule();
  quantiles();
  self_time_fold();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench logic: all checks passed\n");
  return 0;
}
