// Pure, library-independent logic of the repo benchmark: sample statistics,
// the seeded open-loop arrival schedule, and the span self-time fold over the
// tracer's Chrome trace-event export. Kept free of ust headers so
// tests/logic_test.cpp can check it without building the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

// ---- sample statistics ----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; +inf samples sort last,
/// so a quantile that lands on one is +inf. Empty input -> NaN.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it (n * (1 - p/100) >= 10), so a reported tail is never
/// set by a handful of samples. Returns 0 when n < 20 (not even the median
/// qualifies). The ladder is fixed so the chosen percentile only changes
/// when the sample count crosses a rung.
inline double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

// ---- seeded open-loop schedule ----------------------------------------------

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// generated input and every send time.
struct SplitMix {
  std::uint64_t state;
  explicit SplitMix(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Mixes a stream tag into a seed, so sub-streams (one per connection, per
/// phase, per tensor) are independent yet fixed by the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix m(seed ^ (tag * 0xd1b54a32d192ed03ull));
  return m.next();
}

struct Arrival {
  std::uint64_t due_ns = 0;  ///< offset from the phase start
  std::uint32_t op = 0;      ///< index into the caller's operation mix
  bool replace = false;      ///< drop + re-upload instead of a run request
};

/// Poisson arrivals at `rate_per_s` over [0, seconds): exponential gaps,
/// each arrival picking a uniform op in [0, num_ops). Every
/// round(1 / replace_share)-th arrival, from a seeded offset, is a tensor
/// replacement instead (none when the share is 0): a fixed stride rather
/// than a coin flip, so every phase replaces the same share and
/// tail latencies set by the replacements do not vary with their count.
/// Deterministic in the seed; independent of how fast the system answers
/// (open loop).
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                             double seconds, std::uint32_t num_ops,
                                             double replace_share) {
  if (rate_per_s <= 0.0 || seconds <= 0.0 || num_ops == 0 || replace_share < 0.0 ||
      replace_share > 1.0) {
    throw std::invalid_argument(
        "poisson_schedule: rate, seconds and num_ops must be > 0, share in [0, 1]");
  }
  SplitMix rng(seed);
  const std::uint64_t stride =
      replace_share > 0.0 ? static_cast<std::uint64_t>(std::llround(1.0 / replace_share)) : 0;
  const std::uint64_t offset = stride > 0 ? rng.next() % stride : 0;
  std::vector<Arrival> out;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<std::uint64_t>(t * 1e9);
    a.op = static_cast<std::uint32_t>(rng.next() % num_ops);
    a.replace = stride > 0 && i % stride == offset;
    out.push_back(a);
  }
  return out;
}

// ---- trace parsing and self-time fold ---------------------------------------

struct SpanRec {
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t trace_id = 0;
  std::map<std::string, std::uint64_t> args;
  double end_us() const { return ts_us + dur_us; }
};

namespace detail {

struct Cursor {
  const std::string& s;
  std::size_t i = 0;
  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) ++i;
  }
  void expect(char c) {
    ws();
    if (i >= s.size() || s[i] != c) {
      throw std::runtime_error(std::string("trace json: expected '") + c + "' at " +
                               std::to_string(i));
    }
    ++i;
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  std::string str() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out.push_back(s[i++]);
    }
    expect('"');
    return out;
  }
  double num() {
    ws();
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      throw std::runtime_error("trace json: expected number at " + std::to_string(i));
    }
    i += static_cast<std::size_t>(end - begin);
    return v;
  }
  std::uint64_t u64() {
    ws();
    const char* begin = s.c_str() + i;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin) {
      throw std::runtime_error("trace json: expected integer at " + std::to_string(i));
    }
    i += static_cast<std::size_t>(end - begin);
    return v;
  }
  /// Skips one value of any JSON type.
  void skip() {
    ws();
    if (peek('"')) {
      (void)str();
    } else if (peek('{') || peek('[')) {
      const char open = s[i];
      const char close = open == '{' ? '}' : ']';
      int depth = 0;
      for (; i < s.size(); ++i) {
        if (s[i] == '"') {
          (void)str();
          --i;
        } else if (s[i] == open) {
          ++depth;
        } else if (s[i] == close && --depth == 0) {
          ++i;
          return;
        }
      }
    } else {
      while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
    }
  }
};

}  // namespace detail

/// Parses the tracer's Chrome trace-event JSON ({"traceEvents":[{"name",
/// "ts","dur","tid","args":{"trace_id",...}}, ...]}); unknown keys are
/// skipped. Integer args are kept by key; trace_id is lifted out.
inline std::vector<SpanRec> parse_chrome_trace(const std::string& json) {
  std::vector<SpanRec> out;
  detail::Cursor c{json};
  c.expect('{');
  while (!c.peek('}')) {
    const std::string key = c.str();
    c.expect(':');
    if (key != "traceEvents") {
      c.skip();
    } else {
      c.expect('[');
      while (!c.peek(']')) {
        SpanRec r;
        c.expect('{');
        while (!c.peek('}')) {
          const std::string k = c.str();
          c.expect(':');
          if (k == "name") {
            r.name = c.str();
          } else if (k == "ts") {
            r.ts_us = c.num();
          } else if (k == "dur") {
            r.dur_us = c.num();
          } else if (k == "tid") {
            r.tid = static_cast<int>(c.num());
          } else if (k == "args") {
            c.expect('{');
            while (!c.peek('}')) {
              const std::string ak = c.str();
              c.expect(':');
              const std::uint64_t v = c.u64();
              if (ak == "trace_id") {
                r.trace_id = v;
              } else {
                r.args[ak] = v;
              }
              if (c.peek(',')) c.expect(',');
            }
            c.expect('}');
          } else {
            c.skip();
          }
          if (c.peek(',')) c.expect(',');
        }
        c.expect('}');
        out.push_back(std::move(r));
        if (c.peek(',')) c.expect(',');
      }
      c.expect(']');
    }
    if (c.peek(',')) c.expect(',');
  }
  c.expect('}');
  return out;
}

/// One row of the per-layer self-time table.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;  ///< sum of span durations
  double self_us = 0.0;   ///< total minus the time nested child spans cover
};

/// Folds spans into per-name totals and self times. A span's children are
/// the spans on the same thread whose interval lies inside it (the tracer
/// records RAII scopes, so one thread's work spans nest); self time is the
/// duration minus the children's durations. Names in `waits` are intervals
/// measured after the fact or across pipelined requests (engine.queue,
/// client-side request spans): they overlap unrelated work on their thread,
/// so they never nest and their self time is their duration.
inline std::vector<LayerRow> fold_self_time(std::vector<SpanRec> spans,
                                            const std::set<std::string>& waits = {}) {
  constexpr double kEps = 1e-3;  // the export's resolution: 1 ns, in us
  std::map<std::string, LayerRow> rows;
  std::map<int, std::vector<const SpanRec*>> by_tid;
  for (const SpanRec& s : spans) {
    LayerRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_us += s.dur_us;
    row.self_us += s.dur_us;
    if (!waits.contains(s.name)) by_tid[s.tid].push_back(&s);
  }
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const SpanRec* a, const SpanRec* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<const SpanRec*> stack;
    for (const SpanRec* s : list) {
      while (!stack.empty() && s->end_us() > stack.back()->end_us() + kEps) stack.pop_back();
      if (!stack.empty()) rows[stack.back()->name].self_us -= s->dur_us;
      stack.push_back(s);
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.self_us = std::max(0.0, row.self_us);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_us > b.self_us; });
  return out;
}

}  // namespace perfbench
