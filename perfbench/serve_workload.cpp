// serve_mixed: an in-process TensorOpServer (ServerOptions defaults) over a
// 2-device Engine, driven over loopback by 4 connections, one tenant and one
// generator thread each. Every tenant uploads its own 20k-nnz tensor plus
// one tensor whose content all tenants share, so same-plan batching has
// work to fuse; requests mix SpTTM, SpMTTKRP, SpTTMc and SpTTV on both, and
// a fixed share of operations replaces the tenant's own tensor (drop +
// upload), which puts cold plan builds beside cached lookups under load.
// Open-loop phases send on a seeded Poisson schedule at frozen absolute
// rates and time each request from when it was due; the saturation phase is
// a closed loop. Every response must be byte-identical to a local Engine
// result computed up front.
#include <poll.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "io/generate.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using ust::CooTensor;
using ust::DenseMatrix;
using ust::index_t;
using ust::service::WireOp;

constexpr int kConns = 4;
constexpr index_t kRank = 8;
constexpr ust::nnz_t kNnz = 20000;
/// Open-loop rates, frozen as absolute requests per second: about 25% and
/// 51% of the closed-loop capacity (~3150 req/s) measured at introduction on
/// a 4-core host. The end-to-end run measures the low rate, whose median
/// latency is steady from run to run; the high rate's figures spread too
/// widely to gate and are reported per layer (README.md).
constexpr double kLowRps = 800.0;
constexpr double kHighRps = 1600.0;
/// Share of operations that replace the tenant's own tensor. Each
/// replacement makes the next request of every op on that tensor build its
/// plan cold on the server's I/O thread.
constexpr double kReplaceShare = 0.002;
constexpr int kSetupReps = 31;
constexpr std::uint64_t kOwnId = 1;
constexpr std::uint64_t kSharedId = 2;
/// Request ids of the hand-framed drop/upload requests, above any id the
/// Client's own counter reaches in a run (and below the 40 bits the server
/// keeps of a request id in its trace id).
constexpr std::uint64_t kRawIdBase = std::uint64_t{1} << 38;
/// How long a phase waits for outstanding responses after its last send.
constexpr double kDrainSeconds = 10.0;

const std::vector<index_t>& dims() {
  static const std::vector<index_t> d = {64, 48, 56};
  return d;
}

ust::engine::OpKind to_kind(WireOp op) {
  switch (op) {
    case WireOp::kSpTTM: return ust::engine::OpKind::kSpTTM;
    case WireOp::kSpMTTKRP: return ust::engine::OpKind::kSpMTTKRP;
    case WireOp::kSpTTMc: return ust::engine::OpKind::kSpTTMc;
    case WireOp::kSpTTV: return ust::engine::OpKind::kSpTTV;
  }
  return ust::engine::OpKind::kSpMTTKRP;
}

struct MixEntry {
  WireOp op = WireOp::kSpMTTKRP;
  int mode = 0;
  std::uint64_t tensor_id = 0;
  std::vector<DenseMatrix> inputs;
  DenseMatrix expected;
};

struct Tenant {
  std::uint64_t id = 0;
  CooTensor own;
  std::vector<MixEntry> mix;  // the four ops on the own tensor, then on the shared one
};

/// Inputs for (op, mode) on `tensor` and the expected output, computed on
/// the local truth engine.
MixEntry make_entry(ust::engine::Engine& local, const CooTensor& tensor, std::uint64_t tensor_id,
                    WireOp op, int mode, ust::Prng& rng) {
  MixEntry e;
  e.op = op;
  e.mode = mode;
  e.tensor_id = tensor_id;
  auto plan = local.plan(tensor, to_kind(op), mode, ust::Partitioning{});
  const index_t cols = op == WireOp::kSpTTV ? 1 : kRank;
  for (int pm : plan->product_modes) {
    DenseMatrix f(tensor.dim(pm), cols);
    f.fill_random(rng, -1.0f, 1.0f);
    e.inputs.push_back(std::move(f));
  }
  const index_t out_cols = op == WireOp::kSpTTMc ? cols * cols : cols;
  e.expected = DenseMatrix(plan->out_rows(), out_cols);
  ust::engine::OpRequest req;
  req.plan = plan;
  for (const DenseMatrix& m : e.inputs) req.inputs.push_back({m.data(), m.rows(), m.cols()});
  req.out = e.expected.data();
  req.out_rows = e.expected.rows();
  req.out_cols = e.expected.cols();
  local.run(req);
  return e;
}

/// The server, its engine and one connected, uploaded client per tenant;
/// members are destroyed clients first, engine last.
struct Stack {
  std::unique_ptr<ust::engine::Engine> engine;
  std::unique_ptr<ust::service::TensorOpServer> server;
  std::vector<ust::service::Client> clients;
};

/// One request as the client saw it, for per-request attribution.
struct ClientReq {
  std::uint64_t trace_id = 0;
  double latency_ms = 0.0;
};

struct PhaseStats {
  std::vector<double> latency_ms;  // run requests, from due time; +inf when failed
  std::vector<double> upload_ms;   // replacements: drop + upload round trip
  std::vector<double> late_ms;     // open loop: send time minus due time
  std::vector<ClientReq> reqs;     // verified run requests
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  std::uint64_t wrong = 0;  // failed because the output was wrong or lost, not refused
  double wall_s = 0.0;
  std::vector<std::string> failures;

  /// Counts a failed operation; `refused` marks an answer the service may
  /// legitimately give under load (queue full, deadline), which fails the
  /// operation but not the correctness check.
  void fail(const std::string& why, bool refused = false) {
    ++failed;
    if (!refused) ++wrong;
    if (failures.size() < 5) failures.push_back(why);
  }
  void merge(PhaseStats&& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    upload_ms.insert(upload_ms.end(), o.upload_ms.begin(), o.upload_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    reqs.insert(reqs.end(), o.reqs.begin(), o.reqs.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    ok += o.ok;
    for (auto& f : o.failures) {
      if (failures.size() < 5) failures.push_back(std::move(f));
    }
  }
};

struct Pending {
  enum class Kind { kRun, kDrop, kUpload } kind = Kind::kRun;
  std::size_t entry = 0;
  Clock::time_point due;
  std::uint64_t due_obs_ns = 0;
};

void send_framed(ust::service::Client& c, ust::service::MsgType type,
                 const ust::service::Writer& body, std::uint64_t rid) {
  ust::service::Writer w;
  ust::service::write_request_header(w, {type, c.tenant(), rid, ust::service::WireClass::kBatch});
  w.bytes(body.data().data(), body.data().size());
  c.send_raw(ust::service::encode_frame(w.data()));
}

/// Drives one connection through a phase. With a schedule it sends each
/// arrival at its due time whatever is outstanding (open loop); without one
/// it keeps exactly one operation in flight until `seconds` pass (closed
/// loop), drawing ops from `closed_seed`. Never throws: a broken connection
/// fails everything it had not verified.
void drive(ust::service::Client& c, const Tenant& t, const std::vector<Arrival>* schedule,
           std::uint64_t closed_seed, double seconds, Clock::time_point start,
           std::uint64_t start_obs_ns, bool traced, PhaseStats& out) {
  std::unordered_map<std::uint64_t, Pending> outstanding;
  std::uint64_t raw_id = kRawIdBase;
  // The closed loop draws its ops (and replacement stride) from a schedule
  // too, ignoring its times; it cycles if the connection outruns it.
  const std::vector<Arrival> closed_ops =
      schedule == nullptr ? poisson_schedule(closed_seed, 2000.0, seconds + 1.0,
                                             static_cast<std::uint32_t>(t.mix.size()),
                                             kReplaceShare)
                          : std::vector<Arrival>{};
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto drain_deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kDrainSeconds));
  std::size_t next = 0;

  auto send = [&](const Arrival& a, Clock::time_point due, std::uint64_t due_obs_ns) {
    ++out.attempted;
    if (a.replace) {
      ust::service::Writer drop;
      drop.u64(kOwnId);
      const std::uint64_t drop_id = raw_id++;
      send_framed(c, ust::service::MsgType::kDropTensor, drop, drop_id);
      ust::service::Writer up;
      ust::service::encode_upload_body(up, kOwnId, t.own);
      const std::uint64_t up_id = raw_id++;
      send_framed(c, ust::service::MsgType::kUploadTensor, up, up_id);
      outstanding[drop_id] = {Pending::Kind::kDrop, 0, due, due_obs_ns};
      outstanding[up_id] = {Pending::Kind::kUpload, 0, due, due_obs_ns};
    } else {
      const MixEntry& e = t.mix[a.op];
      const std::uint64_t rid =
          c.send_run(e.tensor_id, e.op, e.mode, ust::Partitioning{}, e.inputs);
      outstanding[rid] = {Pending::Kind::kRun, a.op, due, due_obs_ns};
    }
  };

  auto receive = [&] {
    const ust::service::Response resp = c.recv_response();
    const auto now = Clock::now();
    const auto it = outstanding.find(resp.header.request_id);
    if (it == outstanding.end()) {
      out.fail("response for unknown request id " + std::to_string(resp.header.request_id));
      return;
    }
    const Pending p = it->second;
    outstanding.erase(it);
    const double ms = std::chrono::duration<double, std::milli>(now - p.due).count();
    if (p.kind != Pending::Kind::kRun) {
      // A replacement counts once, when its upload is acknowledged; a
      // failed drop fails it.
      if (!resp.ok()) {
        out.fail(std::string("replacement step returned ") +
                 ust::service::status_name(resp.header.status));
      } else if (p.kind == Pending::Kind::kUpload) {
        ++out.ok;
        out.upload_ms.push_back(ms);
      }
      return;
    }
    const MixEntry& e = t.mix[p.entry];
    bool good = resp.ok();
    if (good) {
      const DenseMatrix got = resp.matrix();
      good = got.rows() == e.expected.rows() && got.cols() == e.expected.cols() &&
             std::memcmp(got.data(), e.expected.data(), got.byte_size()) == 0;
      if (!good) out.fail("response bytes differ from the local engine result");
    } else {
      const auto st = resp.header.status;
      out.fail(std::string("run returned ") + ust::service::status_name(st),
               st == ust::service::Status::kQueueFull || st == ust::service::Status::kTimeout);
    }
    if (!good) {
      out.latency_ms.push_back(INFINITY);
      return;
    }
    ++out.ok;
    out.latency_ms.push_back(ms);
    const std::uint64_t trace_id = (t.id << 40) | resp.header.request_id;
    out.reqs.push_back({trace_id, ms});
    if (traced) ust::obs::emit_span("bench.request", trace_id, p.due_obs_ns);
  };

  std::this_thread::sleep_until(start);
  try {
    for (;;) {
      const auto now = Clock::now();
      if (schedule != nullptr) {
        if (next < schedule->size()) {
          const Arrival& a = (*schedule)[next];
          const auto due = start + std::chrono::nanoseconds(a.due_ns);
          if (now >= due) {
            out.late_ms.push_back(std::chrono::duration<double, std::milli>(now - due).count());
            send(a, due, start_obs_ns + a.due_ns);
            ++next;
            continue;
          }
        } else if (outstanding.empty()) {
          break;
        }
      } else if (outstanding.empty()) {
        if (now >= end) break;
        const Arrival& a = closed_ops[next++ % closed_ops.size()];
        const auto obs_now = start_obs_ns + static_cast<std::uint64_t>(
                                                std::chrono::nanoseconds(now - start).count());
        send(a, now, obs_now);
        continue;
      }
      if (now >= drain_deadline) break;
      auto wake = drain_deadline;
      if (schedule != nullptr && next < schedule->size()) {
        wake = std::min(wake, start + std::chrono::nanoseconds((*schedule)[next].due_ns));
      }
      const auto wait_ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      pollfd pfd{c.fd(), POLLIN, 0};
      const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc > 0) receive();
    }
  } catch (const std::exception& e) {
    out.fail(std::string("connection failed: ") + e.what());
  }
  // Anything still unanswered (drain deadline or broken connection) failed;
  // unsent open-loop arrivals were attempted too, and are refused.
  for (const auto& [rid, p] : outstanding) {
    if (p.kind == Pending::Kind::kRun) {
      out.latency_ms.push_back(INFINITY);
      out.fail("request " + std::to_string(rid) + " unanswered");
    } else if (p.kind == Pending::Kind::kUpload) {
      out.fail("replacement " + std::to_string(rid) + " unanswered");
    }
  }
  if (schedule != nullptr) {
    for (; next < schedule->size(); ++next) {
      ++out.attempted;
      out.latency_ms.push_back(INFINITY);
      out.fail("arrival never sent", /*refused=*/true);
    }
  }
}

/// Runs one phase on every connection at once. rate_rps > 0 is an open loop
/// split evenly over the connections; 0 is the closed loop.
PhaseStats run_phase(Stack& st, const std::vector<Tenant>& tenants, double rate_rps,
                     double seconds, std::uint64_t seed, bool traced) {
  const auto lead = std::chrono::milliseconds(20);
  const auto start = Clock::now() + lead;
  const std::uint64_t start_obs_ns =
      ust::obs::now_ns() + static_cast<std::uint64_t>(std::chrono::nanoseconds(lead).count());
  std::vector<std::vector<Arrival>> schedules(kConns);
  if (rate_rps > 0.0) {
    for (int c = 0; c < kConns; ++c) {
      schedules[static_cast<std::size_t>(c)] =
          poisson_schedule(derive_seed(seed, static_cast<std::uint64_t>(c)), rate_rps / kConns,
                           seconds, static_cast<std::uint32_t>(tenants[0].mix.size()),
                           kReplaceShare);
    }
  }
  std::vector<PhaseStats> per(kConns);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    const auto i = static_cast<std::size_t>(c);
    threads.emplace_back([&, i] {
      drive(st.clients[i], tenants[i], rate_rps > 0.0 ? &schedules[i] : nullptr,
            derive_seed(seed, 100 + i), seconds, start, start_obs_ns, traced, per[i]);
    });
  }
  for (std::thread& th : threads) th.join();
  PhaseStats all;
  all.wall_s = seconds_since(start);
  if (rate_rps <= 0.0) all.wall_s = seconds;
  for (PhaseStats& p : per) all.merge(std::move(p));
  return all;
}

/// Counts a phase's operations into the run result: any failure counts in
/// `failed`; a wrong or lost answer also fails the correctness check.
void account(Result& r, const PhaseStats& p, const std::string& phase) {
  r.attempted += p.attempted;
  r.failed += p.failed;
  if (p.wrong != 0) r.correct = false;
  if (p.failed != 0) {
    r.notes.push_back(phase + ": " + std::to_string(p.failed) + " of " +
                      std::to_string(p.attempted) + " operations failed");
    for (const std::string& f : p.failures) r.notes.push_back("  " + f);
  }
}

/// Per-request attribution of one traced phase: for each verified request,
/// its service.request (dispatch on the I/O thread), engine.queue (wait) and
/// engine.exec (the batch it ran in: the first exec span on the worker that
/// dequeued it) spans; the client latency not covered by them is the
/// unattributed residue (wire, poll loop, deferral, response write).
struct Attribution {
  std::vector<double> unattributed_ms;
  double client_ms = 0.0;
  double residue_ms = 0.0;
};

Attribution attribute(const std::vector<SpanRec>& spans, const std::vector<ClientReq>& reqs) {
  std::unordered_map<std::uint64_t, double> svc_ms;
  std::unordered_map<std::uint64_t, const SpanRec*> queue;
  std::map<int, std::vector<const SpanRec*>> execs;
  for (const SpanRec& s : spans) {
    if (s.name == "service.request" && s.args.count("type") != 0 &&
        s.args.at("type") == static_cast<std::uint64_t>(ust::service::MsgType::kRunOp)) {
      svc_ms[s.trace_id] = s.dur_us / 1e3;
    } else if (s.name == "engine.queue") {
      queue[s.trace_id] = &s;
    } else if (s.name == "engine.exec") {
      execs[s.tid].push_back(&s);
    }
  }
  for (auto& [tid, v] : execs) {
    std::sort(v.begin(), v.end(),
              [](const SpanRec* a, const SpanRec* b) { return a->ts_us < b->ts_us; });
  }
  Attribution a;
  for (const ClientReq& q : reqs) {
    const auto sv = svc_ms.find(q.trace_id);
    const auto qu = queue.find(q.trace_id);
    if (sv == svc_ms.end() || qu == queue.end()) continue;
    const auto& ex = execs[qu->second->tid];
    const double after = qu->second->end_us() - 1e-3;
    const auto it = std::lower_bound(ex.begin(), ex.end(), after,
                                     [](const SpanRec* s, double t) { return s->ts_us < t; });
    if (it == ex.end()) continue;
    const double covered = sv->second + qu->second->dur_us / 1e3 + (*it)->dur_us / 1e3;
    const double residue = std::max(0.0, q.latency_ms - covered);
    a.unattributed_ms.push_back(residue);
    a.client_ms += q.latency_ms;
    a.residue_ms += residue;
  }
  return a;
}

}  // namespace

Result run_serve(const RunConfig& cfg, const HostFacts& host) {
  Result r;
  // ---- inputs and their truth (not timed) --------------------------------
  const CooTensor shared = ust::io::generate_uniform(dims(), kNnz, derive_seed(cfg.seed, 0x5a));
  std::vector<Tenant> tenants(kConns);
  {
    ust::engine::Engine local;
    for (int i = 0; i < kConns; ++i) {
      Tenant& t = tenants[static_cast<std::size_t>(i)];
      t.id = static_cast<std::uint64_t>(i) + 1;
      t.own = ust::io::generate_uniform(dims(), kNnz, derive_seed(cfg.seed, t.id));
      ust::Prng rng(derive_seed(cfg.seed, 0x1000 + t.id));
      for (std::uint64_t id : {kOwnId, kSharedId}) {
        const CooTensor& x = id == kOwnId ? t.own : shared;
        t.mix.push_back(make_entry(local, x, id, WireOp::kSpMTTKRP, 0, rng));
        t.mix.push_back(make_entry(local, x, id, WireOp::kSpTTM, 2, rng));
        t.mix.push_back(make_entry(local, x, id, WireOp::kSpTTV, 1, rng));
        t.mix.push_back(make_entry(local, x, id, WireOp::kSpTTMc, 0, rng));
      }
    }
  }

  // ---- set-up: server start until every tenant's uploads are acked -------
  std::unique_ptr<Stack> st;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const auto t0 = Clock::now();
    st = std::make_unique<Stack>();
    ust::engine::EngineOptions eo;
    eo.num_devices = 2;
    st->engine = std::make_unique<ust::engine::Engine>(eo);
    st->server = std::make_unique<ust::service::TensorOpServer>(*st->engine);
    st->server->start();
    st->clients.reserve(kConns);
    for (const Tenant& t : tenants) {
      st->clients.emplace_back("127.0.0.1", st->server->port(), t.id);
      r.check(st->clients.back().upload_tensor(kOwnId, t.own).ok(), "own tensor upload");
      r.check(st->clients.back().upload_tensor(kSharedId, shared).ok(), "shared tensor upload");
    }
    setup_s.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup_s));

  // Warm-up: every plan built and every response path exercised once.
  account(r, run_phase(*st, tenants, 0.0, 1.0, derive_seed(cfg.seed, 0x3a), false), "warm-up");

  if (!cfg.trace) {
    const PhaseStats low =
        run_phase(*st, tenants, kLowRps, cfg.seconds * 0.55, derive_seed(cfg.seed, 0x41), false);
    account(r, low, "low");
    const PhaseStats sat =
        run_phase(*st, tenants, 0.0, cfg.seconds * 0.4, derive_seed(cfg.seed, 0x42), false);
    account(r, sat, "saturation");
    r.notes.push_back("serve_mixed: low " + std::to_string(low.latency_ms.size()) +
                      " requests at " + fmt(kLowRps) + " req/s (p99 " +
                      fmt(tail_at(low.latency_ms, 99.0)) + " ms, late p99 " +
                      fmt(tail_at(low.late_ms, 99.0)) + " ms); saturation " +
                      std::to_string(sat.ok) + " verified in " + fmt(sat.wall_s) +
                      " s; setup reps " + std::to_string(kSetupReps));
    r.set("p50_ms", median(low.latency_ms));
    r.set("throughput_per_s", static_cast<double>(sat.ok) / sat.wall_s);
    return r;
  }

  // ---- traced run: per-layer attribution ---------------------------------
  const PhaseStats untraced_sat =
      run_phase(*st, tenants, 0.0, cfg.seconds * 0.15, derive_seed(cfg.seed, 0x50), false);
  account(r, untraced_sat, "untraced saturation");

  const ust::engine::EngineStats es0 = st->engine->stats();
  const ust::service::ServerStats ss0 = st->server->stats();
  std::uint64_t dropped = 0;
  auto traced_phase = [&](double rate, double seconds, std::uint64_t tag, const char* label,
                          std::vector<SpanRec>* spans) {
    ust::obs::reset_trace();
    ust::obs::set_tracing(true);
    PhaseStats p = run_phase(*st, tenants, rate, seconds, derive_seed(cfg.seed, tag), true);
    ust::obs::set_tracing(false);
    if (spans != nullptr) *spans = parse_chrome_trace(ust::obs::chrome_trace_json());
    dropped += ust::obs::trace_stats().dropped;
    account(r, p, label);
    return p;
  };
  // The low phase runs untraced, as in the end-to-end run; the high phase's
  // spans give the attribution; the traced saturation phase, against the
  // untraced one above, gives the tracing overhead.
  const PhaseStats low =
      run_phase(*st, tenants, kLowRps, cfg.seconds * 0.2, derive_seed(cfg.seed, 0x51), false);
  account(r, low, "low");
  std::vector<SpanRec> high_spans;
  const PhaseStats high = traced_phase(kHighRps, cfg.seconds * 0.3, 0x52, "high", &high_spans);
  const PhaseStats sat = traced_phase(0.0, cfg.seconds * 0.15, 0x53, "saturation", nullptr);
  // Device busy time over the phases' own wall time (trace export and
  // parsing between phases excluded).
  const double traced_wall_s = low.wall_s + high.wall_s + sat.wall_s;
  const ust::engine::EngineStats es1 = st->engine->stats();
  const ust::service::ServerStats ss1 = st->server->stats();
  ust::obs::reset_trace();

  r.set("loadgen.low_p50_ms", median(low.latency_ms));
  r.set("loadgen.low_p99_ms", tail_at(low.latency_ms, 99.0));
  r.set("loadgen.high_p50_ms", median(high.latency_ms));
  r.set("loadgen.high_p99_ms", tail_at(high.latency_ms, 99.0));
  r.set("loadgen.capacity_rps", static_cast<double>(sat.ok) / sat.wall_s);
  r.set("loadgen.late_ms_p99", tail_at(high.late_ms, 99.0));
  r.set("run.samples", static_cast<double>(low.latency_ms.size()));
  r.set("obs.overhead", (static_cast<double>(untraced_sat.ok) / untraced_sat.wall_s) /
                            (static_cast<double>(sat.ok) / sat.wall_s));
  r.set("service.upload_ms_p50", median(high.upload_ms));

  std::vector<double> svc_ms;
  for (const SpanRec& s : high_spans) {
    if (s.name == "service.request" && s.args.count("type") != 0 &&
        s.args.at("type") == static_cast<std::uint64_t>(ust::service::MsgType::kRunOp)) {
      svc_ms.push_back(s.dur_us / 1e3);
    }
  }
  r.set("service.request_ms_p50", median(svc_ms));
  r.set("service.request_ms_p99", tail_at(svc_ms, 99.0));
  r.set("engine.queue_ms_p50", median(durations_ms(high_spans, "engine.queue")));
  r.set("engine.queue_ms_p99", tail_at(durations_ms(high_spans, "engine.queue"), 99.0));
  r.set("engine.exec_ms_p50", median(durations_ms(high_spans, "engine.exec")));
  r.set("engine.exec_ms_p99", tail_at(durations_ms(high_spans, "engine.exec"), 99.0));

  const Attribution attr = attribute(high_spans, high.reqs);
  r.set("service.unattributed_ms_p50", median(attr.unattributed_ms));
  r.set("obs.unattributed_share", attr.client_ms > 0.0 ? attr.residue_ms / attr.client_ms : 0.0);
  std::vector<LayerRow> layers = fold_self_time(high_spans, {"engine.queue", "bench.request"});
  layers.push_back({"unattributed", attr.unattributed_ms.size(), attr.residue_ms * 1e3,
                    attr.residue_ms * 1e3});
  r.notes.push_back("self time, high phase (" + std::to_string(high.reqs.size()) +
                    " verified requests, " + std::to_string(attr.unattributed_ms.size()) +
                    " fully attributed):");
  for (std::string& line : format_layers(layers, high.wall_s * 1e6)) r.notes.push_back(line);

  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double jobs = d(es0.jobs_completed, es1.jobs_completed);
  const double batched = d(es0.jobs_batched, es1.jobs_batched);
  const double executions = d(es0.batches_formed, es1.batches_formed) + (jobs - batched);
  double busy = 0.0;
  for (std::size_t i = 0; i < es1.devices.size(); ++i) {
    busy += es1.devices[i].busy_s - (i < es0.devices.size() ? es0.devices[i].busy_s : 0.0);
  }
  r.set("engine.steals_per_kjob", jobs > 0.0 ? 1000.0 * d(es0.steals, es1.steals) / jobs : 0.0);
  r.set("engine.prediction_error_pct_p50", es1.prediction_error_pct.quantile(0.5));
  r.set("engine.batched_share", jobs > 0.0 ? batched / jobs : 0.0);
  r.set("engine.batch_size_mean", executions > 0.0 ? jobs / executions : 0.0);
  r.set("engine.device_busy_share",
        busy / (static_cast<double>(es1.devices.size()) * traced_wall_s));
  const double hits = d(es0.cache_total.hits, es1.cache_total.hits);
  const double lookups = hits + d(es0.cache_total.misses, es1.cache_total.misses);
  r.set("pipeline.plan_cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
  const double requests = d(ss0.requests, ss1.requests);
  r.set("service.bytes_per_request",
        requests > 0.0 ? (d(ss0.bytes_rx, ss1.bytes_rx) + d(ss0.bytes_tx, ss1.bytes_tx)) / requests
                       : 0.0);
  r.set("service.queue_full", d(ss0.queue_full, ss1.queue_full));

  st.reset();
  // Kernel and baseline layers on the shared tensor, from outside.
  const std::vector<DenseMatrix> factors =
      random_factors(shared, kRank, derive_seed(cfg.seed, 0xfa));
  (void)kernel_layers(r, shared, kRank, ust::Partitioning{}, factors, cfg.seconds * 0.1, host);
  r.set("obs.dropped_spans", r.values["obs.dropped_spans"] + static_cast<double>(dropped));

  // The service path never runs CP-ALS: no dense algebra.
  for (const char* bypassed :
       {"core.mttkrp_share", "linalg.dense_ms_per_iter", "linalg.dense_share"}) {
    r.set(bypassed, 0.0);
  }
  return r;
}

}  // namespace perfbench
