// perfbench harness: runs one benchmark workload repeatedly for a fixed
// host-time budget and prints every measurement as one JSON object.
//
//   perfbench_harness --workload em3d-scale|water-rmi|serve-lossy
//                     --seconds S [--spans PATH] [--run-id ID]
//                     [--plant-bad-reference] --set key=value ...
//
// The workload's inputs arrive as --set pairs (run.py generates them from
// the benchmark seed); the harness holds no workload constants of its own.
// Each repetition builds a fresh simulated machine, runs the workload
// through the apps/serve entry points, checks the outputs, and tears the
// machine down. Host time is read with std::chrono::steady_clock; virtual
// time comes from the simulator.
//
// perfbench_traced is the same source built with PERFBENCH_TRACED and
// linked with the counting allocator. It records every call into a layer
// as a span (name, start, end, parent, run id), keeps the spans in memory,
// writes them to --spans when the process ends, folds their self times
// into the per-layer metrics, and reports heap allocations per simulated
// message.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "am/am.hpp"
#include "apps/em3d.hpp"
#include "apps/topology.hpp"
#include "apps/water.hpp"
#include "ccxx/runtime.hpp"
#include "common/alloc_count.hpp"
#include "common/hash.hpp"
#include "common/machine.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "transport/reliable.hpp"

namespace perfbench {
namespace {

using namespace tham;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

#if defined(PERFBENCH_TRACED)
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif
constexpr int kMinReps = 3;       ///< timed repetitions, however short
constexpr int kSetupProbes = 20;  ///< set-up-only builds per process
constexpr int kSetupSettle = 5;   ///< leading set-ups that pay page faults
                                  ///< until the allocator settles

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  double seconds = 1;
  bool plant_bad_reference = false;
  std::string spans_path;
  std::string run_id = "0";
  std::map<std::string, std::string> cfg;

  const std::string& get(const char* key) const {
    auto it = cfg.find(key);
    if (it == cfg.end()) {
      std::fprintf(stderr, "perfbench: missing --set %s=...\n", key);
      std::exit(2);
    }
    return it->second;
  }
  long long num(const char* key) const {
    return std::strtoll(get(key).c_str(), nullptr, 10);
  }
  std::uint64_t u64(const char* key) const {
    return std::strtoull(get(key).c_str(), nullptr, 10);
  }
  double real(const char* key) const {
    return std::strtod(get(key).c_str(), nullptr);
  }
};

// --- Spans ------------------------------------------------------------------

/// Host-time spans around the harness's calls into the simulator's layers.
/// Every call is timed; spans are kept only in a traced run.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index into spans(), -1 for a root
    double start_s;
    double end_s;
  };

  Tracer(bool keep, Clock::time_point epoch) : keep_(keep), epoch_(epoch) {}

  /// Runs `f` inside span `name`; returns the span's host duration.
  template <class F>
  double time(const char* name, F&& f) {
    int idx = -1;
    double start = now();
    if (keep_) {
      idx = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), start, 0});
      open_.push_back(idx);
    }
    f();
    double end = now();
    if (keep_) {
      spans_[static_cast<std::size_t>(idx)].end_s = end;
      open_.pop_back();
    }
    return end - start;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the children's durations) summed per span
  /// name over the subtree rooted at `root`.
  Metrics self_times(int root) const {
    std::vector<double> self(spans_.size(), 0);
    std::vector<bool> inside(spans_.size(), false);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      inside[i] = static_cast<int>(i) == root ||
                  (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
      if (!inside[i]) continue;
      self[i] += s.end_s - s.start_s;
      if (static_cast<int>(i) != root) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    Metrics out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (inside[i] && static_cast<int>(i) != root) {
        out[std::string("span.") + spans_[i].name + "_s"] += self[i];
      }
    }
    return out;
  }

  int last_root() const {
    for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
      if (spans_[static_cast<std::size_t>(i)].parent < 0) return i;
    }
    return -1;
  }

 private:
  double now() const { return seconds_since(epoch_); }

  bool keep_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- One simulated machine --------------------------------------------------

struct MachineSpec {
  int nodes = 4;
  std::string profile = "sp2";
  std::size_t stack_bytes = 128 * 1024;
  int threads = 1;
  bool full_topology = true;
  bool runtime = false;  ///< build a ccxx::Runtime
  bool reliable = false;
  fault::Plan plan;      ///< injected when `reliable`
};

/// One machine, built and torn down in timed steps. teardown() releases
/// the layers in reverse declaration order, as the destructor would; the
/// injector outlives the network that points at it.
struct Machine {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<fault::Injector> inj;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<am::AmLayer> am;
  std::unique_ptr<transport::Reliable> rel;
  std::unique_ptr<ccxx::Runtime> rt;

  /// Builds every layer `spec` names; returns the host set-up time.
  double build(const MachineSpec& spec, Tracer& tr) {
    double s = 0;
    s += tr.time("setup.engine", [&] {
      engine = std::make_unique<sim::Engine>(spec.nodes,
                                             make_machine(spec.profile),
                                             spec.stack_bytes);
      engine->set_threads(spec.threads);
      engine->allow_deadlock(true);  // a deadlock is a failed check here
    });
    s += tr.time("setup.net_am", [&] {
      net = std::make_unique<net::Network>(*engine);
      am = std::make_unique<am::AmLayer>(*net);
    });
    if (spec.reliable) {
      s += tr.time("setup.reliable_fault", [&] {
        rel = std::make_unique<transport::Reliable>(am->channel());
        inj = std::make_unique<fault::Injector>(spec.plan, spec.nodes);
        net->set_injector(inj.get());
      });
    }
    if (spec.full_topology) {
      s += tr.time("setup.topology", [&] { apps::declare_full_topology(*am); });
    }
    if (spec.runtime) {
      s += tr.time("setup.runtime", [&] {
        rt = std::make_unique<ccxx::Runtime>(*engine, *net, *am);
      });
    }
    return s;
  }

  void teardown(Tracer& tr) {
    tr.time("teardown", [&] {
      rt.reset();
      rel.reset();
      am.reset();
      net.reset();
      inj.reset();
      engine.reset();
    });
  }

  /// Fold of every node's dispatch digest: equal iff every node dispatched
  /// the same events in the same order.
  std::uint64_t dispatch_digest() const {
    std::uint64_t h = 0;
    for (NodeId i = 0; i < engine->size(); ++i) {
      h = hash_mix(h, engine->node(i).counters().dispatch_digest);
    }
    return h;
  }

  /// Adds this machine's node, AM and engine counters to `m`.
  void add_counters(Metrics& m) const {
    for (NodeId i = 0; i < engine->size(); ++i) {
      const sim::Node::Counters& c = engine->node(i).counters();
      m["net.msgs"] += static_cast<double>(c.msgs_sent);
      m["net.bytes"] += static_cast<double>(c.bytes_sent);
      m["net.polls"] += static_cast<double>(c.polls);
      m["threads.creates"] += static_cast<double>(c.thread_creates);
      m["threads.sync_ops"] += static_cast<double>(c.sync_ops);
      m["threads.lock_acquires"] += static_cast<double>(c.lock_acquires);
      m["threads.lock_contended"] += static_cast<double>(c.lock_contended);
      m["sim.ctx_switches"] += static_cast<double>(c.context_switches);
    }
    m["am.short_msgs"] += static_cast<double>(am->channel().sends(net::Wire::AmShort));
    m["am.bulk_msgs"] += static_cast<double>(am->channel().sends(net::Wire::AmBulk));
    const sim::Engine::EpochProfile& p = engine->epoch_profile();
    double worker_ns = static_cast<double>(p.wall_ns) * engine->shards_used();
    m["sim.epochs"] += static_cast<double>(p.epochs);
    m["sim.shard_epochs"] += static_cast<double>(p.shard_epochs);
    m["sim.parked_epochs"] += static_cast<double>(p.parked_epochs);
    m["sim.events"] += static_cast<double>(p.events);
    m["sim.stale_events"] += static_cast<double>(p.stale_events);
    m["sim.drain_ns"] += static_cast<double>(p.drain_ns);
    m["sim.barrier_ns"] += static_cast<double>(p.barrier_ns);
    m["sim.merge_ns"] += static_cast<double>(p.merge_ns);
    m["sim.plan_ns"] += static_cast<double>(p.plan_ns);
    m["sim.wall_ns"] += static_cast<double>(p.wall_ns);
    m["sim.worker_ns"] += worker_ns;
  }
};

/// Per-node average virtual time of each Figure 5/6 component.
void add_breakdown(const apps::RunResult& r, int nodes, Metrics& m) {
  m["vt.cpu_s"] = r.comp_sec(sim::Component::Cpu, nodes);
  m["vt.net_s"] = r.comp_sec(sim::Component::Net, nodes);
  m["vt.thread_mgmt_s"] = r.comp_sec(sim::Component::ThreadMgmt, nodes);
  m["vt.thread_sync_s"] = r.comp_sec(sim::Component::ThreadSync, nodes);
  m["vt.runtime_s"] = r.comp_sec(sim::Component::Runtime, nodes);
}

std::uint64_t allocs_now() {
  return kTraced ? alloc_counts().news : 0;
}

/// The machines one repetition of the workload builds, in order.
std::vector<MachineSpec> machine_specs(const Options& o) {
  MachineSpec spec;
  spec.profile = o.get("machine");
  spec.threads = static_cast<int>(o.num("threads"));
  if (o.workload == "em3d-scale") {
    spec.nodes = static_cast<int>(o.num("procs"));
    spec.stack_bytes = static_cast<std::size_t>(o.num("stack_kib")) * 1024;
    spec.full_topology = o.num("full_topology") != 0;
    return {spec};
  }
  if (o.workload == "water-rmi") {
    // The paper's Figure 6 row: the same program on Split-C, then on CC++.
    spec.nodes = static_cast<int>(o.num("procs"));
    MachineSpec cc = spec;
    cc.runtime = true;
    return {spec, cc};
  }
  spec.nodes = 2 + static_cast<int>(o.num("servers") + o.num("clients"));
  spec.runtime = true;
  spec.reliable = true;
  spec.plan.seed = o.u64("plan_seed");
  spec.plan.loss = o.real("loss");
  spec.plan.dup = o.real("dup");
  return {spec};
}

// --- Repetitions ------------------------------------------------------------

/// What one repetition of a workload measured.
struct Rep {
  double wall_s = 0;      ///< host: the run_* / serve::run calls
  double vtime_s = 0;     ///< virtual: elapsed simulated time
  std::uint64_t messages = 0;
  std::uint64_t attempted = 0;  ///< operations (app runs / requests)
  std::uint64_t failed = 0;     ///< operations whose check failed
  std::uint64_t refused = 0;    ///< served but refused (admission control)
  std::uint64_t allocs = 0;     ///< heap allocations inside the run calls
  /// Deterministic fingerprint fields. 64-bit digests are kept to their
  /// top 53 bits so that a double holds them exactly.
  Metrics fp;
  Metrics layer;                ///< per-layer metrics
  std::vector<std::string> errors;
};

bool close_rel(double got, double want, double abs_tol) {
  return std::abs(got - want) <= abs_tol + std::abs(want) * 1e-9;
}

void check_run(const Machine& m, const char* what, Rep& rep) {
  if (m.engine->deadlocked()) {
    rep.errors.push_back(std::string(what) + ": simulated program deadlocked");
  }
}

Rep rep_em3d(const Options& o, Tracer& tr) {
  apps::em3d::Config cfg;
  cfg.procs = static_cast<int>(o.num("procs"));
  cfg.graph_nodes = static_cast<int>(o.num("graph_nodes"));
  cfg.degree = static_cast<int>(o.num("degree"));
  cfg.iters = static_cast<int>(o.num("iters"));
  cfg.remote_fraction = o.real("remote_fraction");
  cfg.seed = o.u64("seed");
  Rep rep;
  Machine m;
  m.build(machine_specs(o)[0], tr);
  tr.time("apps.build", [&] { apps::em3d::build_graph(cfg); });
  apps::RunResult r;
  std::uint64_t a0 = allocs_now();
  rep.wall_s = tr.time("run.splitc", [&] {
    r = apps::em3d::run_splitc(*m.engine, *m.net, *m.am, cfg,
                               apps::em3d::Version::Ghost);
  });
  rep.allocs = allocs_now() - a0;
  check_run(m, "em3d", rep);
  rep.vtime_s = to_sec(r.elapsed);
  rep.messages = r.messages;
  rep.attempted = 1;
  rep.fp["vtime_ns"] = static_cast<double>(r.elapsed);
  rep.fp["messages"] = static_cast<double>(r.messages);
  rep.fp["dispatch_digest"] = static_cast<double>(m.dispatch_digest() >> 11);
  rep.fp["checksum"] = r.checksum;
  m.add_counters(rep.layer);
  add_breakdown(r, cfg.procs, rep.layer);
  tr.time("verify.serial", [&] {
    double ref = apps::em3d::run_serial(cfg);
    if (o.plant_bad_reference) ref = ref * (1 + 1e-6) + 1e-6;
    if (!close_rel(r.checksum, ref, 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "em3d: checksum %.17g != serial reference %.17g",
                    r.checksum, ref);
      rep.errors.emplace_back(buf);
    }
  });
  m.teardown(tr);
  return rep;
}

Rep rep_water(const Options& o, Tracer& tr) {
  apps::water::Config cfg;
  cfg.procs = static_cast<int>(o.num("procs"));
  cfg.molecules = static_cast<int>(o.num("molecules"));
  cfg.steps = static_cast<int>(o.num("steps"));
  cfg.seed = o.u64("seed");
  std::vector<MachineSpec> specs = machine_specs(o);

  Rep rep;
  tr.time("apps.build", [&] { apps::water::build_system(cfg); });

  apps::RunResult sc;
  apps::RunResult cc;
  double sc_wall = 0;
  double cc_wall = 0;
  {
    Machine m;
    m.build(specs[0], tr);
    std::uint64_t a0 = allocs_now();
    sc_wall = tr.time("run.splitc", [&] {
      sc = apps::water::run_splitc(*m.engine, *m.net, *m.am, cfg,
                                   apps::water::Version::Atomic);
    });
    rep.allocs += allocs_now() - a0;
    check_run(m, "water split-c", rep);
    rep.fp["sc_dispatch_digest"] = static_cast<double>(m.dispatch_digest() >> 11);
    m.add_counters(rep.layer);
    m.teardown(tr);
  }
  {
    Machine m;
    m.build(specs[1], tr);
    std::uint64_t a0 = allocs_now();
    cc_wall = tr.time("run.ccxx", [&] {
      cc = apps::water::run_ccxx(*m.rt, cfg, apps::water::Version::Atomic);
    });
    rep.allocs += allocs_now() - a0;
    check_run(m, "water cc++", rep);
    rep.fp["cc_dispatch_digest"] = static_cast<double>(m.dispatch_digest() >> 11);
    m.add_counters(rep.layer);
    m.teardown(tr);
  }
  rep.wall_s = sc_wall + cc_wall;
  rep.vtime_s = to_sec(cc.elapsed);
  rep.messages = sc.messages + cc.messages;
  rep.attempted = 2;
  rep.fp["sc_vtime_ns"] = static_cast<double>(sc.elapsed);
  rep.fp["cc_vtime_ns"] = static_cast<double>(cc.elapsed);
  rep.fp["sc_messages"] = static_cast<double>(sc.messages);
  rep.fp["cc_messages"] = static_cast<double>(cc.messages);
  rep.fp["checksum"] = cc.checksum;
  add_breakdown(cc, cfg.procs, rep.layer);
  double gap = static_cast<double>(cc.elapsed) / static_cast<double>(sc.elapsed);
  double paper_gap = o.real("paper_cc_s") / o.real("paper_sc_s");
  rep.layer["mpmd_gap_x"] = gap;
  rep.layer["paper_gap_err"] = std::abs(gap - paper_gap) / paper_gap;
  rep.layer["ccxx.host_overhead_s"] = cc_wall - sc_wall;

  tr.time("verify.serial", [&] {
    double ref = apps::water::run_serial(cfg);
    if (o.plant_bad_reference) ref = ref * (1 + 1e-6) + 1e-6;
    const std::pair<const char*, const apps::RunResult*> runs[] = {
        {"split-c", &sc}, {"cc++", &cc}};
    for (const auto& [lang, res] : runs) {
      if (!close_rel(res->checksum, ref, 0)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "water %s: energy %.17g != serial reference %.17g", lang,
                      res->checksum, ref);
        rep.errors.emplace_back(buf);
        ++rep.failed;
      }
    }
  });
  return rep;
}

Rep rep_serve(const Options& o, Tracer& tr) {
  serve::Config cfg;
  cfg.clients = static_cast<int>(o.num("clients"));
  cfg.servers = static_cast<int>(o.num("servers"));
  cfg.requests_per_client = static_cast<int>(o.num("requests_per_client"));
  cfg.open_loop = true;
  cfg.offered_load = o.real("offered_load");
  cfg.mean_service = static_cast<SimTime>(o.num("mean_service_ns"));
  cfg.queue_cap = static_cast<int>(o.num("queue_cap"));
  cfg.batch_max = static_cast<int>(o.num("batch_max"));
  cfg.policy = serve::Policy::LeastOutstanding;
  cfg.backend_fraction = o.real("backend_fraction");
  cfg.seed = o.u64("seed");
  MachineSpec spec = machine_specs(o)[0];

  Rep rep;
  Machine m;
  m.build(spec, tr);
  serve::Result res;
  std::uint64_t a0 = allocs_now();
  rep.wall_s = tr.time("run.serve", [&] { res = serve::run(*m.rt, cfg); });
  rep.allocs = allocs_now() - a0;
  check_run(m, "serve", rep);
  transport::Reliable::Stats rs = m.rel->total();

  rep.vtime_s = to_sec(res.run.elapsed);
  rep.messages = res.net_messages;
  rep.attempted = res.issued;
  rep.refused = res.rejected;
  std::uint64_t expect_issued = cfg.total_requests();
  if (o.plant_bad_reference) ++expect_issued;
  std::uint64_t answered = res.completed + res.rejected;
  rep.failed = answered < res.issued ? res.issued - answered : 0;
  if (answered != res.issued) {
    rep.errors.push_back("serve: completed + rejected != issued");
  }
  if (res.issued != expect_issued) {
    rep.errors.push_back("serve: issued " + std::to_string(res.issued) +
                         " requests, expected " +
                         std::to_string(expect_issued));
  }
  if (rs.gave_up != 0) {
    rep.errors.push_back("serve: reliable transport gave up on " +
                         std::to_string(rs.gave_up) + " frames");
  }
  // The tail percentile is reported only with enough samples beyond it.
  std::uint64_t n = res.latency.count();
  auto beyond = static_cast<std::uint64_t>(std::floor(
      static_cast<double>(n) * (1 - 0.999)));
  if (beyond < static_cast<std::uint64_t>(o.num("min_tail_samples"))) {
    rep.errors.push_back("serve: only " + std::to_string(beyond) +
                         " latency samples beyond p99.9");
  }

  rep.fp["vtime_ns"] = static_cast<double>(res.run.elapsed);
  rep.fp["messages"] = static_cast<double>(res.net_messages);
  rep.fp["dispatch_digest"] = static_cast<double>(m.dispatch_digest() >> 11);
  rep.fp["serve_fingerprint"] = static_cast<double>(res.fingerprint() >> 11);

  Metrics& l = rep.layer;
  m.add_counters(l);
  add_breakdown(res.run, cfg.procs(), l);
  l["p50_us"] = to_usec(static_cast<SimTime>(res.latency.p50()));
  l["p999_us"] = to_usec(static_cast<SimTime>(res.latency.p999()));
  l["latency_samples"] = static_cast<double>(n);
  l["serve.rejected_frac"] = res.rejection_rate();
  l["serve.batch_fill"] =
      res.forward_batches == 0
          ? 0
          : static_cast<double>(res.forwarded) /
                static_cast<double>(res.forward_batches);
  l["serve.backend_lookups"] = static_cast<double>(res.backend_lookups);
  l["serve.mean_queue_depth"] = res.queue_depth.mean();
  l["rel.data_frames"] = static_cast<double>(rs.data_frames);
  l["rel.retransmits"] = static_cast<double>(rs.retransmits);
  l["rel.acks_sent"] = static_cast<double>(rs.acks_sent);
  l["rel.dup_drops"] = static_cast<double>(rs.dup_drops);
  l["rel.gave_up"] = static_cast<double>(rs.gave_up);
  double srtt_sum = 0;
  int srtt_links = 0;
  for (NodeId s = 0; s < spec.nodes; ++s) {
    for (NodeId d = 0; d < spec.nodes; ++d) {
      SimTime v = s == d ? 0 : m.rel->srtt(s, d);
      if (v > 0) {
        srtt_sum += to_usec(v);
        ++srtt_links;
      }
    }
  }
  l["rel.srtt_us"] = srtt_links == 0 ? 0 : srtt_sum / srtt_links;
  l["fault.drops"] = static_cast<double>(m.inj->drops());
  l["fault.dups"] = static_cast<double>(m.inj->dups());
  m.teardown(tr);
  return rep;
}

Rep run_rep(const Options& o, Tracer& tr) {
  Rep rep = o.workload == "em3d-scale"  ? rep_em3d(o, tr)
            : o.workload == "water-rmi" ? rep_water(o, tr)
                                        : rep_serve(o, tr);
  if (!rep.errors.empty() && rep.failed == 0) rep.failed = rep.attempted;
  return rep;
}

/// Set-up alone, for a steadier set-up median: builds and tears down the
/// workload's machines without running them.
double setup_probe(const Options& o, Tracer& tr) {
  double s = 0;
  for (const MachineSpec& spec : machine_specs(o)) {
    Machine m;
    s += m.build(spec, tr);
    m.teardown(tr);
  }
  return s;
}

// --- Host facts and output --------------------------------------------------

long vm_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtol(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        model.erase(0, model.find_first_not_of(' '));
        while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

void put_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void put_metrics(std::FILE* f, const Metrics& m) {
  std::fputc('{', f);
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::fputs(", ", f);
    first = false;
    put_string(f, k);
    std::fprintf(f, ": %.17g", v);
  }
  std::fputc('}', f);
}

void put_reps(std::FILE* f, const std::vector<Rep>& reps) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    std::fprintf(f,
                 "%s\n{\"wall_s\": %.9g, \"vtime_s\": "
                 "%.17g, \"messages\": %llu, \"attempted\": %llu, "
                 "\"failed\": %llu, \"refused\": %llu, \"allocs\": %llu, "
                 "\"fingerprint\": ",
                 i == 0 ? "" : ",", r.wall_s, r.vtime_s,
                 static_cast<unsigned long long>(r.messages),
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.refused),
                 static_cast<unsigned long long>(r.allocs));
    put_metrics(f, r.fp);
    std::fputs(", \"layer\": ", f);
    put_metrics(f, r.layer);
    std::fputs(", \"errors\": [", f);
    for (std::size_t e = 0; e < r.errors.size(); ++e) {
      if (e != 0) std::fputs(", ", f);
      put_string(f, r.errors[e]);
    }
    std::fputs("]}", f);
  }
  std::fputc(']', f);
}

void write_spans(const Options& o, const Tracer& tr) {
  std::FILE* f = std::fopen(o.spans_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_path.c_str());
    return;
  }
  std::fputs("[\n", f);
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f, "  {\"id\": %zu, \"run\": ", i);
    put_string(f, o.run_id);
    std::fputs(", \"name\": ", f);
    put_string(f, s.name);
    std::fprintf(f, ", \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 s.parent, s.start_s, s.end_s,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

int harness_main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--spans") {
      o.spans_path = next();
    } else if (a == "--run-id") {
      o.run_id = next();
    } else if (a == "--plant-bad-reference") {
      o.plant_bad_reference = true;
    } else if (a == "--set") {
      std::string kv = next();
      std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "perfbench: --set wants key=value\n");
        return 2;
      }
      o.cfg[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (o.workload != "em3d-scale" && o.workload != "water-rmi" &&
      o.workload != "serve-lossy") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  Clock::time_point start = Clock::now();
  Tracer tr(kTraced, start);
  std::vector<double> setups;
  for (int i = 0; i < kSetupProbes; ++i) {
    double t = setup_probe(o, tr);
    if (i >= kSetupSettle) setups.push_back(t);
  }
  // One untimed repetition first: it pays the first touch of the node
  // arena and stacks and fills the caches. Its outputs are still checked.
  std::vector<Rep> warm;
  warm.push_back(run_rep(o, tr));
  // Later repetitions reuse (and fragment) the allocator's memory; the
  // footprint of one run is the high-water mark after the first.
  long peak_rss_kib = vm_kib("VmHWM");
  std::vector<Rep> reps;
  Clock::time_point reps_start = Clock::now();
  while (static_cast<int>(reps.size()) < kMinReps ||
         seconds_since(reps_start) < o.seconds) {
    Rep rep;
    tr.time("rep", [&] { rep = run_rep(o, tr); });
    if (kTraced) {
      for (const auto& [k, v] : tr.self_times(tr.last_root())) rep.layer[k] = v;
    }
    reps.push_back(std::move(rep));
  }
  if (kTraced && !o.spans_path.empty()) write_spans(o, tr);

  unsigned nproc = std::thread::hardware_concurrency();
  int threads = static_cast<int>(o.num("threads"));
#if defined(THAM_FIBER_FAST_SWITCH)
  const char* fiber = "asm-x86_64";
#else
  const char* fiber = "ucontext";
#endif
#if defined(__clang__)
  std::string compiler = std::string("clang ") + __clang_version__;
#else
  std::string compiler = std::string("gcc ") + __VERSION__;
#endif

  std::FILE* f = stdout;
  std::fputs("{\"host\": {\"nproc\": ", f);
  std::fprintf(f, "%u, \"cpu_model\": ", nproc);
  put_string(f, cpu_model());
  std::fputs(", \"compiler\": ", f);
  put_string(f, compiler);
  std::fputs(", \"build_type\": ", f);
  put_string(f, PERFBENCH_BUILD_TYPE);
  std::fputs(", \"fiber_switch\": ", f);
  put_string(f, fiber);
  std::fprintf(f,
               ", \"worker_threads\": %d, \"oversubscribed\": %s, "
               "\"alloc_counting\": %s}",
               threads, threads > static_cast<int>(nproc) ? "true" : "false",
               kTraced ? "true" : "false");
  std::fprintf(f, ", \"peak_rss_kib\": %ld, \"setup_s\": [", peak_rss_kib);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::fprintf(f, "%s%.9g", i == 0 ? "" : ", ", setups[i]);
  }
  std::fputs("], \"warmup\": ", f);
  put_reps(f, warm);
  std::fputs(", \"reps\": ", f);
  put_reps(f, reps);
  std::fputs("}\n", f);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::harness_main(argc, argv); }
