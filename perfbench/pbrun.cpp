// Measured process of the perfbench workloads.
//
//   pbrun <data-dir> <seconds> <trace 0|1> <out-dir> <checks 0|1>
//
// Reads the manifest and script that pbgen wrote into <data-dir>, builds one
// QueryEngine over the raw files, runs the untimed warm-up, then replays
// whole rounds of the script for at least <seconds> seconds (and at least
// 50 queries), with the machine probe after every round, once the engine
// is idle, and the peak RSS read after the second. Every query's
// cells are compared with pbgen's independent answer. After the timed phase
// it measures cold first queries; with checks = 1 it checks properties that
// hold whatever the answers (counts, group sums, appends, interpreter ==
// JIT); with trace = 1 it times each layer through its public functions and
// checks the engine's own phase split against the benchmark's wall clock.
//
// <out-dir> gets samples.json: correct, attempted, failed, the raw samples
// behind the end-to-end metrics (set-up, latencies, cold queries, timed
// time, peak RSS, machine probes) and, with trace = 1, the per-layer
// metrics, trace.json (Chrome trace events of the benchmark's spans) and
// layers.json (a per-span summary).
#include <dirent.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/query_engine.h"
#include "src/parser/parser.h"
#include "src/plugins/plugin.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

using namespace proteus;
using Clock = std::chrono::steady_clock;

namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const Clock::time_point g_start = Clock::now();
double NowUs() { return MsBetween(g_start, Clock::now()) * 1000.0; }

[[noreturn]] void Die(const std::string& msg) {
  fprintf(stderr, "pbrun: %s\n", msg.c_str());
  exit(2);
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ------------------------------------------------------------- inputs ----

struct Dataset {
  std::string name, kind, format, path, group_col;
  uint64_t rows = 0;
};
struct Batch {
  int id;
  std::string dataset, path;
  uint64_t rows;
};
struct Step {
  enum Kind { kQuery, kAppend, kRestore } kind = kQuery;
  int batch = 0;
  std::string text, expected;
};
struct Workload {
  std::vector<Dataset> datasets;
  std::vector<Batch> batches;
  std::map<std::string, std::string> base;  // dataset -> base copy
  std::map<std::string, std::string> params;
  std::vector<std::vector<Step>> rounds;

  std::string Param(const std::string& k, const std::string& def) const {
    auto it = params.find(k);
    return it == params.end() ? def : it->second;
  }
  const Dataset* Find(const std::string& name) const {
    for (const auto& d : datasets) {
      if (d.name == name) return &d;
    }
    return nullptr;
  }
};

Workload LoadWorkload(const std::string& dir) {
  Workload w;
  std::ifstream mf(dir + "/manifest.txt");
  if (!mf) Die("no manifest in " + dir);
  std::string line;
  while (std::getline(mf, line)) {
    auto f = Split(line, '\t');
    if (f[0] == "dataset" && f.size() == 7) {
      w.datasets.push_back({f[1], f[2], f[3], dir + "/" + f[4], f[6], std::stoull(f[5])});
    } else if (f[0] == "batch" && f.size() == 5) {
      w.batches.push_back({std::stoi(f[1]), f[2], dir + "/" + f[3], std::stoull(f[4])});
    } else if (f[0] == "base" && f.size() == 3) {
      w.base[f[1]] = dir + "/" + f[2];
    } else if (f[0] == "param" && f.size() == 3) {
      w.params[f[1]] = f[2];
    } else {
      Die("bad manifest line: " + line);
    }
  }
  std::ifstream sf(dir + "/script.txt");
  if (!sf) Die("no script in " + dir);
  while (std::getline(sf, line)) {
    auto f = Split(line, '\t');
    if (f[0] == "round") {
      w.rounds.emplace_back();
    } else if (w.rounds.empty()) {
      Die("script step before the first round");
    } else if (f[0] == "q" && f.size() == 3) {
      Step s;
      s.text = f[1];
      s.expected = f[2];
      w.rounds.back().push_back(std::move(s));
    } else if (f[0] == "append" && f.size() == 2) {
      Step s;
      s.kind = Step::kAppend;
      s.batch = std::stoi(f[1]);
      w.rounds.back().push_back(std::move(s));
    } else if (f[0] == "restore") {
      Step s;
      s.kind = Step::kRestore;
      w.rounds.back().push_back(std::move(s));
    } else {
      Die("bad script line: " + line);
    }
  }
  if (w.rounds.empty()) Die("empty script");
  return w;
}

TypePtr SchemaFor(const std::string& kind) {
  auto I = Type::Int64, F = Type::Float64, S = Type::String;
  if (kind == "lineitem") {
    return Type::BagOfRecords({{"l_orderkey", I()}, {"l_linenumber", I()}, {"l_quantity", F()},
                               {"l_extendedprice", F()}, {"l_discount", F()}, {"l_tax", F()},
                               {"l_shipmode", S()}});
  }
  if (kind == "lineitem_bin") {
    return Type::BagOfRecords({{"l_orderkey", I()}, {"l_linenumber", I()}, {"l_quantity", F()},
                               {"l_extendedprice", F()}, {"l_discount", F()},
                               {"l_shipmode", I()}});
  }
  if (kind == "orders") {
    return Type::BagOfRecords({{"o_orderkey", I()}, {"o_custkey", I()}, {"o_totalprice", F()},
                               {"o_shippriority", I()}});
  }
  if (kind == "customer") {
    return Type::BagOfRecords({{"c_custkey", I()}, {"c_nation", I()}, {"c_acctbal", F()}});
  }
  if (kind == "nation") {
    return Type::BagOfRecords({{"n_nationkey", I()}, {"n_regionkey", I()}, {"n_name", S()}});
  }
  if (kind == "denorm") {
    TypePtr line = Type::Record(
        {{"l_linenumber", I()}, {"l_quantity", F()}, {"l_extendedprice", F()}});
    return Type::BagOfRecords({{"o_orderkey", I()}, {"o_custkey", I()}, {"o_totalprice", F()},
                               {"lineitems", Type::Collection(CollectionKind::kArray, line)}});
  }
  if (kind == "mails") {
    TypePtr origin = Type::Record({{"ip", S()}, {"country", S()}});
    TypePtr cls = Type::Record({{"dim", S()}, {"label", I()}});
    return Type::BagOfRecords({{"mail_id", I()}, {"lang", S()}, {"bot", S()},
                               {"body_len", I()}, {"score", F()}, {"origin", origin},
                               {"classes", Type::Collection(CollectionKind::kArray, cls)}});
  }
  if (kind == "classes") {
    return Type::BagOfRecords({{"mail_id", I()}, {"iter", I()}, {"cls_a", I()},
                               {"score_a", F()}, {"label", S()}});
  }
  if (kind == "history") {
    return Type::BagOfRecords({{"mail_id", I()}, {"day", I()}, {"spam_score", F()},
                               {"hits", I()}});
  }
  Die("unknown schema kind " + kind);
}

DatasetInfo InfoFor(const Dataset& d) {
  DatasetInfo info;
  info.name = d.name;
  info.format = d.format == "json"  ? DataFormat::kJSON
                : d.format == "csv" ? DataFormat::kCSV
                                    : DataFormat::kBinaryColumn;
  info.path = d.path;
  info.type = SchemaFor(d.kind);
  return info;
}

void CopyFile(const std::string& from, const std::string& to, bool append) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | (append ? std::ios::app : std::ios::trunc));
  out << in.rdbuf();
  if (!in || !out) Die("cannot copy " + from + " to " + to);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// ------------------------------------------------------------ answers ----

/// A result in pbgen's encoding: rows sorted, cells typed (i/f/s).
std::vector<std::string> Canonical(const QueryResult& r) {
  std::vector<std::string> rows;
  for (const auto& row : r.rows) {
    std::string s;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) s += ',';
      const Value& v = row[c];
      char buf[64];
      if (v.is_int()) {
        snprintf(buf, sizeof(buf), "i%lld", static_cast<long long>(v.i()));
        s += buf;
      } else if (v.is_float()) {
        snprintf(buf, sizeof(buf), "f%.17g", v.f());
        s += buf;
      } else if (v.is_string()) {
        s += "s" + v.s();
      } else if (v.is_null()) {
        s += "n";
      } else {
        s += "?" + v.ToString();
      }
    }
    rows.push_back(s);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Rows compare by their non-float cells exactly and float cells within a
/// relative 1e-9: sums over the same doubles in another order may differ in
/// the last bits.
bool RowsMatch(std::vector<std::string> got, std::vector<std::string> want) {
  if (got.size() != want.size()) return false;
  auto key = [](const std::string& row) {
    std::string k;
    for (const auto& c : Split(row, ',')) k += (c[0] == 'f' ? std::string("f") : c) + ",";
    return k;
  };
  auto by_key = [&](const std::string& a, const std::string& b) { return key(a) < key(b); };
  std::stable_sort(got.begin(), got.end(), by_key);
  std::stable_sort(want.begin(), want.end(), by_key);
  for (size_t r = 0; r < got.size(); ++r) {
    auto g = Split(got[r], ','), w = Split(want[r], ',');
    if (g.size() != w.size()) return false;
    for (size_t c = 0; c < g.size(); ++c) {
      if (g[c] == w[c]) continue;
      if (g[c][0] != 'f' || w[c][0] != 'f') return false;
      const double a = std::strtod(g[c].c_str() + 1, nullptr);
      const double b = std::strtod(w[c].c_str() + 1, nullptr);
      if (std::fabs(a - b) > 1e-9 * std::max(1.0, std::fabs(b))) return false;
    }
  }
  return true;
}

std::vector<std::string> Expected(const std::string& encoded) {
  if (encoded == "-") return {};
  auto rows = Split(encoded, ';');
  std::sort(rows.begin(), rows.end());
  return rows;
}

// -------------------------------------------------------------- spans ----

/// Benchmark-side spans around public calls, kept in memory and written
/// as Chrome trace events when the run ends. Only the traced run records.
struct Span {
  std::string name;
  double ts_us, dur_us;
  uint64_t query;  // 0 = not tied to one query
};
std::vector<Span> g_spans;
bool g_trace = false;

class Scoped {
 public:
  explicit Scoped(const char* name, uint64_t query = 0)
      : name_(name), query_(query), t0_(NowUs()) {}
  ~Scoped() {
    if (!g_trace) return;
    g_spans.push_back({name_, t0_, NowUs() - t0_, query_});
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  const char* name_;
  uint64_t query_;
  double t0_;
};

// ---------------------------------------------------------- machine ----

/// Fixed probe of machine speed (machine.calib_ms), run after every round.
/// The same work on every call — a dependent walk over a 128 KiB
/// permutation with integer mixing — so its time tracks how fast this
/// process is running right now, and nothing the engine does.
double MachineProbe() {
  static const std::vector<uint32_t> next = [] {
    const uint32_t n = 1u << 15;
    std::vector<uint32_t> v(n);
    for (uint32_t i = 0; i < n; ++i) v[i] = i;
    uint64_t s = 88172645463325252ull;
    for (uint32_t i = n - 1; i > 0; --i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(v[i], v[s % (i + 1)]);
    }
    return v;
  }();
  Scoped span("machine.calib");
  const auto t0 = Clock::now();
  uint32_t p = 0;
  uint64_t acc = 0;
  for (int i = 0; i < 2000000; ++i) {
    p = next[p];
    acc = acc * 6364136223846793005ull + p;
    acc ^= acc >> 29;
  }
  const double ms = MsBetween(t0, Clock::now());
  if (acc == 42) fprintf(stderr, " ");  // keeps the walk observable
  return ms;
}

/// Threads of this process, other than the caller, that are running or
/// ready to run (state R in /proc/self/task/<tid>/stat).
int OtherRunnableThreads() {
  const long self = syscall(SYS_gettid);
  int runnable = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.' || std::strtol(ent->d_name, nullptr, 10) == self) continue;
    std::ifstream f(std::string("/proc/self/task/") + ent->d_name + "/stat");
    std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    const size_t paren = stat.rfind(')');
    if (paren != std::string::npos && paren + 2 < stat.size() && stat[paren + 2] == 'R') {
      ++runnable;
    }
  }
  closedir(dir);
  return runnable;
}

/// Waits until the engine has no work left running — queued tier-2
/// compiles drained, no other thread of this process runnable — so the
/// probe that follows times the machine and not the engine. Gives up after
/// a second.
void WaitIdle(QueryEngine& e) {
  if (auto* tiered = e.tiered_compiler()) tiered->Drain();
  const auto t0 = Clock::now();
  while (OtherRunnableThreads() > 0 && MsBetween(t0, Clock::now()) < 1000.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// ------------------------------------------------------------ running ----

/// One query as measured. Only what the metrics need is kept, so the
/// samples of a run add little to the process's memory.
struct Sample {
  const Step* step = nullptr;
  double wall_ms = 0;
  double parse_ms = 0;
  size_t ir_bytes = 0;
  bool ok = false;
  bool cold = false;   // first query on a file version the engine had not opened
  int64_t first = -1;  // the first cell, when it is an integer (counts)
  // From the engine's QueryTelemetry:
  double optimize_ms = 0, cache_build_ms = 0, compile_ms = 0, execute_ms = 0;
  uint64_t morsels = 0;
  bool used_cache = false, compiled = false;
};

struct Checks {
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    if (failures.size() < 20) fprintf(stderr, "pbrun: check failed: %s\n", what.c_str());
    failures.push_back(what);
  }
};

class Runner {
 public:
  Runner(const Workload& w, bool cache) : w_(w) {
    EngineOptions opts;
    opts.num_threads = 1;
    opts.cache_policy.enabled = cache;
    engine_ = std::make_unique<QueryEngine>(opts);
    for (const auto& d : w_.datasets) {
      Status s = engine_->RegisterDataset(InfoFor(d));
      if (!s.ok()) Die("register " + d.name + ": " + s.ToString());
    }
  }

  QueryEngine& engine() { return *engine_; }

  /// Runs one script round; appends one Sample per query.
  void RunRound(const std::vector<Step>& round, std::vector<Sample>* out, Checks* checks) {
    for (const Step& s : round) RunStep(s, out, checks);
  }

  const std::vector<double>& invalidate_ms() const { return invalidate_ms_; }

 private:
  void RunStep(const Step& s, std::vector<Sample>* out, Checks* checks) {
    if (s.kind == Step::kRestore || s.kind == Step::kAppend) {
      ChangeFiles(s, checks);
      return;
    }
    Sample smp;
    smp.step = &s;
    smp.cold = fresh_version_;
    fresh_version_ = false;
    const uint64_t qid = next_query_id_++;
    if (g_trace) {
      Scoped span("parser.parse", qid);
      const auto t0 = Clock::now();
      auto parsed = ParseQuery(s.text, engine_->catalog());
      smp.parse_ms = MsBetween(t0, Clock::now());
      if (!parsed.ok()) checks->Fail("parse: " + s.text);
    }
    QueryTelemetry tel;
    std::vector<std::string> cells;
    std::string ir;
    CallOptions call;
    call.telemetry = &tel;
    if (g_trace) call.ir = &ir;
    Status status;
    {
      Scoped span("engine.execute", qid);
      const auto t0 = Clock::now();
      auto r = engine_->Execute(s.text, call);
      smp.wall_ms = MsBetween(t0, Clock::now());
      smp.ir_bytes = ir.size();
      status = r.status();
      if (r.ok()) cells = Canonical(*r);
    }
    smp.ok = status.ok();
    if (!smp.ok) {
      fprintf(stderr, "pbrun: query failed: %s\n  %s\n", s.text.c_str(),
              status.ToString().c_str());
    } else if (!RowsMatch(cells, Expected(s.expected))) {
      checks->Fail("wrong answer: " + s.text);
    }
    if (!cells.empty() && cells[0][0] == 'i') {
      smp.first = std::strtoll(cells[0].c_str() + 1, nullptr, 10);
    }
    smp.optimize_ms = tel.optimize_ms;
    smp.cache_build_ms = tel.cache_build_ms;
    smp.compile_ms = tel.compile_ms;
    smp.execute_ms = tel.execute_ms;
    smp.morsels = tel.morsels;
    smp.used_cache = tel.used_cache;
    smp.compiled = tel.used_jit && !tel.jit_cache_hit && tel.compile_ms > 0;
    out->push_back(std::move(smp));
  }

  /// Restores the base copies, or appends a batch, then tells the engine.
  void ChangeFiles(const Step& s, Checks* checks) {
    std::vector<std::string> changed;
    if (s.kind == Step::kRestore) {
      for (const auto& [ds, path] : w_.base) {
        CopyFile(path, w_.Find(ds)->path, false);
        changed.push_back(ds);
      }
    } else {
      for (const Batch& b : w_.batches) {
        if (b.id != s.batch) continue;
        CopyFile(b.path, w_.Find(b.dataset)->path, true);
        changed.push_back(b.dataset);
      }
      if (changed.empty()) checks->Fail("no files for batch " + std::to_string(s.batch));
    }
    for (const auto& ds : changed) {
      Scoped span("catalog.invalidate");
      const auto t0 = Clock::now();
      engine_->InvalidateDataset(ds);
      invalidate_ms_.push_back(MsBetween(t0, Clock::now()));
    }
    fresh_version_ = true;
  }

  const Workload& w_;
  std::unique_ptr<QueryEngine> engine_;
  bool fresh_version_ = false;
  uint64_t next_query_id_ = 1;
  std::vector<double> invalidate_ms_;
};

/// Restores every base copy before any engine exists, so the first
/// registration sees the round-start state.
void RestoreBase(const Workload& w) {
  for (const auto& [ds, path] : w.base) CopyFile(path, w.Find(ds)->path, false);
}

Result<QueryResult> RunDirect(QueryEngine& e, const std::string& text,
                              QueryTelemetry* tel = nullptr) {
  CallOptions call;
  call.telemetry = tel;
  return e.Execute(text, call);
}

// ----------------------------------------------------------- checks ----

/// Properties that hold whatever the reference says: a full-range count
/// equals the rows written, and group counts sum to the ungrouped count.
void CheckCounts(QueryEngine& e, const Workload& w, uint64_t appended_batches, Checks* checks) {
  for (const auto& d : w.datasets) {
    uint64_t rows = d.rows;
    for (const auto& b : w.batches) {
      if (b.dataset == d.name && static_cast<uint64_t>(b.id) <= appended_batches) rows += b.rows;
    }
    auto all = RunDirect(e, "SELECT count(*) FROM " + d.name);
    if (!all.ok() || all->num_rows() != 1 || !all->scalar().is_int() ||
        static_cast<uint64_t>(all->scalar().i()) != rows) {
      checks->Fail("full-range count of " + d.name + " != " + std::to_string(rows));
      continue;
    }
    auto grouped = RunDirect(e, "SELECT " + d.group_col + ", count(*) FROM " + d.name +
                                    " GROUP BY " + d.group_col);
    int64_t sum = 0;
    if (grouped.ok()) {
      for (const auto& row : grouped->rows) sum += row.back().is_int() ? row.back().i() : 0;
    }
    if (!grouped.ok() || static_cast<uint64_t>(sum) != rows) {
      checks->Fail("group counts of " + d.name + " by " + d.group_col + " do not sum to " +
                   std::to_string(rows));
    }
  }
}

/// After each append the full-range counts grow by exactly the batch rows
/// (the script's count queries run first after every file change).
void CheckAppends(const Workload& w, const std::vector<Sample>& round_samples, Checks* checks) {
  std::map<std::string, int64_t> last;
  int batch = 0;
  for (const Sample& s : round_samples) {
    if (s.cold) ++batch;  // restore starts at batch 0, each append adds one
    const std::string prefix = "SELECT count(*) FROM ";
    const std::string& text = s.step->text;
    if (!s.ok || text.rfind(prefix, 0) != 0 || text.find(' ', prefix.size()) != std::string::npos) {
      continue;
    }
    const std::string ds = text.substr(prefix.size());
    const int64_t n = s.first;
    auto it = last.find(ds);
    if (it != last.end() && batch > 1) {
      int64_t grew = 0;
      for (const auto& b : w.batches) {
        if (b.dataset == ds && b.id == batch - 1) grew = static_cast<int64_t>(b.rows);
      }
      if (n - it->second != grew) {
        checks->Fail("count of " + ds + " grew by " + std::to_string(n - it->second) +
                     " after batch " + std::to_string(batch - 1) + ", appended " +
                     std::to_string(grew));
      }
    }
    last[ds] = n;
  }
}

// ----------------------------------------------------------- output ----

// Layer-split tolerance. Per query, the engine's optimize + cache build +
// compile + execute may exceed the benchmark's wall time of the same call
// by at most kSplitSlackMs (two clocks read at different instants). Over
// the run, the median query may leave at most kSplitAbsMs + kSplitRel x the
// median wall time unaccounted: parse, normalize, result and telemetry
// copies. A median, because a
// descheduled instant inflates single queries on a shared machine.
constexpr double kSplitSlackMs = 0.05;
constexpr double kSplitAbsMs = 0.5;
constexpr double kSplitRel = 0.25;

struct Metric {
  std::string name, unit;
  double value;
};

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) o += ", ";
    o += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return o + "}";
}

void WriteTrace(const std::string& out_dir) {
  std::ofstream f(out_dir + "/trace.json");
  f << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"cat\": \"perfbench\", "
      << "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << Num(s.ts_us)
      << ", \"dur\": " << Num(s.dur_us) << ", \"args\": {\"query\": " << s.query << "}}";
  }
  f << "\n]}\n";
  std::map<std::string, std::vector<double>> by;
  for (const Span& s : g_spans) by[s.name].push_back(s.dur_us / 1000.0);
  std::ofstream l(out_dir + "/layers.json");
  l << "{";
  bool first = true;
  for (const auto& [name, v] : by) {
    double total = 0;
    for (double x : v) total += x;
    l << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": " << v.size()
      << ", \"total_ms\": " << Num(total) << ", \"median_ms\": " << Num(Median(v)) << "}";
    first = false;
  }
  l << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) Die("usage: pbrun <data-dir> <seconds> <trace 0|1> <out-dir> <checks 0|1>");
  const Workload w = LoadWorkload(argv[1]);
  const double seconds = std::strtod(argv[2], nullptr);
  g_trace = std::string(argv[3]) == "1";
  const std::string out_dir = argv[4];
  const bool property_checks = std::string(argv[5]) == "1";
  Checks checks;
  uint64_t attempted = 0, failed = 0;
  auto count = [&](const std::vector<Sample>& v) {
    for (const Sample& s : v) {
      ++attempted;
      failed += s.ok ? 0 : 1;
    }
  };

  // ---- set-up: engine, registrations, warm-up rounds (untimed) ----
  RestoreBase(w);
  const bool cache = w.Param("cache", "0") == "1";
  auto runner = std::make_unique<Runner>(w, cache);
  QueryEngine& engine = runner->engine();
  const int warm_rounds = std::stoi(w.Param("warm_rounds", "1"));
  const size_t nrounds = w.rounds.size();
  std::vector<Sample> warm;
  for (int r = 0; r < warm_rounds; ++r) {
    Scoped span("warmup.round");
    runner->RunRound(w.rounds[r % nrounds], &warm, &checks);
  }
  count(warm);
  MachineProbe();  // the first call pays the page faults of its table
  const auto jit0 = engine.jit_cache()->stats();
  const auto timed_start = Clock::now();
  // Set-up counts from the process's start: the launcher passes the
  // CLOCK_MONOTONIC instant it spawned this process (steady_clock's clock
  // on Linux), so exec, loading and static initialisation are included.
  Clock::time_point setup_origin = g_start;
  if (const char* t0 = std::getenv("PERFBENCH_T0_NS")) {
    const Clock::time_point spawned{std::chrono::nanoseconds(std::strtoll(t0, nullptr, 10))};
    if (spawned <= g_start) setup_origin = spawned;
  }
  const double setup_s = MsBetween(setup_origin, timed_start) / 1000.0;

  // ---- timed phase: whole rounds until the time and count floors ----
  // Peak RSS is read after a fixed number of timed rounds, so it reflects
  // the same work in every run, not how many rounds the time allowed.
  constexpr size_t kRssRounds = 2;
  std::vector<Sample> timed;
  std::vector<double> calib;
  std::vector<Sample> last_round;
  double calib_ms_total = 0;
  double peak_rss_mb = 0;
  size_t timed_rounds = 0;
  for (size_t r = static_cast<size_t>(warm_rounds);; ++r) {
    std::vector<Sample> round;
    runner->RunRound(w.rounds[r % nrounds], &round, &checks);
    ++timed_rounds;
    timed.insert(timed.end(), round.begin(), round.end());
    last_round = std::move(round);
    // Waiting for the engine to go idle counts as timed: it is the round's
    // own work. The probe and the RSS read do not.
    WaitIdle(engine);
    const auto tc = Clock::now();
    calib.push_back(MachineProbe());
    if (timed_rounds == kRssRounds) peak_rss_mb = PeakRssMb();
    calib_ms_total += MsBetween(tc, Clock::now());
    // The launcher pools many processes, so 50 queries each keeps every
    // run above 100 timed queries.
    if (MsBetween(timed_start, Clock::now()) >= seconds * 1000.0 && timed.size() >= 50 &&
        timed_rounds >= kRssRounds) {
      break;
    }
  }
  const double timed_ms = MsBetween(timed_start, Clock::now()) - calib_ms_total;
  count(timed);
  const auto jit1 = engine.jit_cache()->stats();

  // ---- end-to-end numbers ----
  std::vector<double> lat, cold_lat;
  for (const Sample& s : timed) {
    if (!s.ok) continue;
    lat.push_back(s.wall_ms);
    if (s.cold) cold_lat.push_back(s.wall_ms);
  }
  const std::string cold_query = w.Param("cold", "");
  if (!cold_query.empty()) {
    // Fresh engines: the first query pays plug-in open, structural index,
    // statistics and its compile, as a user's first query over new files.
    for (int i = 0; i < 5; ++i) {
      EngineOptions opts;
      opts.num_threads = 1;
      opts.cache_policy.enabled = cache;
      QueryEngine fresh(opts);
      for (const auto& d : w.datasets) (void)fresh.RegisterDataset(InfoFor(d));
      Scoped span("cold.first_query");
      const auto t0 = Clock::now();
      auto res = fresh.Execute(cold_query);
      cold_lat.push_back(MsBetween(t0, Clock::now()));
      if (!res.ok()) checks.Fail("cold query failed: " + cold_query);
    }
  }

  // ---- properties, outside the timed phase (once per run) ----
  if (property_checks) {
    CheckAppends(w, last_round, &checks);
    uint64_t appended = 0;
    for (const Sample& s : last_round) appended += s.cold ? 1 : 0;
    CheckCounts(engine, w, appended > 0 ? appended - 1 : 0, &checks);

    // The same cells from the interpreter as from generated code.
    EngineOptions opts;
    opts.num_threads = 1;
    opts.mode = ExecMode::kInterp;
    QueryEngine interp(opts);
    for (const auto& d : w.datasets) (void)interp.RegisterDataset(InfoFor(d));
    size_t checked = 0;
    for (size_t i = 0; i < last_round.size() && checked < 8; i += 1 + last_round.size() / 8) {
      const Step& s = *last_round[i].step;
      QueryTelemetry tel;
      auto a = RunDirect(engine, s.text, &tel);
      auto b = RunDirect(interp, s.text);
      ++checked;
      if (!tel.used_jit || !tel.fallback_reason.empty()) {
        checks.Fail("JIT side ran no generated code (" + tel.fallback_reason + "): " + s.text);
      } else if (!a.ok() || !b.ok() || !RowsMatch(Canonical(*a), Canonical(*b))) {
        checks.Fail("interpreter and JIT disagree: " + s.text);
      }
    }
  }

  // ---- per-layer numbers (traced run) ----
  std::vector<Metric> layers;
  if (g_trace) {
    std::vector<double> parse, opt, exec, morsels, compile, ir_kb, build, overhead, walls;
    uint64_t used_cache = 0;
    for (const auto* samples : {&warm, &timed}) {
      for (const Sample& s : *samples) {
        if (!s.ok || !s.compiled) continue;
        compile.push_back(s.compile_ms);
        if (s.ir_bytes > 0) ir_kb.push_back(static_cast<double>(s.ir_bytes) / 1024.0);
      }
    }
    for (const Sample& s : timed) {
      if (!s.ok) continue;
      parse.push_back(s.parse_ms);
      opt.push_back(s.optimize_ms);
      exec.push_back(s.execute_ms);
      morsels.push_back(static_cast<double>(s.morsels));
      if (s.used_cache) ++used_cache;
      if (s.cache_build_ms > 0.05) build.push_back(s.cache_build_ms);
      // Layer split: the engine's phases, timed by its own clock, must not
      // exceed the benchmark's wall time of the same call and must account
      // for it within the stated tolerance.
      const double engine_ms = s.optimize_ms + s.cache_build_ms + s.compile_ms + s.execute_ms;
      const double gap = s.wall_ms - engine_ms;
      overhead.push_back(gap);
      walls.push_back(s.wall_ms);
      if (engine_ms > s.wall_ms + kSplitSlackMs) {
        checks.Fail("layer split: engine phases " + Num(engine_ms) + " ms exceed wall " +
                    Num(s.wall_ms) + " ms: " + s.step->text);
      }
    }
    if (Median(overhead) > kSplitAbsMs + kSplitRel * Median(walls)) {
      checks.Fail("layer split: the median query leaves " + Num(Median(overhead)) +
                  " ms of " + Num(Median(walls)) + " ms unaccounted");
    }
    // Plug-in opens on the workload's largest raw files, through the
    // public factory, outside any engine.
    auto open_ms = [&](const std::string& format, double* ratio) {
      const Dataset* best = nullptr;
      for (const auto& d : w.datasets) {
        if (d.format != format) continue;
        if (best == nullptr || FileBytes(d.path) > FileBytes(best->path)) {
          best = &d;
        }
      }
      if (best == nullptr) return 0.0;
      std::vector<double> v;
      for (int i = 0; i < 3; ++i) {
        Scoped span(format == "json" ? "plugins.json_open" : "plugins.csv_open");
        const auto t0 = Clock::now();
        auto p = CreateInputPlugin(InfoFor(*best));
        Status st = p.ok() ? (*p)->Open() : p.status();
        v.push_back(MsBetween(t0, Clock::now()));
        if (!st.ok()) checks.Fail("plug-in open failed: " + best->name);
        if (ratio != nullptr && st.ok()) {
          *ratio = static_cast<double>((*p)->StructuralIndexBytes()) /
                   static_cast<double>(std::max<uint64_t>(1, FileBytes(best->path)));
        }
      }
      return Median(v);
    };
    double index_ratio = 0;
    const double json_open = open_ms("json", &index_ratio);
    const double csv_open = open_ms("csv", nullptr);

    // Layers this workload does not exercise in its timed phase get a
    // probe on the same inputs, so every metric is measured everywhere.
    std::vector<double> inv = runner->invalidate_ms();
    if (inv.empty()) {
      for (const auto& d : w.datasets) {
        Scoped span("catalog.invalidate");
        const auto t0 = Clock::now();
        engine.InvalidateDataset(d.name);
        inv.push_back(MsBetween(t0, Clock::now()));
      }
    }
    double cache_mb = static_cast<double>(engine.caches().total_bytes()) / (1 << 20);
    double cache_ratio = timed.empty() ? 0 : static_cast<double>(used_cache) / timed.size();
    if (!cache) {
      EngineOptions opts;
      opts.num_threads = 1;
      opts.cache_policy.enabled = true;
      QueryEngine probe(opts);
      for (const auto& d : w.datasets) (void)probe.RegisterDataset(InfoFor(d));
      const std::string q = w.Param("cache_probe", cold_query);
      uint64_t hits = 0;
      for (int i = 0; i < 4; ++i) {
        QueryTelemetry tel;
        Scoped span("cache.probe_query");
        auto res = RunDirect(probe, q, &tel);
        if (!res.ok()) checks.Fail("cache probe failed: " + q);
        if (tel.cache_build_ms > 0.05) build.push_back(tel.cache_build_ms);
        hits += tel.used_cache ? 1 : 0;
      }
      cache_mb = static_cast<double>(probe.caches().total_bytes()) / (1 << 20);
      cache_ratio = hits / 4.0;
    }
    // The frame protocol: the last round's first queries through a server
    // on the same engine, from one client.
    std::vector<double> serve_overhead;
    {
      serve::QueryServer server(&engine);
      if (!server.Start().ok()) Die("probe server start");
      {
        auto cl = serve::ServeClient::Connect(server.port());
        if (!cl.ok()) Die("probe client connect");
        for (size_t i = 0; i < last_round.size() && i < 24; ++i) {
          Scoped span("serve.roundtrip");
          const auto t0 = Clock::now();
          auto res = cl->Execute(last_round[i].step->text);
          const double wall = MsBetween(t0, Clock::now());
          if (!res.ok() || res->type != serve::FrameType::kResult) {
            checks.Fail("serve probe failed: " + last_round[i].step->text);
            continue;
          }
          const auto& t = res->telemetry;
          serve_overhead.push_back(wall - t.optimize_ms - t.cache_build_ms - t.compile_ms -
                                   t.execute_ms);
        }
      }
      server.Stop();
    }
    const uint64_t lookups = (jit1.hits - jit0.hits) + (jit1.misses - jit0.misses);
    layers = {
        {"parser.parse_ms", "ms", Median(parse)},
        {"optimizer.optimize_ms", "ms", Median(opt)},
        {"plugins.json_open_ms", "ms", json_open},
        {"plugins.csv_open_ms", "ms", csv_open},
        {"plugins.index_bytes_per_input_byte", "ratio", index_ratio},
        {"jit.compile_ms", "ms", Median(compile)},
        {"jit.ir_kb", "KiB", Median(ir_kb)},
        {"jit.compiles", "count", static_cast<double>(jit1.compiles - jit0.compiles)},
        {"jit.cache_hit_ratio", "ratio",
         lookups == 0 ? 0 : static_cast<double>(jit1.hits - jit0.hits) / lookups},
        {"engine.execute_ms", "ms", Median(exec)},
        {"engine.morsels", "count", Median(morsels)},
        {"engine.scan_cache_hit_ratio", "ratio", cache_ratio},
        {"engine.scan_cache_build_ms", "ms", Median(build)},
        {"engine.scan_cache_mb", "MB", cache_mb},
        {"catalog.invalidate_ms", "ms", Median(inv)},
        {"serve.overhead_ms", "ms", Median(serve_overhead)},
        {"machine.calib_ms", "ms", Median(calib)},
    };
    WriteTrace(out_dir);
  }
  runner.reset();

  // Raw samples; the launcher pools them over its processes into the
  // end-to-end metrics.
  auto list = [](std::ostream& o, const std::vector<double>& v) {
    o << "[";
    for (size_t i = 0; i < v.size(); ++i) o << (i ? ", " : "") << Num(v[i]);
    o << "]";
  };
  std::ofstream f(out_dir + "/samples.json");
  f << "{\"correct\": " << (checks.failures.empty() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"setup_s\": " << Num(setup_s)
    << ", \"peak_rss_mb\": " << Num(peak_rss_mb) << ", \"timed_ms\": " << Num(timed_ms)
    << ",\n \"latency_ms\": ";
  list(f, lat);
  f << ",\n \"cold_ms\": ";
  list(f, cold_lat);
  f << ",\n \"calib_ms\": ";
  list(f, calib);
  f << ",\n \"layers\": " << MetricsJson(layers) << "}\n";
  if (!f) Die("cannot write samples to " + out_dir);
  return 0;
}
