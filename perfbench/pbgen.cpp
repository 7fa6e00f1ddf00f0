// Input generator and reference oracle for the perfbench workloads.
//
//   pbgen <workload> <seed> <out-dir>
//
// Draws every input row from the seed, writes the raw files the engine will
// query in situ (newline-delimited JSON, CSV, binary-column directories),
// and computes the expected answer of every query in the workload's script
// with plain loops over the generated rows. It shares no code with the
// engine: the engine process later reads only the files, the manifest and
// the script written here, so the oracle and the system under test reach
// their answers independently.
//
// Outputs in <out-dir>:
//   manifest.txt  datasets, append batches, workload parameters
//   script.txt    rounds of steps: queries with expected answers, appends
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

namespace {

// ---------------------------------------------------------------- rng ----

struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull) {}
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
};

// ------------------------------------------------------------ answers ----

/// One expected result cell. Floats are compared with a relative tolerance
/// by the checker; ints and strings exactly.
struct Cell {
  char kind;  // 'i', 'f', 's'
  int64_t i = 0;
  double f = 0;
  std::string s;
};
Cell I(int64_t v) { return Cell{'i', v, 0, {}}; }
Cell F(double v) { return Cell{'f', 0, v, {}}; }
Cell S(const std::string& v) { return Cell{'s', 0, 0, v}; }

using Rows = std::vector<std::vector<Cell>>;

std::string Encode(const Rows& rows) {
  std::string out;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r != 0) out += ';';
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c != 0) out += ',';
      const Cell& x = rows[r][c];
      char buf[64];
      switch (x.kind) {
        case 'i': snprintf(buf, sizeof(buf), "i%" PRId64, x.i); out += buf; break;
        case 'f': snprintf(buf, sizeof(buf), "f%.17g", x.f); out += buf; break;
        default: out += 's'; out += x.s; break;
      }
    }
  }
  return out.empty() ? "-" : out;
}

// -------------------------------------------------------------- tables ----
// Money-like columns are stored as integer hundredths (or thousandths) and
// written with a fixed number of decimals, so the double the engine parses
// from the text equals the double the oracle divides out here.

struct Line { int64_t ok, ln, qty, price, disc, tax, mode; };
struct Order { int64_t ok, cust, total, prio; };
struct Customer { int64_t ck, nation, bal; };
struct Mail {
  int64_t id, lang, bot, body, score;
  std::string ip;
  int64_t country;
  std::vector<std::pair<int64_t, int64_t>> classes;  // (dim, label)
};
struct Klass { int64_t mail, iter, cls, score, label; };
struct Hist { int64_t mail, day, score, hits; };

const char* kModes[] = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"};
const char* kLangs[] = {"en", "ru", "zh", "es", "de", "fr", "pt"};
const char* kBots[] = {"rustock", "grum", "cutwail", "kelihos", "necurs", "unknown"};
const char* kCountries[] = {"US", "RU", "CN", "BR", "IN", "DE", "NG", "VN"};
const char* kLabels[] = {"phishing", "pharma", "stock", "malware", "dating"};
const char* kNations[] = {"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
                          "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
                          "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO",
                          "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI", "VIETNAM",
                          "RUSSIA", "UK", "USA"};

double C2(int64_t v) { return static_cast<double>(v) / 100.0; }
double C3(int64_t v) { return static_cast<double>(v) / 1000.0; }
std::string D2(int64_t v) { char b[40]; snprintf(b, sizeof(b), "%.2f", C2(v)); return b; }
std::string D3(int64_t v) { char b[40]; snprintf(b, sizeof(b), "%.3f", C3(v)); return b; }

std::vector<Line> GenLines(Rng& rng, int64_t orders) {
  std::vector<Line> out;
  for (int64_t ok = 0; ok < orders; ++ok) {
    const int64_t n = rng.Range(1, 7);
    for (int64_t ln = 1; ln <= n; ++ln) {
      out.push_back({ok, ln, rng.Range(1, 50) * 100, rng.Range(90000, 10500000),
                     rng.Range(0, 10), rng.Range(0, 8), rng.Range(0, 4)});
    }
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Next() % i]);
  return out;
}

std::vector<Order> GenOrders(Rng& rng, int64_t orders, int64_t customers) {
  std::vector<Order> out;
  for (int64_t ok = 0; ok < orders; ++ok) {
    out.push_back({ok, rng.Range(0, customers - 1), rng.Range(100000, 50000000),
                   rng.Range(0, 4)});
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Next() % i]);
  return out;
}

std::vector<Customer> GenCustomers(Rng& rng, int64_t n) {
  std::vector<Customer> out;
  for (int64_t ck = 0; ck < n; ++ck) {
    out.push_back({ck, rng.Range(0, 24), rng.Range(-99999, 999999)});
  }
  return out;
}

std::vector<Mail> GenMails(Rng& rng, int64_t first_id, int64_t n) {
  std::vector<Mail> out;
  for (int64_t id = first_id; id < first_id + n; ++id) {
    Mail m{id, rng.Range(0, 6), rng.Range(0, 5), rng.Range(40, 9000), rng.Range(0, 1000),
           {}, rng.Range(0, 7), {}};
    m.ip = std::to_string(rng.Range(1, 254)) + "." + std::to_string(rng.Range(1, 254)) + "." +
           std::to_string(rng.Range(1, 254)) + "." + std::to_string(rng.Range(1, 254));
    const int64_t k = rng.Range(1, 4);
    for (int64_t j = 0; j < k; ++j) m.classes.push_back({j % 5, rng.Range(0, 31)});
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Klass> GenKlasses(Rng& rng, const std::vector<Mail>& mails) {
  std::vector<Klass> out;
  for (const Mail& m : mails) {
    const int64_t n = rng.Range(1, 3);
    for (int64_t it = 0; it < n; ++it) {
      out.push_back({m.id, it, rng.Range(0, 63), rng.Range(0, 1000), rng.Range(0, 4)});
    }
  }
  return out;
}

std::vector<Hist> GenHist(Rng& rng, int64_t mails, int64_t rows) {
  std::vector<Hist> out;
  for (int64_t i = 0; i < rows; ++i) {
    out.push_back({rng.Range(0, mails - 1), rng.Range(0, 364), rng.Range(0, 1000),
                   rng.Range(1, 500)});
  }
  return out;
}

// ------------------------------------------------------------- writers ----

std::string g_dir;

void Die(const std::string& msg) {
  fprintf(stderr, "pbgen: %s\n", msg.c_str());
  exit(1);
}

void WriteFile(const std::string& rel, const std::string& bytes) {
  std::ofstream f(g_dir + "/" + rel, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) Die("cannot write " + rel);
}

/// A JSON object from (key, value-text) pairs, in the order given.
std::string Obj(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string o = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) o += ", ";
    o += "\"" + kv[i].first + "\": " + kv[i].second;
  }
  return o + "}";
}
std::string Q(const std::string& s) { return "\"" + s + "\""; }

/// Fisher-Yates over the field order: raw JSON from outside sources has no
/// fixed key order, which the JSON plug-in must handle.
void Shuffle(Rng& rng, std::vector<std::pair<std::string, std::string>>* kv) {
  for (size_t i = kv->size(); i > 1; --i) std::swap((*kv)[i - 1], (*kv)[rng.Next() % i]);
}

std::string LinesJSON(Rng& rng, const std::vector<Line>& ls) {
  std::string out;
  for (const Line& l : ls) {
    std::vector<std::pair<std::string, std::string>> kv{
        {"l_orderkey", std::to_string(l.ok)}, {"l_linenumber", std::to_string(l.ln)},
        {"l_quantity", D2(l.qty)},           {"l_extendedprice", D2(l.price)},
        {"l_discount", D2(l.disc)},          {"l_tax", D2(l.tax)},
        {"l_shipmode", Q(kModes[l.mode])}};
    Shuffle(rng, &kv);
    out += Obj(kv) + "\n";
  }
  return out;
}

std::string LinesCSV(const std::vector<Line>& ls) {
  std::string out;
  for (const Line& l : ls) {
    out += std::to_string(l.ok) + "," + std::to_string(l.ln) + "," + D2(l.qty) + "," +
           D2(l.price) + "," + D2(l.disc) + "," + D2(l.tax) + "," + kModes[l.mode] + "\n";
  }
  return out;
}

std::string OrdersJSON(const std::vector<Order>& os) {
  std::string out;
  for (const Order& o : os) {
    out += Obj({{"o_orderkey", std::to_string(o.ok)}, {"o_custkey", std::to_string(o.cust)},
                {"o_totalprice", D2(o.total)}, {"o_shippriority", std::to_string(o.prio)}}) +
           "\n";
  }
  return out;
}

std::string DenormJSON(const std::vector<Order>& os, const std::vector<Line>& ls) {
  std::map<int64_t, std::vector<const Line*>> by;
  for (const Line& l : ls) by[l.ok].push_back(&l);
  std::string out;
  for (const Order& o : os) {
    std::string arr = "[";
    const auto& v = by[o.ok];
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) arr += ", ";
      arr += Obj({{"l_linenumber", std::to_string(v[i]->ln)},
                  {"l_quantity", D2(v[i]->qty)},
                  {"l_extendedprice", D2(v[i]->price)}});
    }
    out += Obj({{"o_orderkey", std::to_string(o.ok)}, {"o_custkey", std::to_string(o.cust)},
                {"o_totalprice", D2(o.total)}, {"lineitems", arr + "]"}}) +
           "\n";
  }
  return out;
}

std::string CustomersCSV(const std::vector<Customer>& cs) {
  std::string out;
  for (const Customer& c : cs) {
    out += std::to_string(c.ck) + "," + std::to_string(c.nation) + "," + D2(c.bal) + "\n";
  }
  return out;
}

std::string NationsJSON() {
  std::string out;
  for (int64_t n = 0; n < 25; ++n) {
    out += Obj({{"n_nationkey", std::to_string(n)}, {"n_regionkey", std::to_string(n % 5)},
                {"n_name", Q(kNations[n])}}) +
           "\n";
  }
  return out;
}

std::string MailsJSON(Rng& rng, const std::vector<Mail>& ms) {
  std::string out;
  for (const Mail& m : ms) {
    std::string cls = "[";
    for (size_t j = 0; j < m.classes.size(); ++j) {
      if (j != 0) cls += ", ";
      cls += Obj({{"dim", Q(kLabels[m.classes[j].first])},
                  {"label", std::to_string(m.classes[j].second)}});
    }
    std::vector<std::pair<std::string, std::string>> kv{
        {"mail_id", std::to_string(m.id)},
        {"lang", Q(kLangs[m.lang])},
        {"bot", Q(kBots[m.bot])},
        {"body_len", std::to_string(m.body)},
        {"score", D3(m.score)},
        {"origin", Obj({{"ip", Q(m.ip)}, {"country", Q(kCountries[m.country])}})},
        {"classes", cls + "]"}};
    Shuffle(rng, &kv);
    out += Obj(kv) + "\n";
  }
  return out;
}

std::string KlassesCSV(const std::vector<Klass>& ks) {
  std::string out;
  for (const Klass& k : ks) {
    out += std::to_string(k.mail) + "," + std::to_string(k.iter) + "," + std::to_string(k.cls) +
           "," + D3(k.score) + "," + kLabels[k.label] + "\n";
  }
  return out;
}

/// Binary-column directory: manifest.txt plus one raw little-endian array
/// per column (int64 or float64), the engine's "bincol" layout.
struct BinCol {
  std::string name;
  bool is_float;
  std::vector<double> f;
  std::vector<int64_t> i;
};
void WriteBinCol(const std::string& rel, size_t rows, const std::vector<BinCol>& cols) {
  if (::mkdir((g_dir + "/" + rel).c_str(), 0755) != 0) Die("mkdir " + rel);
  std::string manifest = "proteus-bincol 1\nrows " + std::to_string(rows) + "\n";
  for (const BinCol& c : cols) {
    manifest += "col " + c.name + (c.is_float ? " float64\n" : " int64\n");
    std::string bytes = c.is_float
        ? std::string(reinterpret_cast<const char*>(c.f.data()), c.f.size() * 8)
        : std::string(reinterpret_cast<const char*>(c.i.data()), c.i.size() * 8);
    WriteFile(rel + "/" + c.name + ".bin", bytes);
  }
  WriteFile(rel + "/manifest.txt", manifest);
}
BinCol IntCol(const std::string& name, std::vector<int64_t> v) {
  return BinCol{name, false, {}, std::move(v)};
}
BinCol FloatCol(const std::string& name, std::vector<double> v) {
  return BinCol{name, true, std::move(v), {}};
}

void WriteOrdersBinCol(const std::vector<Order>& os) {
  std::vector<int64_t> key, cust, prio;
  std::vector<double> total;
  for (const Order& o : os) {
    key.push_back(o.ok);
    cust.push_back(o.cust);
    prio.push_back(o.prio);
    total.push_back(C2(o.total));
  }
  WriteBinCol("orders.bincol", os.size(),
              {IntCol("o_orderkey", key), IntCol("o_custkey", cust),
               FloatCol("o_totalprice", total), IntCol("o_shippriority", prio)});
}

// ------------------------------------------------------------- script ----

std::ostringstream g_manifest, g_script;

/// `kind` names the schema the engine registers the file with.
void Dataset(const std::string& name, const std::string& kind, const std::string& format,
             const std::string& rel, size_t rows, const std::string& group_col) {
  g_manifest << "dataset\t" << name << "\t" << kind << "\t" << format << "\t" << rel << "\t"
             << rows << "\t" << group_col << "\n";
}
void Param(const std::string& k, const std::string& v) {
  g_manifest << "param\t" << k << "\t" << v << "\n";
}
void Round(int r) { g_script << "round\t" << r << "\n"; }
void Query(const std::string& text, const Rows& expected) {
  g_script << "q\t" << text << "\t" << Encode(expected) << "\n";
}

// Aggregation helpers over plain vectors.
struct Agg {
  int64_t count = 0;
  double sum = 0;
  double max = -1e300;
  double min = 1e300;
  void Add(double v) {
    ++count;
    sum += v;
    max = std::max(max, v);
    min = std::min(min, v);
  }
};

// ------------------------------------------------------------- adhoc ----
// Binary-column lineitem/orders, a small CSV customer table and a tiny
// JSON nation table. Every query carries a fresh literal, so each one is a
// new compiled-query cache key.

void Adhoc(uint64_t seed) {
  Rng rng(seed);
  const int64_t orders = 5000, customers = 2000;
  auto lines = GenLines(rng, orders);
  auto ords = GenOrders(rng, orders, customers);
  auto custs = GenCustomers(rng, customers);

  {
    std::vector<int64_t> ok, ln, mode;
    std::vector<double> qty, price, disc;
    for (const Line& l : lines) {
      ok.push_back(l.ok);
      ln.push_back(l.ln);
      mode.push_back(l.mode);
      qty.push_back(C2(l.qty));
      price.push_back(C2(l.price));
      disc.push_back(C2(l.disc));
    }
    WriteBinCol("lineitem.bincol", lines.size(),
                {IntCol("l_orderkey", ok), IntCol("l_linenumber", ln), FloatCol("l_quantity", qty),
                 FloatCol("l_extendedprice", price), FloatCol("l_discount", disc),
                 IntCol("l_shipmode", mode)});
  }
  WriteOrdersBinCol(ords);
  WriteFile("customer.csv", CustomersCSV(custs));
  WriteFile("nation.json", NationsJSON());
  Dataset("lineitem", "lineitem_bin", "bincol", "lineitem.bincol", lines.size(), "l_linenumber");
  Dataset("orders", "orders", "bincol", "orders.bincol", ords.size(), "o_shippriority");
  Dataset("customer", "customer", "csv", "customer.csv", custs.size(), "c_nation");
  Dataset("nation", "nation", "json", "nation.json", 25, "n_regionkey");
  Param("warm_rounds", "1");
  Param("cold", "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < 25.0");
  // Binary inputs are never scan-cached; the caching probe reads the CSV.
  Param("cache_probe",
        "SELECT c_nation, count(*) FROM customer WHERE c_acctbal > 100.00 GROUP BY c_nation");

  std::map<int64_t, const Order*> order_by_key;
  for (const Order& o : ords) order_by_key[o.ok] = &o;
  std::map<int64_t, const Customer*> cust_by_key;
  for (const Customer& c : custs) cust_by_key[c.ck] = &c;

  // 60 rounds x 9 templates; pbrun cycles through them, so a run
  // never repeats a literal before the compiled-query cache (32 entries)
  // has long evicted it. An odd template count keeps the median inside one
  // template's cluster of latencies instead of between two.
  const int kRounds = 60;
  for (int r = 0; r < kRounds; ++r) {
    Round(r);
    {  // A1 selection aggregate on a float range
      const int64_t q = rng.Range(300, 4900);
      Agg a;
      for (const Line& l : lines) if (C2(l.qty) < C2(q)) a.Add(C2(l.price));
      Query("SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < " + D2(q),
            {{I(a.count), F(a.sum)}});
    }
    {  // A2 group-by over a key range
      const int64_t k = rng.Range(200, orders - 1);
      std::map<int64_t, Agg> g;
      for (const Line& l : lines) if (l.ok < k) g[l.ln].Add(C2(l.qty));
      Rows rows;
      for (auto& [key, a] : g) rows.push_back({I(key), I(a.count), F(a.max)});
      Query("SELECT l_linenumber, count(*), max(l_quantity) FROM lineitem WHERE l_orderkey < " +
                   std::to_string(k) + " GROUP BY l_linenumber",
            rows);
    }
    {  // A3 binary join with predicates on both sides
      const int64_t q = rng.Range(100, 4000), k = rng.Range(500, orders - 1);
      Agg a;
      for (const Line& l : lines) {
        if (!(C2(l.qty) > C2(q)) || l.ok >= k) continue;
        a.Add(C2(order_by_key[l.ok]->total));
      }
      Query("SELECT count(*), sum(o.o_totalprice) FROM orders o JOIN lineitem l ON "
               "o.o_orderkey = l.l_orderkey WHERE l.l_quantity > " + D2(q) +
                   " and o.o_orderkey < " + std::to_string(k),
            {{I(a.count), F(a.sum)}});
    }
    {  // A4 group-by on orders
      const int64_t c = rng.Range(100, customers - 1);
      std::map<int64_t, Agg> g;
      for (const Order& o : ords) if (o.cust < c) g[o.prio].Add(C2(o.total));
      Rows rows;
      for (auto& [key, a] : g) rows.push_back({I(key), I(a.count), F(a.sum)});
      Query("SELECT o_shippriority, count(*), sum(o_totalprice) FROM orders WHERE o_custkey < " +
                   std::to_string(c) + " GROUP BY o_shippriority",
            rows);
    }
    {  // A5 CSV x binary join
      const int64_t p = rng.Range(1000000, 45000000);
      Agg a;
      for (const Order& o : ords) {
        if (!(C2(o.total) > C2(p))) continue;
        a.Add(C2(cust_by_key[o.cust]->bal));
      }
      Query("SELECT count(*), max(c.c_acctbal) FROM customer c JOIN orders o ON "
               "c.c_custkey = o.o_custkey WHERE o.o_totalprice > " + D2(p),
            {{I(a.count), F(a.max)}});
    }
    {  // A6 CSV group-by
      const int64_t b = rng.Range(-90000, 800000);
      std::map<int64_t, Agg> g;
      for (const Customer& c : custs) if (C2(c.bal) > C2(b)) g[c.nation].Add(0);
      Rows rows;
      for (auto& [key, a] : g) rows.push_back({I(key), I(a.count)});
      Query("SELECT c_nation, count(*) FROM customer WHERE c_acctbal > " + D2(b) +
                   " GROUP BY c_nation",
            rows);
    }
    {  // A7 JSON x CSV join
      const int64_t reg = rng.Range(0, 4), b = rng.Range(0, 999999);
      Agg a;
      for (const Customer& c : custs) {
        if (c.nation % 5 == reg && C2(c.bal) < C2(b)) a.Add(C2(c.bal));
      }
      Query("SELECT count(*), sum(c.c_acctbal) FROM nation n JOIN customer c ON "
               "n.n_nationkey = c.c_nation WHERE n.n_regionkey = " + std::to_string(reg) +
                   " and c.c_acctbal < " + D2(b),
            {{I(a.count), F(a.sum)}});
    }
    {  // A8 multi-predicate selection
      const int64_t m = rng.Range(0, 4), k = rng.Range(0, orders - 500);
      Agg a;
      for (const Line& l : lines) if (l.mode == m && l.ok > k) a.Add(C2(l.disc));
      Query("SELECT count(*), min(l_discount) FROM lineitem WHERE l_shipmode = " +
                   std::to_string(m) + " and l_orderkey > " + std::to_string(k),
            {{I(a.count), F(a.min)}});
    }
    {  // A9 group-by on a binary column with a float predicate
      const int64_t p = rng.Range(200000, 9000000);
      std::map<int64_t, Agg> g;
      for (const Line& l : lines) if (C2(l.price) > C2(p)) g[l.mode].Add(C2(l.disc));
      Rows rows;
      for (auto& [key, a] : g) rows.push_back({I(key), I(a.count), F(a.sum)});
      Query("SELECT l_shipmode, count(*), sum(l_discount) FROM lineitem "
               "WHERE l_extendedprice > " + D2(p) + " GROUP BY l_shipmode",
            rows);
    }
  }
}

// ---------------------------------------------------------- dashboard ----
// Raw JSON and CSV lineitem/orders plus a denormalized JSON orders file
// with nested lineitems; one fixed report set repeated with identical text.

struct Dash {
  std::vector<Line> lines;
  std::vector<Order> ords;
  std::vector<std::pair<std::string, Rows>> queries;
};

Dash DashboardData(uint64_t seed, int64_t orders) {
  Rng rng(seed);
  Dash d;
  d.lines = GenLines(rng, orders);
  d.ords = GenOrders(rng, orders, orders / 10 + 1);
  WriteFile("lineitem.json", LinesJSON(rng, d.lines));
  WriteFile("lineitem.csv", LinesCSV(d.lines));
  WriteFile("orders.json", OrdersJSON(d.ords));
  WriteFile("denorm.json", DenormJSON(d.ords, d.lines));
  WriteOrdersBinCol(d.ords);
  Dataset("lineitem_json", "lineitem", "json", "lineitem.json", d.lines.size(), "l_linenumber");
  Dataset("lineitem_csv", "lineitem", "csv", "lineitem.csv", d.lines.size(), "l_shipmode");
  Dataset("orders_json", "orders", "json", "orders.json", d.ords.size(), "o_shippriority");
  Dataset("orders_bin", "orders", "bincol", "orders.bincol", d.ords.size(), "o_shippriority");
  Dataset("orders_denorm", "denorm", "json", "denorm.json", d.ords.size(), "o_custkey");

  std::map<int64_t, const Order*> by_key;
  for (const Order& o : d.ords) by_key[o.ok] = &o;
  // Literals vary with the seed only a little around fixed selectivities,
  // so every seed's report set does about the same work.
  const int64_t k1 = orders / 2 + rng.Range(-orders / 100, orders / 100);
  const int64_t q3 = rng.Range(1001, 1099), p4 = rng.Range(0, 4);
  const int64_t disc5 = 5, q6 = rng.Range(3901, 3999);
  const int64_t c7 = orders / 20 + rng.Range(-orders / 400, orders / 400);
  const int64_t k8 = orders / 2 + rng.Range(-orders / 100, orders / 100), d9 = 8;
  {
    Agg a, m;
    for (const Line& l : d.lines) {
      if (l.ok < k1) {
        a.Add(C2(l.price));
        m.Add(C2(l.qty));
      }
    }
    d.queries.push_back({"SELECT count(*), sum(l_extendedprice), max(l_quantity) "
                         "FROM lineitem_json WHERE l_orderkey < " + std::to_string(k1),
                         {{I(a.count), F(a.sum), F(m.max)}}});
  }
  {
    std::map<int64_t, Agg> g;
    for (const Line& l : d.lines) g[l.ln].Add(C2(l.qty));
    Rows rows;
    for (auto& [key, a] : g) rows.push_back({I(key), I(a.count), F(a.sum)});
    d.queries.push_back({"SELECT l_linenumber, count(*), sum(l_quantity) FROM lineitem_json "
                         "GROUP BY l_linenumber", rows});
  }
  {
    Agg a;
    for (const Line& l : d.lines) if (C2(l.qty) < C2(q3)) a.Add(C2(by_key[l.ok]->total));
    d.queries.push_back({"SELECT count(*), sum(o.o_totalprice) FROM orders_json o "
                         "JOIN lineitem_json l ON o.o_orderkey = l.l_orderkey "
                         "WHERE l.l_quantity < " + D2(q3),
                         {{I(a.count), F(a.sum)}}});
  }
  {
    Agg a;
    for (const Line& l : d.lines) if (by_key[l.ok]->prio == p4) a.Add(C2(l.price));
    d.queries.push_back({"SELECT count(*), max(l.l_extendedprice) FROM orders_bin o "
                         "JOIN lineitem_json l ON o.o_orderkey = l.l_orderkey "
                         "WHERE o.o_shippriority = " +
                             std::to_string(p4),
                         {{I(a.count), F(a.max)}}});
  }
  {
    std::map<std::string, Agg> g;
    for (const Line& l : d.lines) if (C2(l.disc) < C2(disc5)) g[kModes[l.mode]].Add(0);
    Rows rows;
    for (auto& [key, a] : g) rows.push_back({S(key), I(a.count)});
    d.queries.push_back({"SELECT l_shipmode, count(*) FROM lineitem_csv WHERE l_discount < " +
                             D2(disc5) + " GROUP BY l_shipmode", rows});
  }
  {
    Agg a;
    for (const Line& l : d.lines) if (C2(l.qty) > C2(q6)) a.Add(0);
    d.queries.push_back({"SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l "
                         "WHERE l.l_quantity > " + D2(q6),
                         {{I(a.count)}}});
  }
  {
    std::map<int64_t, Agg> g;
    for (const Order& o : d.ords) if (o.cust < c7) g[o.prio].Add(C2(o.total));
    Rows rows;
    for (auto& [key, a] : g) rows.push_back({I(key), I(a.count), F(a.sum)});
    d.queries.push_back({"SELECT o_shippriority, count(*), sum(o_totalprice) FROM orders_json "
                         "WHERE o_custkey < " + std::to_string(c7) + " GROUP BY o_shippriority",
                         rows});
  }
  {
    Agg a;
    for (const Line& l : d.lines) if (l.ok < k8) a.Add(C2(l.tax));
    d.queries.push_back({"SELECT count(*), sum(l_tax) FROM lineitem_csv WHERE l_orderkey < " +
                             std::to_string(k8),
                         {{I(a.count), F(a.sum)}}});
  }
  {
    std::map<int64_t, Agg> g;
    for (const Line& l : d.lines) if (C2(l.disc) > C2(d9)) g[by_key[l.ok]->prio].Add(0);
    Rows rows;
    for (auto& [key, a] : g) rows.push_back({I(key), I(a.count)});
    d.queries.push_back({"SELECT o.o_shippriority, count(*) FROM orders_json o JOIN lineitem_csv l "
                         "ON o.o_orderkey = l.l_orderkey WHERE l.l_discount > " + D2(d9) +
                             " GROUP BY o.o_shippriority",
                         rows});
  }
  return d;
}

void Dashboard(uint64_t seed) {
  Dash d = DashboardData(seed, 6000);
  Param("warm_rounds", "2");
  Param("cold", d.queries[0].first);
  Round(0);
  for (const auto& [text, rows] : d.queries) Query(text, rows);
}

// -------------------------------------------------------------- ingest ----
// Three silos: nested JSON mails, CSV classifications, binary history.
// A round restores the base files, then alternates a query session with
// appended batches of new mails (and their classifications).

void Ingest(uint64_t seed) {
  Rng rng(seed);
  const int64_t base_mails = 3000, batch_mails = 400, batches = 3;
  std::vector<Mail> mails = GenMails(rng, 0, base_mails);
  std::vector<Klass> klasses = GenKlasses(rng, mails);
  const auto hist = GenHist(rng, base_mails + batch_mails * batches, 5000);
  WriteFile("mails.base.json", MailsJSON(rng, mails));
  WriteFile("classes.base.csv", KlassesCSV(klasses));
  // The live files are restored from the base copies at the start of each round.
  WriteFile("mails.json", "");
  WriteFile("classes.csv", "");
  {
    std::vector<int64_t> id, day, hits;
    std::vector<double> score;
    for (const Hist& h : hist) {
      id.push_back(h.mail);
      day.push_back(h.day);
      hits.push_back(h.hits);
      score.push_back(C3(h.score));
    }
    WriteBinCol("history.bincol", hist.size(),
                {IntCol("mail_id", id), IntCol("day", day), FloatCol("spam_score", score),
                 IntCol("hits", hits)});
  }
  Dataset("mails", "mails", "json", "mails.json", mails.size(), "lang");
  Dataset("classes", "classes", "csv", "classes.csv", klasses.size(), "label");
  Dataset("history", "history", "bincol", "history.bincol", hist.size(), "day");
  g_manifest << "base\tmails\tmails.base.json\n";
  g_manifest << "base\tclasses\tclasses.base.csv\n";
  Param("warm_rounds", "1");
  Param("cache", "1");

  const int64_t body1 = rng.Range(1000, 6000), label2 = rng.Range(5, 25);
  const int64_t hs4 = rng.Range(200, 800), sa4 = rng.Range(200, 800);
  const int64_t score5 = rng.Range(100, 900), body6 = rng.Range(500, 8000);
  const int64_t day7 = rng.Range(50, 300);
  auto session = [&]() {
    std::map<int64_t, const Mail*> mail_by;
    for (const Mail& m : mails) mail_by[m.id] = &m;
    std::map<int64_t, int64_t> klass_count;
    for (const Klass& k : klasses) ++klass_count[k.mail];
    Query("SELECT count(*) FROM mails", {{I(static_cast<int64_t>(mails.size()))}});
    Query("SELECT count(*) FROM classes", {{I(static_cast<int64_t>(klasses.size()))}});
    {
      Agg a;
      for (const Mail& m : mails) if (m.body > body1) a.Add(C3(m.score));
      Query("SELECT count(*), max(score) FROM mails WHERE body_len > " + std::to_string(body1),
            {{I(a.count), F(a.max)}});
    }
    {
      int64_t n = 0;
      for (const Mail& m : mails) for (auto& c : m.classes) n += c.second > label2;
      Query("for { m <- mails, k <- m.classes, k.label > " + std::to_string(label2) +
                   " } yield count",
            {{I(n)}});
    }
    {
      std::map<std::string, int64_t> g;
      for (const Klass& k : klasses) ++g[kLabels[k.label]];
      Rows rows;
      for (auto& [key, n] : g) rows.push_back({S(key), I(n)});
      Query("SELECT label, count(*) FROM classes GROUP BY label", rows);
    }
    {
      std::map<int64_t, int64_t> passing;  // mail -> classification rows with score_a > sa4
      for (const Klass& k : klasses) if (C3(k.score) > C3(sa4)) ++passing[k.mail];
      int64_t n = 0;
      for (const Hist& h : hist) {
        if (!(C3(h.score) > C3(hs4))) continue;
        auto it = passing.find(h.mail);
        if (it != passing.end()) n += it->second;
      }
      Query("SELECT count(*) FROM history h JOIN classes c ON h.mail_id = c.mail_id WHERE "
               "h.spam_score > " + D3(hs4) + " and c.score_a > " + D3(sa4),
            {{I(n)}});
    }
    {
      std::map<std::string, int64_t> g;
      for (const Mail& m : mails) if (C3(m.score) > C3(score5)) ++g[kBots[m.bot]];
      Rows rows;
      for (auto& [key, n] : g) rows.push_back({S(key), I(n)});
      Query("SELECT bot, count(*) FROM mails WHERE score > " + D3(score5) + " GROUP BY bot",
            rows);
    }
    {
      int64_t n = 0;
      for (const Hist& h : hist) {
        auto it = mail_by.find(h.mail);
        if (it != mail_by.end() && it->second->body > body6) ++n;
      }
      Query("SELECT count(*) FROM history h JOIN mails m ON h.mail_id = m.mail_id WHERE "
               "m.body_len > " + std::to_string(body6),
            {{I(n)}});
    }
    {
      Agg a;
      for (const Hist& h : hist) if (h.day < day7) a.Add(C3(h.score));
      Query("SELECT count(*), sum(spam_score) FROM history WHERE day < " + std::to_string(day7),
            {{I(a.count), F(a.sum)}});
    }
  };

  Round(0);
  g_script << "restore\n";
  session();
  for (int64_t b = 1; b <= batches; ++b) {
    auto fresh = GenMails(rng, base_mails + (b - 1) * batch_mails, batch_mails);
    auto fresh_k = GenKlasses(rng, fresh);
    const std::string mj = "mails.batch" + std::to_string(b) + ".json";
    const std::string kc = "classes.batch" + std::to_string(b) + ".csv";
    WriteFile(mj, MailsJSON(rng, fresh));
    WriteFile(kc, KlassesCSV(fresh_k));
    g_manifest << "batch\t" << b << "\tmails\t" << mj << "\t" << fresh.size() << "\n";
    g_manifest << "batch\t" << b << "\tclasses\t" << kc << "\t" << fresh_k.size() << "\n";
    mails.insert(mails.end(), fresh.begin(), fresh.end());
    klasses.insert(klasses.end(), fresh_k.begin(), fresh_k.end());
    g_script << "append\t" << b << "\n";
    session();
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) Die("usage: pbgen <adhoc|dashboard|ingest> <seed> <out-dir>");
  const std::string workload = argv[1];
  const uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  g_dir = argv[3];
  if (workload == "adhoc") {
    Adhoc(seed);
  } else if (workload == "dashboard") {
    Dashboard(seed);
  } else if (workload == "ingest") {
    Ingest(seed);
  } else {
    Die("unknown workload " + workload);
  }
  WriteFile("manifest.txt", g_manifest.str());
  WriteFile("script.txt", g_script.str());
  return 0;
}
