// Reference comparison for the README: the dashboard report queries on the
// engine (warm, generated code over the raw files) against the in-repo
// document-store baselines loaded with the same rows.
//
//   pbbase <dashboard-data-dir> [reps]
//
// The data directory is one that `pbgen dashboard <seed> <dir>` wrote.
// RowStore_jsonb is baselines::RowStoreEngine over jsonb-like documents,
// DocStore_bson is baselines::DocStoreEngine over BSON-like documents; both
// load the rows up front (their load time is reported separately), while the
// engine queries the files in situ. Prints one line per query: the median
// wall time of `reps` executions on each system.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/core/query_engine.h"

using namespace proteus;
using Clock = std::chrono::steady_clock;

namespace {

[[noreturn]] void Die(const std::string& msg) {
  fprintf(stderr, "pbbase: %s\n", msg.c_str());
  exit(2);
}

double MedianMs(int reps, const std::function<void()>& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    v.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (char c : s) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

/// The numeric value after `"key": ` in one JSON line pbgen wrote.
double JsonNumber(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) Die("no " + key + " in " + line);
  return std::strtod(line.c_str() + at + key.size() + 4, nullptr);
}

double LastNumber(const std::string& text) {
  const size_t at = text.find_last_of(' ');
  return std::strtod(text.c_str() + at + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pbbase <dashboard-data-dir> [reps]");
  const std::string dir = argv[1];
  const int reps = argc > 2 ? std::atoi(argv[2]) : 7;

  // Rows, read back from the files pbgen wrote.
  TypePtr line_t = Type::Record({{"l_orderkey", Type::Int64()},
                                 {"l_linenumber", Type::Int64()},
                                 {"l_quantity", Type::Float64()},
                                 {"l_extendedprice", Type::Float64()}});
  TypePtr order_t = Type::Record({{"o_orderkey", Type::Int64()},
                                  {"o_custkey", Type::Int64()},
                                  {"o_totalprice", Type::Float64()},
                                  {"o_shippriority", Type::Int64()}});
  RowTable lineitem(line_t), orders(order_t);
  std::map<int64_t, ValueList> lines_of;
  {
    std::ifstream f(dir + "/lineitem.csv");
    std::string l;
    while (std::getline(f, l)) {
      auto c = SplitOn(l, ',');
      std::vector<Value> row{Value::Int(std::stoll(c[0])), Value::Int(std::stoll(c[1])),
                             Value::Float(std::stod(c[2])), Value::Float(std::stod(c[3]))};
      lines_of[row[0].i()].push_back(
          Value::MakeRecord({"l_linenumber", "l_quantity", "l_extendedprice"},
                            {row[1], row[2], row[3]}));
      lineitem.Append(std::move(row));
    }
    std::ifstream g(dir + "/orders.json");
    while (std::getline(g, l)) {
      orders.Append({Value::Int(static_cast<int64_t>(JsonNumber(l, "o_orderkey"))),
                     Value::Int(static_cast<int64_t>(JsonNumber(l, "o_custkey"))),
                     Value::Float(JsonNumber(l, "o_totalprice")),
                     Value::Int(static_cast<int64_t>(JsonNumber(l, "o_shippriority")))});
    }
  }
  if (lineitem.num_rows() == 0 || orders.num_rows() == 0) Die("no rows under " + dir);
  TypePtr denorm_t = Type::Record(
      {{"o_orderkey", Type::Int64()},
       {"lineitems", Type::Collection(CollectionKind::kArray, line_t)}});
  RowTable denorm(denorm_t);
  for (const auto& row : orders.rows()) {
    denorm.Append({row[0], Value::MakeList(lines_of[row[0].i()])});
  }

  // The report queries, with the literals of this data directory's script.
  std::vector<std::string> texts;
  {
    std::ifstream f(dir + "/script.txt");
    std::string l;
    while (std::getline(f, l)) {
      auto c = SplitOn(l, '\t');
      if (c[0] == "q") texts.push_back(c[2]);
    }
  }
  if (texts.size() < 7) Die("not a dashboard script under " + dir);
  using baselines::AggKind;
  struct Case {
    const char* name;
    size_t text;  // index into the script's report set
    baselines::BenchQuery q;
  };
  std::vector<Case> cases;
  {
    baselines::BenchQuery q;
    q.table = "lineitem";
    q.where = {{"l_orderkey", '<', LastNumber(texts[0])}};
    q.aggs = {{AggKind::kCount, ""}, {AggKind::kSum, "l_extendedprice"},
              {AggKind::kMax, "l_quantity"}};
    cases.push_back({"selection aggregate", 0, q});
  }
  {
    baselines::BenchQuery q;
    q.table = "lineitem";
    q.group_by = "l_linenumber";
    q.aggs = {{AggKind::kCount, ""}, {AggKind::kSum, "l_quantity"}};
    cases.push_back({"group-by", 1, q});
  }
  {
    baselines::BenchQuery q;
    q.table = "lineitem";
    q.where = {{"l_quantity", '<', LastNumber(texts[2])}};
    q.join_table = "orders";
    q.probe_key = "l_orderkey";
    q.build_key = "o_orderkey";
    q.aggs = {{AggKind::kCount, ""}};
    q.build_aggs = {{AggKind::kSum, "o_totalprice"}};
    cases.push_back({"join", 2, q});
  }
  {
    baselines::BenchQuery q;
    q.table = "denorm";
    q.unnest_path = "lineitems";
    q.unnest_where = {{"l_quantity", '>', LastNumber(texts[5])}};
    q.aggs = {{AggKind::kCount, ""}};
    cases.push_back({"unnest", 5, q});
  }

  baselines::RowStoreEngine jsonb;
  baselines::DocStoreEngine bson;
  const auto t0 = Clock::now();
  if (!jsonb.LoadDocuments("lineitem", lineitem).ok() ||
      !jsonb.LoadDocuments("orders", orders).ok() || !jsonb.LoadDocuments("denorm", denorm).ok()) {
    Die("jsonb load failed");
  }
  const double jsonb_load = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const auto t1 = Clock::now();
  if (!bson.LoadDocuments("lineitem", lineitem).ok() ||
      !bson.LoadDocuments("orders", orders).ok() || !bson.LoadDocuments("denorm", denorm).ok()) {
    Die("bson load failed");
  }
  const double bson_load = std::chrono::duration<double, std::milli>(Clock::now() - t1).count();

  EngineOptions opts;
  opts.num_threads = 1;
  QueryEngine engine(opts);
  auto reg = [&](const char* name, DataFormat f, const std::string& file, TypePtr rec) {
    DatasetInfo info;
    info.name = name;
    info.format = f;
    info.path = dir + "/" + file;
    info.type = Type::Collection(CollectionKind::kBag, rec);
    if (!engine.RegisterDataset(info).ok()) Die(std::string("register ") + name);
  };
  reg("lineitem_json", DataFormat::kJSON, "lineitem.json",
      Type::Record({{"l_orderkey", Type::Int64()}, {"l_linenumber", Type::Int64()},
                    {"l_quantity", Type::Float64()}, {"l_extendedprice", Type::Float64()},
                    {"l_discount", Type::Float64()}, {"l_tax", Type::Float64()},
                    {"l_shipmode", Type::String()}}));
  reg("orders_json", DataFormat::kJSON, "orders.json", order_t);
  TypePtr nested_line = Type::Record({{"l_linenumber", Type::Int64()},
                                      {"l_quantity", Type::Float64()},
                                      {"l_extendedprice", Type::Float64()}});
  reg("orders_denorm", DataFormat::kJSON, "denorm.json",
      Type::Record({{"o_orderkey", Type::Int64()}, {"o_custkey", Type::Int64()},
                    {"o_totalprice", Type::Float64()},
                    {"lineitems", Type::Collection(CollectionKind::kArray, nested_line)}}));

  printf("rows: lineitem %zu, orders %zu; load ms: RowStore_jsonb %.1f, DocStore_bson %.1f\n",
         lineitem.num_rows(), orders.num_rows(), jsonb_load, bson_load);
  printf("%-20s %14s %16s %16s\n", "query", "engine_ms", "RowStore_jsonb", "DocStore_bson");
  for (const Case& c : cases) {
    const std::string& text = texts[c.text];
    for (int i = 0; i < 3; ++i) {
      if (!engine.Execute(text).ok()) Die("engine failed: " + text);
    }
    // The three systems must agree on the rows they aggregate: total the
    // count column (the first aggregate, after any group key).
    auto total_count = [&](const QueryResult& r) {
      const size_t col = c.q.group_by.empty() ? 0 : 1;
      int64_t n = 0;
      for (const auto& row : r.rows) n += row.at(col).is_int() ? row.at(col).i() : -1;
      return n;
    };
    auto mine = engine.Execute(text);
    auto theirs_r = jsonb.Execute(c.q);
    auto theirs_b = bson.Execute(c.q);
    if (!mine.ok() || !theirs_r.ok() || !theirs_b.ok() ||
        total_count(*mine) != total_count(*theirs_r) ||
        total_count(*mine) != total_count(*theirs_b)) {
      Die(std::string("systems disagree on ") + c.name);
    }
    const double e = MedianMs(reps, [&] { (void)engine.Execute(text); });
    const double r = MedianMs(reps, [&] {
      if (!jsonb.Execute(c.q).ok()) Die(std::string("jsonb failed: ") + c.name);
    });
    const double b = MedianMs(reps, [&] {
      if (!bson.Execute(c.q).ok()) Die(std::string("bson failed: ") + c.name);
    });
    printf("%-20s %14.3f %16.3f %16.3f\n", c.name, e, r, b);
  }
  return 0;
}
