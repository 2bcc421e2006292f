#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.h"
#include "harness.h"
#include "obs/json.h"

namespace xgwb {

namespace {

std::vector<std::string> tokens(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> t;
  for (std::string s; is >> s;) t.push_back(s);
  return t;
}

bool is_integer(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double tolerance(const std::string& key) {
  return starts_with(key, "band ") ? 1e-3 /* eV */ : 1e-6;
}

}  // namespace

std::vector<Answer> parse_job_output(const std::string& out) {
  // The QP table: a header starting with "band", then one row per band
  // whose last column is E_QP (eV) on every Sigma route.
  std::vector<Answer> a;
  std::istringstream is(out);
  bool in_table = false;
  for (std::string line; std::getline(is, line);) {
    const std::vector<std::string> t = tokens(line);
    if (!in_table) {
      in_table = !t.empty() && t[0] == "band";
      continue;
    }
    if (t.size() < 2 || !is_integer(t[0])) break;
    a.push_back({"band " + t[0], t.back()});
  }
  return a;
}

std::vector<Answer> parse_serve_output(const std::string& out) {
  std::vector<Answer> a;
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);) {
    const std::vector<std::string> t = tokens(line);
    if (t.size() == 12 && t[0] == "band" && t[10] == "E_QP")
      a.push_back({"band " + t[1], t[11]});
    else if (t.size() == 3 && t[0] == "epsinv_head")
      a.push_back({"head " + t[1], t[2]});
  }
  return a;
}

Reference Reference::load(const std::string& path) {
  std::ifstream is(path);
  XGW_REQUIRE(is.good(), "benchmark: cannot open reference " + path);
  Reference r;
  int lineno = 0;
  for (std::string line; std::getline(is, line);) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> t = tokens(line);
    XGW_REQUIRE(t.size() == 4 && (t[1] == "band" || t[1] == "head" ||
                                  t[1] == "counter"),
                "benchmark: " + path + ":" + std::to_string(lineno) +
                    ": expected '<workload> band|head|counter <id> <value>'");
    if (t[1] == "counter")
      r.counters_[t[0]][t[2]] = t[3];
    else
      r.answers_[t[0]][t[1] + " " + t[2]] = t[3];
  }
  return r;
}

void Reference::check_answers(const std::string& workload,
                              const std::vector<Answer>& answers,
                              std::vector<std::string>& problems) const {
  const auto wit = answers_.find(workload);
  if (wit == answers_.end()) {
    problems.push_back(workload + ": no reference answers");
    return;
  }
  std::set<std::string> seen;
  for (const Answer& a : answers) {
    seen.insert(a.key);
    const auto it = wit->second.find(a.key);
    if (it == wit->second.end()) {
      problems.push_back(workload + ": unexpected answer '" + a.key + "'");
      continue;
    }
    const double got = std::strtod(a.text.c_str(), nullptr);
    const double want = std::strtod(it->second.c_str(), nullptr);
    if (!(std::abs(got - want) <= tolerance(a.key)))
      problems.push_back(workload + ": " + a.key + " = " + a.text +
                         ", reference " + it->second);
  }
  for (const auto& [key, value] : wit->second)
    if (!seen.count(key))
      problems.push_back(workload + ": missing answer '" + key + "'");
}

void Reference::check_counters(const std::string& workload,
                               const std::vector<Metric>& counters,
                               std::vector<std::string>& problems) const {
  const auto wit = counters_.find(workload);
  for (const Metric& m : counters) {
    const std::string got = xgw::obs::json::format_number(m.value);
    if (wit == counters_.end() || !wit->second.count(m.name)) {
      problems.push_back(workload + ": counter " + m.name + " not pinned");
    } else if (wit->second.at(m.name) != got) {
      problems.push_back(workload + ": counter " + m.name + " = " + got +
                         ", reference " + wit->second.at(m.name));
    }
  }
}

std::string Reference::format(const std::string& workload,
                              const std::vector<Answer>& answers,
                              const std::vector<Metric>& counters) {
  std::map<std::string, std::string> unique;  // serve repeats shared bands
  for (const Answer& a : answers) unique[a.key] = a.text;
  std::string s;
  for (const auto& [key, text] : unique) s += workload + " " + key + " " + text + "\n";
  for (const Metric& m : counters)
    s += workload + " counter " + m.name + " " +
         xgw::obs::json::format_number(m.value) + "\n";
  return s;
}

}  // namespace xgwb
