#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"
#include "harness.h"

extern char** environ;

namespace xgwb {

namespace {

std::vector<std::string> child_environment(const EnvOverrides& env) {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string key = kv.substr(0, kv.find('='));
    bool overridden = false;
    for (const auto& [k, v] : env) overridden = overridden || k == key;
    if (!overridden) out.push_back(kv);
  }
  for (const auto& [k, v] : env)
    if (!v.empty()) out.push_back(k + "=" + v);
  return out;
}

std::vector<char*> c_strings(std::vector<std::string>& v) {
  std::vector<char*> out;
  for (std::string& s : v) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv,
                       const EnvOverrides& env, const std::string& cwd,
                       const std::string& stdout_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec it only calls async-signal-safe functions.
  std::vector<std::string> args = argv;
  std::vector<std::string> envs = child_environment(env);
  std::vector<char*> c_args = c_strings(args);
  std::vector<char*> c_envs = c_strings(envs);
  const int fd = ::open(stdout_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  XGW_REQUIRE(fd >= 0, "benchmark: cannot open " + stdout_path);

  ProcResult r;
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (::chdir(cwd.c_str()) != 0 || ::dup2(fd, STDOUT_FILENO) < 0) _exit(127);
    ::execve(c_args[0], c_args.data(), c_envs.data());
    _exit(127);
  }
  ::close(fd);
  XGW_REQUIRE(pid > 0, std::string("benchmark: fork failed: ") +
                           std::strerror(errno));
  int status = 0;
  struct rusage ru {};
  pid_t w;
  do {
    w = ::wait4(pid, &status, 0, &ru);
  } while (w < 0 && errno == EINTR);
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  XGW_REQUIRE(w == pid, "benchmark: wait4 failed");
  r.max_rss_kb = ru.ru_maxrss;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace xgwb
