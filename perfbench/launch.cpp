// gcs_launch -- runs one command and reports its wall time and peak RSS.
//
//   gcs_launch LOG TIMEOUT_S PROGRAM [ARGS...]
//
// The command's stdout and stderr go to LOG.  When it ends, gcs_launch
// prints one line "<exit> <wall_s> <maxrss_kb>": its exit code (minus the
// signal number when a signal ended it), the wall time from fork to reap,
// and its ru_maxrss.  A command still running after TIMEOUT_S seconds is
// killed.
//
// Why a launcher: Linux carries the parent's resident high-water mark into
// a forked child across exec, so any child of the benchmark's Python
// process reports at least that process's peak RSS.  Forked from this
// small process instead, the command's ru_maxrss is its own.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

volatile sig_atomic_t g_child = 0;

void on_alarm(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

double seconds_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: gcs_launch LOG TIMEOUT_S PROGRAM [ARGS...]\n");
    return 2;
  }
  const int log_fd = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const long timeout_s = std::strtol(argv[2], nullptr, 10);
  if (log_fd < 0 || timeout_s <= 0) {
    std::fprintf(stderr, "gcs_launch: bad LOG or TIMEOUT_S\n");
    return 2;
  }

  struct sigaction alarm_action{};
  alarm_action.sa_handler = on_alarm;
  sigaction(SIGALRM, &alarm_action, nullptr);

  const double start = seconds_now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("gcs_launch: fork");
    return 2;
  }
  if (pid == 0) {
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(log_fd);
    execv(argv[3], argv + 3);
    std::perror("gcs_launch: exec");
    _exit(127);
  }
  g_child = pid;
  alarm(static_cast<unsigned>(timeout_s));

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("gcs_launch: wait4");
      return 2;
    }
  }
  const double wall = seconds_now() - start;
  alarm(0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::printf("%d %.9f %ld\n", code, wall, usage.ru_maxrss);
  return 0;
}
