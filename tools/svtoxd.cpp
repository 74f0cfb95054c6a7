// svtoxd: the svtox optimization daemon.
//
//   svtoxd [--socket PATH] [--workers N] [--queue-capacity N]
//          [--cache-capacity N] [--cache-dir DIR] [--contexts N]
//          [--checkpoint-dir DIR] [--checkpoint-every SEC]
//          [--max-connections N]
//
// Listens on a Unix-domain socket (newline-delimited JSON; the protocol is
// documented in src/svc/server.hpp). Jobs run on a persistent worker pool
// that keeps characterized libraries, per-circuit optimizer contexts and
// the solution cache warm across requests; `svtox batch` is the matching
// client.
//
// Exits on a `shutdown` request (draining the backlog unless
// {"drain":false}). SIGINT/SIGTERM interrupt running searches instead of
// draining: with --checkpoint-dir each search saves its frontier first, so
// resubmitting the same jobs to a restarted daemon resumes where they
// stopped.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <limits.h>
#include <unistd.h>

#include "svc/scheduler.hpp"
#include "svc/server.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: svtoxd [--socket PATH] [--workers N] [--queue-capacity N]\n"
               "              [--cache-capacity N] [--cache-dir DIR] [--contexts N]\n"
               "              [--checkpoint-dir DIR] [--checkpoint-every SEC]\n"
               "              [--max-connections N]\n");
  return 2;
}

// Self-pipe: the only async-signal-safe way to get from a signal handler to
// the server's (mutex-guarded) stop path.
int g_signal_pipe[2] = {-1, -1};

// Distinguishes a signal-driven exit (interrupt running searches so they
// checkpoint) from a protocol shutdown (honor the request's drain flag).
std::atomic<bool> g_signalled{false};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Daemons may be sent to the background or started from a transient CWD
/// (systemd, test harnesses); every relative state directory is therefore
/// resolved against the *startup* CWD once and logged, so checkpoints and
/// cache entries land where the operator can find them -- not wherever the
/// process happens to chdir to later.
std::string absolute_dir(const std::string& dir) {
  if (dir.empty() || dir.front() == '/') return dir;
  char cwd[PATH_MAX];
  if (::getcwd(cwd, sizeof cwd) == nullptr) return dir;
  return std::string(cwd) + "/" + dir;
}

}  // namespace

int main(int argc, char** argv) {
  svtox::svc::ServerOptions server_options;
  server_options.socket_path = "/tmp/svtoxd.sock";
  svtox::svc::Scheduler::Options options;
  options.workers = 0;  // all hardware threads

  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> std::string {
      if (!has_value) {
        std::fprintf(stderr, "missing value for %s\n", key.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (key == "--socket") server_options.socket_path = value();
    else if (key == "--workers") options.workers = std::atoi(value().c_str());
    else if (key == "--queue-capacity")
      options.queue_capacity = static_cast<std::size_t>(std::atol(value().c_str()));
    else if (key == "--cache-capacity")
      options.cache_capacity = static_cast<std::size_t>(std::atol(value().c_str()));
    else if (key == "--cache-dir") options.cache_dir = value();
    else if (key == "--contexts")
      options.contexts_per_worker = static_cast<std::size_t>(std::atol(value().c_str()));
    else if (key == "--checkpoint-dir") options.checkpoint_dir = value();
    else if (key == "--checkpoint-every")
      options.checkpoint_every_s = std::atof(value().c_str());
    else if (key == "--max-connections")
      server_options.max_connections = static_cast<std::size_t>(std::atol(value().c_str()));
    else if (key == "--help" || key == "-h") return usage();
    else {
      std::fprintf(stderr, "unknown option '%s'\n", key.c_str());
      return usage();
    }
  }

  // Pin state directories before any job can touch them (and before any
  // daemonizing wrapper chdirs us away from where the operator started).
  options.cache_dir = absolute_dir(options.cache_dir);
  options.checkpoint_dir = absolute_dir(options.checkpoint_dir);

  try {
    svtox::svc::Scheduler scheduler(options);
    svtox::svc::Server server(scheduler, server_options);

    if (::pipe(g_signal_pipe) != 0) {
      std::fprintf(stderr, "svtoxd: cannot create signal pipe\n");
      return 1;
    }
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGHUP, SIG_IGN);  // survive a closed controlling terminal
    std::signal(SIGPIPE, SIG_IGN);
    std::thread signal_watcher([&server] {
      char byte;
      if (::read(g_signal_pipe[0], &byte, 1) > 0) {
        g_signalled.store(true);
        server.stop();
      }
    });

    server.start();
    std::printf("svtoxd: listening on %s (%d workers, cache %zu%s%s)\n",
                server.socket_path().c_str(), scheduler.stats().workers,
                options.cache_capacity, options.cache_dir.empty() ? "" : ", disk ",
                options.cache_dir.c_str());
    if (!options.checkpoint_dir.empty()) {
      std::printf("svtoxd: checkpoint dir %s\n", options.checkpoint_dir.c_str());
    }
    std::fflush(stdout);

    const bool drain = server.wait_for_shutdown();
    const bool signalled = g_signalled.load();
    std::printf("svtoxd: shutting down (%s)\n",
                signalled ? "interrupting running jobs" : drain ? "draining" : "immediate");
    std::fflush(stdout);
    // Order matters: finishing the scheduler releases handler threads blocked
    // in result-waits, which server.stop() then joins. A signal-driven exit
    // cancels running searches so they checkpoint instead of running out
    // their budgets.
    if (signalled) {
      scheduler.shutdown(/*drain=*/false, /*interrupt_running=*/true);
    } else {
      scheduler.shutdown(drain);
    }
    server.stop();

    on_signal(0);  // unblock the watcher if no signal ever arrived
    signal_watcher.join();
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svtoxd: %s\n", e.what());
    return 1;
  }
  return 0;
}
