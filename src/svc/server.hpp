// Network front end of the scheduler: the `svtoxd` daemon's listener.
//
// A Unix-domain socket speaking newline-delimited JSON: one request object
// per line, one response object per line.
//
//   -> {"cmd":"submit","circuit":"c432","method":"heu1","penalty":5}
//   <- {"ok":true,"job":1}
//   -> {"cmd":"status","job":1}
//   <- {"ok":true,"job":1,"status":"running"}
//   -> {"cmd":"result","job":1}              // blocks until terminal
//   <- {"ok":true,"job":1,"status":"done","leakage_ua":...,"solution":"..."}
//   -> {"cmd":"cancel","job":1}
//   <- {"ok":true,"job":1,"cancelled":true}
//   -> {"cmd":"stats"}
//   <- {"ok":true,"jobs":{...},"cache":{...},"cache_shards":[...]}
//   -> {"cmd":"metrics"}
//   <- {"ok":true,"metrics":"# HELP svtox_jobs_total ..."}   // Prometheus text
//   -> {"cmd":"shutdown","drain":true}
//   <- {"ok":true}
//
// Every connection gets its own handler thread (blocking `result` waits
// only park that connection). Admission control bounds those threads:
// past ServerOptions::max_connections, a fresh connection is answered
// with a retryable "busy" error and closed -- never silently hung.
// Malformed requests produce {"ok":false,"error":"..."} and keep the
// connection open; an oversized request line drops only that connection.
// The daemon itself only dies on `shutdown` or a signal.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/scheduler.hpp"

namespace svtox::svc {

struct ServerOptions {
  std::string socket_path;
  /// Admission control: a connection beyond this many concurrently open
  /// ones gets a "busy" error and a close.
  std::size_t max_connections = 256;
};

class Server {
 public:
  /// Convenience: binds `socket_path` with default options.
  Server(Scheduler& scheduler, std::string socket_path);

  /// Binds the Unix socket (unlinking a stale one first); throws
  /// ContractError when it cannot be bound.
  Server(Scheduler& scheduler, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept loop.
  void start();

  /// Blocks until a client issued `shutdown` (returns its requested drain
  /// mode) or stop() was called from another thread (returns true).
  bool wait_for_shutdown();

  /// Stops accepting, disconnects clients, joins all threads, removes the
  /// socket file. Idempotent.
  void stop();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  void accept_loop();
  /// Spawns the handler for an accepted fd, or rejects it ("busy") at
  /// capacity. Returns false when the server is stopping.
  bool admit(int fd);
  void handle_connection(int fd);
  void finish_connection(int fd);
  /// One request -> one response; `close_after` asks the caller to end the
  /// connection (shutdown acknowledges first, then tears down).
  Json dispatch(const Json& request, bool& close_after);

  Scheduler& scheduler_;
  ServerOptions options_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool shutdown_drain_ = true;
  bool stopping_ = false;
  std::vector<int> client_fds_;
  std::vector<std::thread> handlers_;
  std::thread acceptor_;
};

}  // namespace svtox::svc
