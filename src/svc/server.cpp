#include "svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "svc/metrics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace svtox::svc {

namespace {

/// Hard cap on one NDJSON request line. A client that streams an unbounded
/// line (malicious or broken framing) gets an error and a closed
/// connection instead of growing the server's buffer without limit.
constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// Writes the whole buffer, riding out EINTR/partial writes.
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Json error_reply(const std::string& what, const std::string& code = "") {
  Json reply = Json::object();
  reply.set("ok", false);
  reply.set("error", what);
  if (!code.empty()) reply.set("error_code", code);
  return reply;
}

Json cache_stats_json(const CacheStats& stats) {
  Json json = Json::object();
  json.set("hits", stats.hits);
  json.set("disk_hits", stats.disk_hits);
  json.set("misses", stats.misses);
  json.set("inflight_waits", stats.inflight_waits);
  json.set("evictions", stats.evictions);
  json.set("corrupt", stats.corrupt);
  json.set("entries", stats.entries);
  json.set("inflight", stats.inflight);
  return json;
}

ServerOptions unix_only_options(std::string socket_path) {
  ServerOptions options;
  options.socket_path = std::move(socket_path);
  return options;
}

}  // namespace

Server::Server(Scheduler& scheduler, std::string socket_path)
    : Server(scheduler, unix_only_options(std::move(socket_path))) {}

Server::Server(Scheduler& scheduler, ServerOptions options)
    : scheduler_(scheduler), options_(std::move(options)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path) {
    throw ContractError("socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof addr.sun_path - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw ContractError("cannot create unix socket");
  ::unlink(options_.socket_path.c_str());  // stale socket from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ContractError("cannot bind " + options_.socket_path + ": " + what);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  acceptor_ = std::thread([this] { accept_loop(); });
}

bool Server::admit(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return false;
    }
    if (client_fds_.size() < options_.max_connections) {
      client_fds_.push_back(fd);
      handlers_.emplace_back([this, fd] { handle_connection(fd); });
      return true;
    }
  }
  // At capacity: an explicit, retryable rejection beats a silently parked
  // connection. The reply is tiny, so this cannot stall the acceptor.
  const std::string payload =
      error_reply("server at connection capacity; retry later", "busy").dump();
  write_all(fd, payload + "\n");
  ::close(fd);
  return true;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed by stop()
    }
    if (!admit(fd)) return;
  }
}

void Server::finish_connection(int fd) {
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(client_fds_.begin(), client_fds_.end(), fd);
  if (it != client_fds_.end()) {
    ::close(fd);
    client_fds_.erase(it);
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool close_after = false;
  while (!close_after) {
    if (SVTOX_FAIL_POINT_FAILS("server_read")) break;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect or stop()
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxRequestBytes &&
        buffer.find('\n') == std::string::npos) {
      write_all(fd, error_reply("request line exceeds 1 MiB", "parse").dump() + "\n");
      break;
    }
    std::size_t newline;
    while (!close_after && (newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.size() > kMaxRequestBytes) {
        write_all(fd, error_reply("request line exceeds 1 MiB", "parse").dump() + "\n");
        close_after = true;
        break;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      Json reply;
      try {
        reply = dispatch(Json::parse(line), close_after);
      } catch (const Error& e) {
        reply = error_reply(e.what(), to_string(e.code()));
      } catch (const std::exception& e) {
        reply = error_reply(e.what(), "contract");
      }
      const std::string payload = reply.dump() + "\n";
      if (SVTOX_FAIL_POINT_FAILS("server_write") || !write_all(fd, payload)) {
        close_after = true;
      }
    }
  }
  finish_connection(fd);
}

Json Server::dispatch(const Json& request, bool& close_after) {
  const std::string cmd =
      request.get("cmd") != nullptr ? request.get("cmd")->as_string() : "";
  if (cmd == "submit") {
    // The spec is the request minus the routing key.
    Json spec_json = Json::object();
    for (const auto& [key, value] : request.as_object()) {
      if (key != "cmd") spec_json.set(key, value);
    }
    const std::optional<JobId> id =
        scheduler_.try_submit(job_spec_from_json(spec_json));
    if (!id) {
      // Explicit admission failure; clients retry with backoff.
      return error_reply("job queue is full; retry later", "busy");
    }
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("job", *id);
    return reply;
  }

  if (cmd == "status" || cmd == "result" || cmd == "cancel") {
    const Json* job = request.get("job");
    if (job == nullptr || !job->is_number()) {
      return error_reply("'" + cmd + "' needs a numeric 'job' id");
    }
    const JobId id = static_cast<JobId>(job->as_int());
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("job", id);
    if (cmd == "status") {
      reply.set("status", to_string(scheduler_.status(id)));
    } else if (cmd == "result") {
      const bool include_solution =
          request.get("solution") == nullptr || request.get("solution")->as_bool(true);
      scheduler_.status(id);  // throws early for unknown ids
      const JobResult result = scheduler_.wait(id);
      const Json result_json = job_result_to_json(result, include_solution);
      for (const auto& [key, value] : result_json.as_object()) {
        reply.set(key, value);
      }
    } else {
      reply.set("cancelled", scheduler_.cancel(id));
    }
    return reply;
  }

  if (cmd == "stats") {
    const SchedulerStats stats = scheduler_.stats();
    Json jobs = Json::object();
    jobs.set("submitted", stats.submitted);
    jobs.set("completed", stats.completed);
    jobs.set("failed", stats.failed);
    jobs.set("cancelled", stats.cancelled);
    jobs.set("executed", stats.executed);
    jobs.set("retried", stats.retried);
    jobs.set("queued", stats.queued);
    jobs.set("running", stats.running);
    jobs.set("workers", stats.workers);
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("jobs", jobs);
    reply.set("cache", cache_stats_json(stats.cache));
    Json::Array shards;
    for (const CacheStats& shard : scheduler_.cache().shard_stats()) {
      shards.push_back(cache_stats_json(shard));
    }
    reply.set("cache_shards", Json(std::move(shards)));
    return reply;
  }

  if (cmd == "metrics") {
    const SchedulerStats stats = scheduler_.stats();
    const std::vector<CacheStats> shards = scheduler_.cache().shard_stats();
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("metrics", render_prometheus(stats, shards));
    return reply;
  }

  if (cmd == "shutdown") {
    const Json* drain = request.get("drain");
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      shutdown_drain_ = drain == nullptr ? true : drain->as_bool(true);
    }
    shutdown_cv_.notify_all();
    close_after = true;
    Json reply = Json::object();
    reply.set("ok", true);
    return reply;
  }

  return error_reply(cmd.empty() ? "missing 'cmd'" : "unknown cmd '" + cmd + "'");
}

bool Server::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stopping_; });
  return shutdown_drain_;
}

void Server::stop() {
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    shutdown_requested_ = true;
    // close() alone does NOT wake a thread blocked in accept() on Linux;
    // shutdown() does. The fd itself is closed after the acceptor joins.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    // Wake blocked reads; the handler threads close the fds themselves.
    for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
    handlers.swap(handlers_);
  }
  shutdown_cv_.notify_all();
  // Belt and braces for platforms where shutdown() leaves accept() parked:
  // a throwaway connection forces it to return (the loop then sees
  // stopping_ and exits).
  const int wake = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (wake >= 0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof addr.sun_path - 1);
    ::connect(wake, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::close(wake);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& handler : handlers) {
    if (handler.joinable()) handler.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const int fd : client_fds_) ::close(fd);
    client_fds_.clear();
  }
  ::unlink(options_.socket_path.c_str());
}

}  // namespace svtox::svc
