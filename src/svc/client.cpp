#include "svc/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace svtox::svc {

namespace {

int connect_unix(const std::string& socket_path) {
  SVTOX_FAIL_POINT("client_connect");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw ContractError("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(ErrorCode::kIo, "cannot create unix socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw Error(ErrorCode::kIo, "cannot connect to svtoxd at " + socket_path +
                                    ": " + what + " (is the daemon running?)");
  }
  return fd;
}

/// Throws when the daemon replied ok=false.
const Json& check_ok(const Json& reply) {
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool(false)) {
    const Json* error = reply.get("error");
    const Json* code = reply.get("error_code");
    std::string what = "svtoxd error";
    if (code != nullptr && code->is_string()) {
      what += " [" + code->as_string() + "]";
    }
    what += ": " + (error != nullptr ? error->as_string() : reply.dump());
    throw ContractError(what);
  }
  return reply;
}

}  // namespace

Client::Client(const std::string& address, const ClientOptions& options)
    : options_(options),
      address_(address),
      jitter_(static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count())) {
  const int attempts = std::max(1, options_.max_attempts);
  const Deadline deadline(options_.total_deadline_s > 0.0
                              ? options_.total_deadline_s
                              : 1e18);
  for (int attempt = 0;; ++attempt) {
    try {
      fd_ = connect_unix(address_);
      return;
    } catch (const Error&) {
      if (attempt + 1 >= attempts || deadline.remaining() <= 0.0) throw;
      backoff_sleep(attempt, deadline.remaining());
    }
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::drop_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();  // a partial reply from a dead connection is garbage
}

void Client::backoff_sleep(int attempt, double cap_s) {
  double delay = options_.backoff_initial_s;
  for (int i = 0; i < attempt && delay < options_.backoff_max_s; ++i) delay *= 2.0;
  delay = std::min(delay, options_.backoff_max_s);
  // Jitter in [0.5, 1.0]x so a fleet of clients does not reconnect in
  // lockstep against a restarting daemon.
  delay *= 0.5 + 0.5 * jitter_.next_double();
  if (cap_s >= 0.0) delay = std::min(delay, cap_s);
  if (delay <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

void Client::send_request(const std::string& payload) {
  SVTOX_FAIL_POINT("client_send");
  const std::string wire = payload + "\n";
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorCode::kIo, "svtoxd connection lost while sending");
    }
    sent += static_cast<std::size_t>(n);
  }
}

Json Client::read_reply() {
  char chunk[4096];
  const Deadline deadline(options_.request_timeout_s > 0.0
                              ? options_.request_timeout_s
                              : 1e18);
  for (;;) {
    const std::size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      const std::string reply = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return Json::parse(reply);
    }
    SVTOX_FAIL_POINT("client_recv");
    if (options_.request_timeout_s > 0.0) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const double remaining = deadline.remaining();
      if (remaining <= 0.0) {
        throw Error(ErrorCode::kTimeout, "svtoxd reply timed out");
      }
      const int timeout_ms =
          static_cast<int>(std::min(remaining * 1e3 + 1.0, 2147483000.0));
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw Error(ErrorCode::kIo, "svtoxd connection lost while waiting");
      }
      if (ready == 0) {
        throw Error(ErrorCode::kTimeout, "svtoxd reply timed out");
      }
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error(ErrorCode::kIo, "svtoxd connection closed before replying");
    pending_.append(chunk, static_cast<std::size_t>(n));
  }
}

Json Client::request(const Json& request_json) {
  const std::string payload = request_json.dump();
  const int attempts = std::max(1, options_.max_attempts);
  const Deadline deadline(options_.total_deadline_s > 0.0
                              ? options_.total_deadline_s
                              : 1e18);
  for (int attempt = 0;; ++attempt) {
    try {
      if (fd_ < 0) {
        pending_.clear();
        fd_ = connect_unix(address_);
      }
      send_request(payload);
      return read_reply();
    } catch (const Error& e) {
      drop_connection();
      // Only transport loss retries; a timeout's request may still be
      // executing server-side, so resending it is the caller's call.
      if (e.code() != ErrorCode::kIo || attempt + 1 >= attempts ||
          deadline.remaining() <= 0.0) {
        throw;
      }
      backoff_sleep(attempt, deadline.remaining());
    }
  }
}

std::uint64_t Client::submit(const JobSpec& spec) {
  Json request_json = job_spec_to_json(spec);
  request_json.set("cmd", "submit");
  const int attempts = std::max(1, options_.max_attempts);
  for (int attempt = 0;; ++attempt) {
    const Json reply = request(request_json);
    // Admission control: a daemon at capacity says so instead of hanging;
    // back off and retry like any other transient condition.
    const Json* code = reply.get("error_code");
    if (code != nullptr && code->is_string() && code->as_string() == "busy" &&
        attempt + 1 < attempts) {
      backoff_sleep(attempt);
      continue;
    }
    check_ok(reply);
    const Json* job = reply.get("job");
    if (job == nullptr) throw ContractError("svtoxd submit reply missing 'job'");
    return static_cast<std::uint64_t>(job->as_int());
  }
}

std::string Client::status(std::uint64_t job) {
  Json request_json = Json::object();
  request_json.set("cmd", "status");
  request_json.set("job", job);
  const Json reply = check_ok(request(request_json));
  const Json* status = reply.get("status");
  return status != nullptr ? status->as_string() : "?";
}

JobResult Client::result(std::uint64_t job, bool include_solution) {
  Json request_json = Json::object();
  request_json.set("cmd", "result");
  request_json.set("job", job);
  if (!include_solution) request_json.set("solution", false);
  return job_result_from_json(check_ok(request(request_json)));
}

bool Client::cancel(std::uint64_t job) {
  Json request_json = Json::object();
  request_json.set("cmd", "cancel");
  request_json.set("job", job);
  const Json reply = check_ok(request(request_json));
  const Json* cancelled = reply.get("cancelled");
  return cancelled != nullptr && cancelled->as_bool(false);
}

Json Client::stats() {
  Json request_json = Json::object();
  request_json.set("cmd", "stats");
  return check_ok(request(request_json));
}

void Client::shutdown(bool drain) {
  Json request_json = Json::object();
  request_json.set("cmd", "shutdown");
  request_json.set("drain", drain);
  check_ok(request(request_json));
}

bool Client::ping(const std::string& address) {
  try {
    ::close(connect_unix(address));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace svtox::svc
