// Client side of the svtoxd wire protocol: a blocking one-request /
// one-reply channel over the daemon's Unix-domain socket (NDJSON), plus
// the typed convenience calls `svtox batch` uses.
//
// Transport failures (connect refused, connection dropped mid-round-trip)
// surface as util::Error(kIo) and are retried internally with exponential
// backoff + jitter and a fresh connection, up to ClientOptions::
// max_attempts -- this covers a daemon that has not bound its socket yet
// (ENOENT / ECONNREFUSED). Retrying a round trip whose request was already
// delivered gives *at-least-once* semantics: a resent "submit" may enqueue
// a second job (the scheduler's solution cache dedups the actual solve). Reply timeouts surface as
// Error(kTimeout) and are never retried -- the daemon may still be
// executing the request. A daemon at capacity replies error_code "busy";
// submit() retries those with the same backoff schedule.
#pragma once

#include <optional>
#include <string>

#include "svc/job.hpp"
#include "util/rng.hpp"

namespace svtox::svc {

struct ClientOptions {
  /// Total tries per connect/round-trip (1 = no retry).
  int max_attempts = 3;
  double backoff_initial_s = 0.05;  ///< First retry delay (doubled per try).
  double backoff_max_s = 2.0;       ///< Delay ceiling.
  /// Per-request reply timeout; 0 = wait forever. On expiry request()
  /// throws Error(kTimeout) and the connection is dropped (the next
  /// request reconnects).
  double request_timeout_s = 0.0;
  /// Wall-clock budget across ALL attempts of one operation (the
  /// constructor's connect loop, or one request() including its retries);
  /// 0 = unbounded. When the budget runs out the last transport error is
  /// rethrown instead of sleeping through the rest of the backoff
  /// schedule -- `svtox stats` against a dead daemon fails fast.
  double total_deadline_s = 0.0;
};

class Client {
 public:
  /// Connects to a running svtoxd at the Unix socket path `address` with
  /// retry/backoff per `options`; throws Error(kIo) when the daemon cannot
  /// be reached.
  explicit Client(const std::string& address,
                  const ClientOptions& options = ClientOptions());
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Raw round trip: sends one request object, returns the reply object.
  /// Throws Error(kIo) when every attempt lost the connection,
  /// Error(kTimeout) when the reply timed out, ParseError on a malformed
  /// reply.
  Json request(const Json& request_json);

  // --- Typed wrappers ---------------------------------------------------
  /// Each throws ContractError when the daemon replies {"ok":false}.
  /// submit additionally retries "busy" rejections (admission control)
  /// with the backoff schedule before giving up.
  std::uint64_t submit(const JobSpec& spec);
  std::string status(std::uint64_t job);
  JobResult result(std::uint64_t job, bool include_solution = true);  ///< Blocks.
  bool cancel(std::uint64_t job);
  Json stats();
  void shutdown(bool drain = true);

  /// True when a daemon accepts connections on `address`.
  static bool ping(const std::string& address);

  const std::string& address() const { return address_; }

 private:
  void send_request(const std::string& payload);
  Json read_reply();
  void drop_connection();
  /// Sleeps the attempt's backoff delay, clipped to `cap_s` when >= 0.
  void backoff_sleep(int attempt, double cap_s = -1.0);

  ClientOptions options_;
  std::string address_;
  int fd_ = -1;
  std::string pending_;  ///< Bytes read past the last complete reply.
  Rng jitter_;           ///< Backoff jitter stream (seeded per client).
};

}  // namespace svtox::svc
