#ifndef WEBER_SERVE_SERVER_H_
#define WEBER_SERVE_SERVER_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "storage/status.h"
#include "util/sync.h"

namespace weber::serve {

/// Configuration of a UnixServer.
struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket. Any stale
  /// socket file at the path is replaced.
  std::string socket_path;
  int backlog = 64;
};

/// The weber_serve network front end: a Unix-domain stream server mapping
/// protocol requests onto a ShardedResolveService.
///
/// One thread per connection (connections are expected to be few and
/// long-lived — load generators and sidecars, not a public fleet); each
/// connection is an independent service caller, so concurrent ingests
/// coalesce through the service's leader/follower batching and overload
/// turns into typed kOverloaded responses, never stalled sockets.
///
/// A kShutdown request stops admission (service.BeginShutdown), and
/// Serve() then drains: stops accepting, joins every connection, waits
/// for the queue to empty and syncs the WALs before returning.
class UnixServer {
 public:
  /// The service is borrowed and must outlive the server.
  UnixServer(ShardedResolveService* service, ServerOptions options);
  ~UnixServer();

  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Binds and listens. Call once, before Serve().
  storage::Status Start();

  /// Runs the accept loop in the calling thread until a kShutdown request
  /// (or RequestStop) arrives, then drains and cleans up the socket file.
  /// Returns the drain's final WAL sync status, also printed to stderr
  /// when it failed.
  storage::Status Serve();

  /// Asks Serve() to stop from another thread (idempotent).
  void RequestStop();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  void HandleConnection(int fd);
  Response Dispatch(const Request& request);

  ShardedResolveService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};

  util::Mutex threads_mu_;
  // lint: allow(threads) blocking connection I/O, joined by Serve()
  std::vector<std::thread> threads_ GUARDED_BY(threads_mu_);
};

}  // namespace weber::serve

#endif  // WEBER_SERVE_SERVER_H_
