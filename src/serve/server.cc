#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

namespace weber::serve {

UnixServer::UnixServer(ShardedResolveService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

UnixServer::~UnixServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

storage::Status UnixServer::Start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return storage::Status(storage::StorageErrc::kIoError,
                           "socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return storage::Status(storage::StorageErrc::kIoError,
                           std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // Replace a stale socket file.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    storage::Status status(storage::StorageErrc::kIoError,
                           "bind/listen " + options_.socket_path + ": " +
                               std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  return storage::Status::Ok();
}

storage::Status UnixServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check the stop flag.
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    util::MutexLock lock(threads_mu_);
    // One blocking-I/O thread per connection; the compute fan-out
    // underneath still runs on the shared executor.
    // lint: allow(threads) blocking connection I/O
    threads_.emplace_back(std::thread([this, fd] { HandleConnection(fd); }));
  }
  // Drain: no new connections; finish the open ones, then the queue.
  // lint: allow(threads) blocking connection I/O
  std::vector<std::thread> joinable;
  {
    util::MutexLock lock(threads_mu_);
    joinable.swap(threads_);
  }
  // lint: allow(threads) blocking connection I/O
  for (std::thread& thread : joinable) thread.join();
  storage::Status status = service_->Drain();
  if (!status.ok()) {
    std::fprintf(stderr, "weber serve: final WAL sync failed: %s\n",
                 status.ToString().c_str());
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  return status;
}

void UnixServer::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
}

Response UnixServer::Dispatch(const Request& request) {
  Response response;
  switch (request.type) {
    case MessageType::kPing:
      break;
    case MessageType::kIngest: {
      ShardedResolveService::IngestResult result =
          service_->Ingest(std::vector<model::EntityDescription>(
              request.entities));
      response.status = result.status;
      response.ids = std::move(result.ids);
      break;
    }
    case MessageType::kRemove:
      response.status = service_->Remove(request.id);
      break;
    case MessageType::kResolve: {
      auto resolution = service_->Resolve(request.id);
      if (!resolution.has_value()) {
        response.status = ServeErrc::kNotFound;
      } else {
        response.representative = resolution->representative;
        response.members = std::move(resolution->members);
      }
      break;
    }
    case MessageType::kMetrics: {
      const ShardedResolver& resolver = service_->resolver();
      std::ostringstream text;
      text << "requests=" << service_->requests()
           << "\nbatches=" << service_->batches_run()
           << "\nshed=" << service_->shed() << "\nosn=" << resolver.osn()
           << "\nentities=" << resolver.size()
           << "\nlive=" << resolver.live_count()
           << "\nshards=" << resolver.shards()
           << "\ncomparisons=" << resolver.comparisons() << "\n";
      response.text = text.str();
      break;
    }
    case MessageType::kShutdown:
      service_->BeginShutdown();
      RequestStop();
      break;
  }
  return response;
}

void UnixServer::HandleConnection(int fd) {
  std::vector<uint8_t> body;
  bool eof = false;
  while (ReadFrame(fd, &body, &eof)) {
    std::optional<Request> request = DecodeRequest(body.data(), body.size());
    Response response;
    if (!request.has_value()) {
      response.status = ServeErrc::kBadRequest;
      response.text = "undecodable request frame";
    } else {
      response = Dispatch(*request);
    }
    if (!WriteFrame(fd, EncodeResponse(response))) break;
    if (request.has_value() && request->type == MessageType::kShutdown) {
      break;
    }
  }
  ::close(fd);
}

}  // namespace weber::serve
