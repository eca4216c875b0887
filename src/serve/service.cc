#include "serve/service.h"

#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace weber::serve {

const char* ServeErrcName(ServeErrc code) {
  switch (code) {
    case ServeErrc::kOk:
      return "ok";
    case ServeErrc::kOverloaded:
      return "overloaded";
    case ServeErrc::kNotFound:
      return "not-found";
    case ServeErrc::kBadRequest:
      return "bad-request";
    case ServeErrc::kShuttingDown:
      return "shutting-down";
    case ServeErrc::kInternal:
      return "internal";
  }
  return "unknown";
}

ShardedResolveService::ShardedResolveService(const matching::Matcher* matcher,
                                             ShardedServiceOptions options)
    : options_(std::move(options)),
      resolver_(matcher, options_.resolver) {}

obs::MetricsRegistry* ShardedResolveService::Registry() const {
  return options_.resolver.metrics != nullptr ? options_.resolver.metrics
                                              : obs::Current();
}

void ShardedResolveService::LeadBatch() {
  std::vector<Request*> drained;
  size_t total = 0;
  while (!queue_.empty() && (drained.empty() || total < options_.max_batch)) {
    Request* request = queue_.front();
    queue_.pop_front();
    total += request->entities.size();
    drained.push_back(request);
  }
  queued_entities_ -= total;
  queue_mu_.Unlock();

  std::vector<model::EntityDescription> combined;
  combined.reserve(total);
  std::vector<size_t> sizes;
  sizes.reserve(drained.size());
  for (Request* request : drained) {
    sizes.push_back(request->entities.size());
    for (model::EntityDescription& entity : request->entities) {
      combined.push_back(std::move(entity));
    }
    request->entities.clear();
  }

  std::vector<model::EntityId> ids;
  {
    util::MutexLock resolver_lock(resolver_mu_);
    ids = resolver_.Ingest(std::move(combined));
  }
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetCounter("weber.serve.batches").Increment();
    registry->GetCounter("weber.serve.requests").Add(drained.size());
    registry->GetHistogram("weber.serve.batch_occupancy")
        .Record(static_cast<double>(total) /
                static_cast<double>(options_.max_batch));
  }

  size_t offset = 0;
  for (size_t i = 0; i < drained.size(); ++i) {
    drained[i]->ids.assign(ids.begin() + static_cast<int64_t>(offset),
                           ids.begin() + static_cast<int64_t>(offset) +
                               static_cast<int64_t>(sizes[i]));
    offset += sizes[i];
  }

  queue_mu_.Lock();
  for (Request* request : drained) request->done = true;
  leader_active_ = false;
  designated_ = queue_.empty() ? nullptr : queue_.front();
  queue_cv_.NotifyAll();
}

ShardedResolveService::IngestResult ShardedResolveService::Ingest(
    std::vector<model::EntityDescription> batch) {
  util::Timer timer;
  Request request;
  request.entities = std::move(batch);
  const size_t arriving = request.entities.size();
  util::MutexLock lock(queue_mu_);
  if (shutting_down_) return {ServeErrc::kShuttingDown, {}};
  // Admission control: shed when the queue is past the watermark. An
  // empty queue always admits — the watermark bounds waiting work, it
  // never wedges an idle service.
  if (!queue_.empty() && queued_entities_ >= options_.max_queue_entities) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    lock.Unlock();
    if (obs::MetricsRegistry* registry = Registry()) {
      registry->GetCounter("weber.serve.shed").Increment();
    }
    return {ServeErrc::kOverloaded, {}};
  }
  queue_.push_back(&request);
  queued_entities_ += arriving;
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetGauge("weber.serve.queue_depth")
        .Set(static_cast<double>(queued_entities_));
  }
  while (!request.done) {
    while (!request.done &&
           (leader_active_ ||
            (designated_ != nullptr && designated_ != &request))) {
      queue_cv_.Wait(queue_mu_);
    }
    if (request.done) break;
    leader_active_ = true;
    designated_ = nullptr;
    LeadBatch();
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetHistogram("weber.serve.request_seconds")
        .Record(timer.ElapsedSeconds());
  }
  return {ServeErrc::kOk, std::move(request.ids)};
}

std::optional<incremental::IncrementalResolver::Resolution>
ShardedResolveService::Resolve(model::EntityId id) {
  util::MutexLock resolver_lock(resolver_mu_);
  return resolver_.Resolve(id);
}

ServeErrc ShardedResolveService::Remove(model::EntityId id) {
  {
    util::MutexLock queue_lock(queue_mu_);
    if (shutting_down_) return ServeErrc::kShuttingDown;
  }
  util::MutexLock resolver_lock(resolver_mu_);
  return resolver_.Remove(id) ? ServeErrc::kOk : ServeErrc::kNotFound;
}

matching::Clusters ShardedResolveService::Clusters() {
  util::MutexLock resolver_lock(resolver_mu_);
  return resolver_.Clusters();
}

void ShardedResolveService::BeginShutdown() {
  util::MutexLock lock(queue_mu_);
  shutting_down_ = true;
}

storage::Status ShardedResolveService::Drain() {
  {
    util::MutexLock lock(queue_mu_);
    while (!queue_.empty() || leader_active_) {
      queue_cv_.Wait(queue_mu_);
    }
  }
  util::MutexLock resolver_lock(resolver_mu_);
  return resolver_.Sync();
}

}  // namespace weber::serve
