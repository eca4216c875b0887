// weber_serve: the sharded-resolver serving front end.
//
// Server mode (default) binds a Unix-domain socket and serves the
// length-prefixed binary protocol (see src/serve/protocol.h): ingest,
// remove, resolve-status, metrics, shutdown. Overload past the admission
// watermark is shed with a typed `overloaded` response, never a stalled
// socket. A kShutdown request drains the queue and exits cleanly.
//
//   weber_serve --socket /tmp/weber.sock --shards 8 --max-queue 4096
//
// Client mode (--connect) drives a running server from the same binary —
// what the CI smoke test uses, so one executable exercises both sides:
//
//   weber_serve --connect /tmp/weber.sock --ping
//   weber_serve --connect /tmp/weber.sock --flood 5000 --workers 8
//   weber_serve --connect /tmp/weber.sock --resolve 17
//   weber_serve --connect /tmp/weber.sock --metrics
//   weber_serve --connect /tmp/weber.sock --shutdown
//
// --flood generates a datagen corpus and offers it through the open-loop
// load generator, then prints one `flood ...` line with the typed outcome
// counts and latency quantiles.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "datagen/corpus_generator.h"
#include "matching/matcher.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/service.h"
#include "storage/file_io.h"

using namespace weber;

namespace {

constexpr const char kUsage[] =
    "usage: weber_serve --socket PATH [--shards N] [--threshold T] "
    "[--max-batch N] [--max-queue N] [--data-dir PATH] "
    "[--fsync always|batch|off]\n"
    "       weber_serve --connect PATH (--ping | --metrics | --shutdown | "
    "--resolve ID | --remove ID | "
    "--flood N [--workers W] [--batch B] [--rate R])";

int UsageFail(const std::string& message) {
  std::fprintf(stderr, "weber_serve: %s\n%s\n", message.c_str(), kUsage);
  return 2;
}

bool ParseUnsigned(const std::string& value, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    return false;
  }
  *out = static_cast<uint64_t>(parsed);
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  errno = 0;
  double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    return false;
  }
  *out = parsed;
  return true;
}

int RunClient(const std::string& socket_path, const std::string& command,
              uint64_t id, uint64_t flood_entities, uint64_t workers,
              uint64_t batch, double rate) {
  if (command == "flood") {
    datagen::CorpusConfig config;
    config.num_entities = static_cast<size_t>(flood_entities);
    config.seed = 42;
    datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
    std::vector<model::EntityDescription> entities;
    entities.reserve(corpus.collection.size());
    for (model::EntityId eid = 0; eid < corpus.collection.size(); ++eid) {
      entities.push_back(corpus.collection.at(eid));
    }
    serve::LoadGenOptions options;
    options.workers = static_cast<size_t>(workers);
    options.batch_size = static_cast<size_t>(batch);
    options.rate = rate;
    serve::LoadGenResult result =
        serve::RunSocketIngestLoad(entities, options, socket_path);
    std::printf(
        "flood requests=%llu ok=%llu shed=%llu errors=%llu "
        "entities_ok=%llu qps=%.1f entities_per_s=%.1f "
        "p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f\n",
        static_cast<unsigned long long>(result.requests),
        static_cast<unsigned long long>(result.ok),
        static_cast<unsigned long long>(result.shed),
        static_cast<unsigned long long>(result.errors),
        static_cast<unsigned long long>(result.entities_ok), result.qps,
        result.entities_per_second, result.p50_ms, result.p99_ms,
        result.p999_ms);
    return result.errors == 0 ? 0 : 1;
  }

  serve::ServeClient client;
  if (!client.Connect(socket_path)) {
    std::fprintf(stderr, "weber_serve: cannot connect to %s\n",
                 socket_path.c_str());
    return 1;
  }
  serve::Request request;
  if (command == "ping") {
    request.type = serve::MessageType::kPing;
  } else if (command == "metrics") {
    request.type = serve::MessageType::kMetrics;
  } else if (command == "shutdown") {
    request.type = serve::MessageType::kShutdown;
  } else if (command == "resolve") {
    request.type = serve::MessageType::kResolve;
    request.id = static_cast<model::EntityId>(id);
  } else if (command == "remove") {
    request.type = serve::MessageType::kRemove;
    request.id = static_cast<model::EntityId>(id);
  } else {
    return UsageFail("no client command given");
  }
  serve::Response response = client.Call(request);
  std::printf("%s status=%s", command.c_str(),
              serve::ServeErrcName(response.status));
  if (command == "resolve" && response.status == serve::ServeErrc::kOk) {
    std::printf(" representative=%u members=%zu", response.representative,
                response.members.size());
  }
  std::printf("\n");
  if (!response.text.empty()) std::fputs(response.text.c_str(), stdout);
  return response.status == serve::ServeErrc::kOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string connect_path;
  std::string client_command;
  std::string data_dir;
  uint64_t shards = 1;
  double threshold = 0.5;
  uint64_t max_batch = 256;
  uint64_t max_queue = 4096;
  uint64_t id = 0;
  uint64_t flood_entities = 1000;
  uint64_t workers = 4;
  uint64_t batch = 64;
  double rate = 0;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto value_of = [&](size_t* i) -> std::optional<std::string> {
    if (*i + 1 >= args.size()) return std::nullopt;
    return args[++*i];
  };
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto flag_value = [&](const std::string& flag,
                          std::string* out) -> bool {
      if (arg == flag) {
        auto v = value_of(&i);
        if (!v) return false;
        *out = *v;
        return true;
      }
      if (arg.rfind(flag + "=", 0) == 0) {
        *out = arg.substr(flag.size() + 1);
        return true;
      }
      return false;
    };
    std::string v;
    if (flag_value("--socket", &v)) {
      socket_path = v;
      if (socket_path.empty()) return UsageFail("bad --socket value");
    } else if (flag_value("--connect", &v)) {
      connect_path = v;
      if (connect_path.empty()) return UsageFail("bad --connect value");
    } else if (flag_value("--shards", &v)) {
      if (!ParseUnsigned(v, &shards) || shards == 0 ||
          shards > serve::ShardedResolver::kMaxShards) {
        return UsageFail("bad --shards " + v + " (want 1..64)");
      }
    } else if (flag_value("--threshold", &v)) {
      if (!ParseDouble(v, &threshold) || threshold < 0 || threshold > 1) {
        return UsageFail("bad --threshold " + v);
      }
    } else if (flag_value("--max-batch", &v)) {
      if (!ParseUnsigned(v, &max_batch) || max_batch == 0) {
        return UsageFail("bad --max-batch " + v);
      }
    } else if (flag_value("--max-queue", &v)) {
      if (!ParseUnsigned(v, &max_queue)) {
        return UsageFail("bad --max-queue " + v);
      }
    } else if (flag_value("--data-dir", &v)) {
      data_dir = v;
      if (data_dir.empty()) return UsageFail("bad --data-dir value");
    } else if (flag_value("--fsync", &v)) {
      if (v == "always") {
        fsync = storage::FsyncPolicy::kAlways;
      } else if (v == "batch") {
        fsync = storage::FsyncPolicy::kBatch;
      } else if (v == "off") {
        fsync = storage::FsyncPolicy::kOff;
      } else {
        return UsageFail("bad --fsync " + v);
      }
    } else if (arg == "--ping" || arg == "--metrics" || arg == "--shutdown") {
      client_command = arg.substr(2);
    } else if (flag_value("--resolve", &v)) {
      client_command = "resolve";
      if (!ParseUnsigned(v, &id)) return UsageFail("bad --resolve " + v);
    } else if (flag_value("--remove", &v)) {
      client_command = "remove";
      if (!ParseUnsigned(v, &id)) return UsageFail("bad --remove " + v);
    } else if (flag_value("--flood", &v)) {
      client_command = "flood";
      if (!ParseUnsigned(v, &flood_entities) || flood_entities == 0) {
        return UsageFail("bad --flood " + v);
      }
    } else if (flag_value("--workers", &v)) {
      if (!ParseUnsigned(v, &workers) || workers == 0) {
        return UsageFail("bad --workers " + v);
      }
    } else if (flag_value("--batch", &v)) {
      if (!ParseUnsigned(v, &batch) || batch == 0) {
        return UsageFail("bad --batch " + v);
      }
    } else if (flag_value("--rate", &v)) {
      if (!ParseDouble(v, &rate) || rate < 0) {
        return UsageFail("bad --rate " + v);
      }
    } else {
      return UsageFail("unknown flag " + arg);
    }
  }

  if (!connect_path.empty()) {
    if (!socket_path.empty()) {
      return UsageFail("--socket and --connect are mutually exclusive");
    }
    if (client_command.empty()) {
      return UsageFail("--connect needs a client command");
    }
    return RunClient(connect_path, client_command, id, flood_entities,
                     workers, batch, rate);
  }
  if (socket_path.empty()) return UsageFail("--socket is required");
  if (!client_command.empty()) {
    return UsageFail("client commands need --connect");
  }
  if (!data_dir.empty() && !storage::DirectoryExists(data_dir)) {
    return UsageFail("--data-dir " + data_dir +
                     " is not an existing directory");
  }

  matching::TokenJaccardMatcher matcher;
  serve::ShardedServiceOptions options;
  options.max_batch = static_cast<size_t>(max_batch);
  options.max_queue_entities = static_cast<size_t>(max_queue);
  options.resolver.shards = static_cast<size_t>(shards);
  options.resolver.match_threshold = threshold;
  options.resolver.data_dir = data_dir;
  options.resolver.fsync = fsync;
  serve::ShardedResolveService service(&matcher, options);
  if (!service.recovery_status().ok()) {
    std::fprintf(stderr, "weber_serve: recovery failed: %s\n",
                 service.recovery_status().ToString().c_str());
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  serve::UnixServer server(&service, server_options);
  storage::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "weber_serve: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "weber_serve: listening on %s (shards=%llu, recovered "
               "osn=%llu, entities=%zu)\n",
               socket_path.c_str(), static_cast<unsigned long long>(shards),
               static_cast<unsigned long long>(service.resolver().osn()),
               service.resolver().size());
  status = server.Serve();
  if (!status.ok()) {
    std::fprintf(stderr, "weber_serve: final sync failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "weber_serve: drained and stopped (requests=%llu, "
               "batches=%llu, shed=%llu)\n",
               static_cast<unsigned long long>(service.requests()),
               static_cast<unsigned long long>(service.batches_run()),
               static_cast<unsigned long long>(service.shed()));
  return 0;
}
