#include "engine/engine_factory.h"

#include <charconv>

#include "engine/centralized.h"
#include "engine/engine_snapshot.h"
#include "engine/hdk_engine.h"
#include "engine/result_cache.h"
#include "engine/st_engine.h"

namespace hdk::engine {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// The "cached" decorator: LRU capacity from the spec argument,
/// kDefaultResultCacheCapacity otherwise.
Result<std::unique_ptr<SearchEngine>> MakeCached(
    std::unique_ptr<SearchEngine> inner, std::string_view arg) {
  size_t capacity = kDefaultResultCacheCapacity;
  if (!arg.empty()) {
    size_t parsed = 0;
    auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), parsed);
    if (ec != std::errc() || ptr != arg.data() + arg.size() ||
        parsed == 0) {
      return Status::InvalidArgument(
          "cached: capacity argument must be a positive integer, got '" +
          std::string(arg) + "'");
    }
    capacity = parsed;
  }
  return std::unique_ptr<SearchEngine>(
      std::make_unique<ResultCacheEngine>(std::move(inner), capacity));
}

/// Wraps an already-built engine in `spec`'s decorator stack, innermost
/// first: the shared tail of the build and snapshot-load paths.
Result<std::unique_ptr<SearchEngine>> ApplyEngineDecorators(
    const EngineSpec& spec, std::unique_ptr<SearchEngine> engine) {
  for (auto it = spec.decorators.rbegin(); it != spec.decorators.rend();
       ++it) {
    if (it->name != "cached") {
      return Status::InvalidArgument("EngineSpec: unknown decorator '" +
                                     it->name + "'");
    }
    HDK_ASSIGN_OR_RETURN(engine, MakeCached(std::move(engine), it->arg));
  }
  return engine;
}

}  // namespace

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHdk:
      return "hdk";
    case EngineKind::kSingleTerm:
      return "single-term";
    case EngineKind::kCentralized:
      return "centralized";
  }
  return "unknown";
}

std::optional<EngineKind> ParseEngineKind(std::string_view name) {
  for (EngineKind kind : kAllEngineKinds) {
    if (name == EngineKindName(kind)) return kind;
  }
  // Accept common aliases.
  if (name == "st") return EngineKind::kSingleTerm;
  if (name == "bm25") return EngineKind::kCentralized;
  return std::nullopt;
}

Result<EngineSpec> EngineSpec::Parse(std::string_view spec) {
  EngineSpec parsed;
  std::string_view rest = Trim(spec);
  while (true) {
    const size_t open = rest.find('(');
    if (open == std::string_view::npos) break;
    // "name(" or "name:arg(" — a decorator layer.
    std::string_view head = Trim(rest.substr(0, open));
    if (rest.empty() || rest.back() != ')') {
      return Status::InvalidArgument("EngineSpec: missing ')' in '" +
                                     std::string(spec) + "'");
    }
    std::string_view arg;
    const size_t colon = head.find(':');
    if (colon != std::string_view::npos) {
      arg = Trim(head.substr(colon + 1));
      head = Trim(head.substr(0, colon));
      if (arg.empty()) {
        return Status::InvalidArgument(
            "EngineSpec: ':' without an argument in '" +
            std::string(spec) + "'");
      }
    }
    if (head.empty()) {
      return Status::InvalidArgument(
          "EngineSpec: empty decorator name in '" + std::string(spec) +
          "'");
    }
    parsed.decorators.push_back(
        Decorator{std::string(head), std::string(arg)});
    rest = Trim(rest.substr(open + 1, rest.size() - open - 2));
  }
  const std::optional<EngineKind> kind = ParseEngineKind(Trim(rest));
  if (!kind.has_value()) {
    return Status::InvalidArgument("EngineSpec: unknown backend '" +
                                   std::string(Trim(rest)) + "' in '" +
                                   std::string(spec) + "'");
  }
  parsed.kind = *kind;
  return parsed;
}

std::string EngineSpec::ToString() const {
  std::string out;
  for (const Decorator& decorator : decorators) {
    out += decorator.name;
    if (!decorator.arg.empty()) out += ":" + decorator.arg;
    out += "(";
  }
  out += std::string(EngineKindName(kind));
  out.append(decorators.size(), ')');
  return out;
}

Result<std::unique_ptr<SearchEngine>> MakeEngine(
    EngineKind kind, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges) {
  switch (kind) {
    case EngineKind::kHdk: {
      HDK_ASSIGN_OR_RETURN(std::unique_ptr<HdkSearchEngine> engine,
                           HdkSearchEngine::Build(config, store,
                                                  std::move(peer_ranges)));
      return std::unique_ptr<SearchEngine>(std::move(engine));
    }
    case EngineKind::kSingleTerm: {
      HDK_ASSIGN_OR_RETURN(
          std::unique_ptr<SingleTermEngine> engine,
          SingleTermEngine::Build(config, store, std::move(peer_ranges)));
      return std::unique_ptr<SearchEngine>(std::move(engine));
    }
    case EngineKind::kCentralized: {
      HDK_ASSIGN_OR_RETURN(
          std::unique_ptr<CentralizedBm25Engine> engine,
          CentralizedBm25Engine::BuildOverRanges(
              store, std::move(peer_ranges), config.bm25,
              config.num_threads));
      return std::unique_ptr<SearchEngine>(std::move(engine));
    }
  }
  return Status::InvalidArgument("unknown engine kind");
}

Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges) {
  HDK_ASSIGN_OR_RETURN(
      std::unique_ptr<SearchEngine> engine,
      MakeEngine(spec.kind, config, store, std::move(peer_ranges)));
  return ApplyEngineDecorators(spec, std::move(engine));
}

Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges) {
  HDK_ASSIGN_OR_RETURN(EngineSpec parsed, EngineSpec::Parse(spec));
  return MakeEngine(parsed, config, store, std::move(peer_ranges));
}

Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot) {
  if (spec.kind != EngineKind::kHdk) {
    return Status::Unimplemented(
        "snapshots are only supported by the 'hdk' backend, not '" +
        std::string(EngineKindName(spec.kind)) + "'");
  }
  HDK_ASSIGN_OR_RETURN(
      std::unique_ptr<HdkSearchEngine> engine,
      LoadEngineSnapshot(config, store, snapshot.path));
  return ApplyEngineDecorators(spec,
                               std::unique_ptr<SearchEngine>(
                                   std::move(engine)));
}

Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot) {
  HDK_ASSIGN_OR_RETURN(EngineSpec parsed, EngineSpec::Parse(spec));
  return MakeEngine(parsed, config, store, snapshot);
}

}  // namespace hdk::engine
