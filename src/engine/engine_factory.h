// Engine registry: build any retrieval backend — optionally wrapped in a
// stack of engine DECORATORS — behind the unified SearchEngine interface.
//
// A spec string names the composition:
//
//   "hdk"                  bare backend (EngineKind)
//   "cached(hdk)"          result-cache decorator over the HDK engine
//   "cached:256(st)"       same, with an explicit capacity argument
//   "cached(cached(hdk))"  decorators nest (outermost first)
//
// Decorators register themselves by name through RegisterEngineDecorator;
// "cached" (engine/result_cache.h) ships built in, and future layers —
// super-peer routing fronts (arXiv:1111.5518), posting caches
// (arXiv:cs/0210010) — plug into the same seam.
#ifndef HDKP2P_ENGINE_ENGINE_FACTORY_H_
#define HDKP2P_ENGINE_ENGINE_FACTORY_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "corpus/document.h"
#include "engine/engine_config.h"
#include "engine/search_engine.h"

namespace hdk::engine {

/// Which retrieval backend answers the queries.
enum class EngineKind {
  kHdk,          // the paper's HDK P2P engine
  kSingleTerm,   // naive distributed single-term baseline
  kCentralized,  // centralized BM25 reference (Terrier stand-in)
};

inline constexpr std::array<EngineKind, 3> kAllEngineKinds = {
    EngineKind::kHdk, EngineKind::kSingleTerm, EngineKind::kCentralized};

/// Stable name ("hdk", "single-term", "centralized").
std::string_view EngineKindName(EngineKind kind);

/// Inverse of EngineKindName; nullopt for unknown names.
std::optional<EngineKind> ParseEngineKind(std::string_view name);

/// A parsed composition: the concrete backend plus the decorator stack
/// wrapped around it, outermost first.
struct EngineSpec {
  struct Decorator {
    std::string name;
    std::string arg;  // empty when the spec gave none
  };

  EngineKind kind = EngineKind::kHdk;
  std::vector<Decorator> decorators;

  /// Parses "deco:arg(deco2(kind))"-style specs (kind aliases of
  /// ParseEngineKind accepted). Unknown decorator or backend names and
  /// malformed nesting are InvalidArgument.
  static Result<EngineSpec> Parse(std::string_view spec);

  /// Canonical spec string ("cached:256(hdk)").
  std::string ToString() const;
};

/// Wraps `inner` according to one registered decorator; `arg` is the
/// spec's per-decorator argument (may be empty).
using EngineDecoratorFactory =
    std::function<Result<std::unique_ptr<SearchEngine>>(
        std::unique_ptr<SearchEngine> inner, std::string_view arg,
        const EngineConfig& config)>;

/// Registers a decorator under `name` (false if the name is taken). The
/// built-in "cached" result cache is pre-registered.
bool RegisterEngineDecorator(std::string_view name,
                             EngineDecoratorFactory factory);

/// Names of all registered decorators, sorted.
std::vector<std::string> RegisteredEngineDecorators();

/// Builds a bare engine of `kind` over the documents covered by
/// `peer_ranges` (the centralized backend indexes the same ranges as
/// logical peers). `store` must outlive the engine.
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    EngineKind kind, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Builds a parsed composition: the backend plus its decorator stack.
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Parses `spec` and builds it — the one-liner benches and examples use:
/// MakeEngine("cached(hdk)", config, store, ranges).
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store,
    std::vector<std::pair<DocId, DocId>> peer_ranges);

/// Wraps an already-built engine in `spec`'s decorator stack (innermost
/// decorator applied first) — the shared tail of every MakeEngine
/// overload, exposed so snapshot loads compose decorators identically.
Result<std::unique_ptr<SearchEngine>> ApplyEngineDecorators(
    const EngineSpec& spec, const EngineConfig& config,
    std::unique_ptr<SearchEngine> engine);

/// Tag type selecting the snapshot-restoring MakeEngine overloads:
/// MakeEngine("cached(hdk)", config, store, SnapshotFile{path}).
struct SnapshotFile {
  std::string path;
};

/// Restores the backend from a snapshot written by SearchEngine::
/// SaveSnapshot instead of rebuilding it, then applies the decorator
/// stack. Only the "hdk" backend supports snapshots (Unimplemented for
/// the others); `config` must hash-match the writer's and `store` must be
/// the corpus the snapshot was built over (see engine/engine_snapshot.h).
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    const EngineSpec& spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot);
Result<std::unique_ptr<SearchEngine>> MakeEngine(
    std::string_view spec, const EngineConfig& config,
    const corpus::DocumentStore& store, const SnapshotFile& snapshot);

}  // namespace hdk::engine

#endif  // HDKP2P_ENGINE_ENGINE_FACTORY_H_
