#ifndef WEBER_SERVE_VOCABULARY_H_
#define WEBER_SERVE_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace weber::serve {

/// The one token-id map shared by every shard of a ShardedResolver.
///
/// Cross-shard scoring intersects token-id sets drawn from different
/// SignatureStores, which is only meaningful when every store's ids come
/// from a single injective token -> id mapping. The sharded ingest keeps
/// this map consistent with a three-phase discipline:
///   1. parallel phase: Lookup() only (const, any thread);
///   2. serial phase: Intern() the batch's unknown tokens in a
///      deterministic order (single thread, no concurrent readers);
///   3. parallel phase: Lookup() resolves every token.
/// The exact ids do not affect scoring (similarities depend on ids only
/// through set intersections, which any injective renaming preserves),
/// but the assignment must be shard-count independent — interning in
/// (entity, token-position) order makes it so.
class SharedVocabulary {
 public:
  static constexpr uint32_t kUnknown = UINT32_MAX;

  /// The id of `token`, or kUnknown. Safe to call concurrently with other
  /// Lookups, never with Intern.
  uint32_t Lookup(const std::string& token) const {
    auto it = map_.find(token);
    return it == map_.end() ? kUnknown : it->second;
  }

  /// Interns `token` (no-op when known) and returns its id. Serial phase
  /// only.
  uint32_t Intern(const std::string& token) {
    auto [it, inserted] =
        map_.try_emplace(token, static_cast<uint32_t>(map_.size()));
    return it->second;
  }

  size_t size() const { return map_.size(); }

  /// Every token, indexed by its id (snapshot encoding: interning the
  /// list in order into an empty vocabulary reproduces the ids).
  std::vector<const std::string*> ById() const {
    std::vector<const std::string*> by_id(map_.size());
    for (const auto& [token, id] : map_) by_id[id] = &token;
    return by_id;
  }
  void Reserve(size_t count) { map_.reserve(count); }

 private:
  std::unordered_map<std::string, uint32_t> map_;
};

}  // namespace weber::serve

#endif  // WEBER_SERVE_VOCABULARY_H_
