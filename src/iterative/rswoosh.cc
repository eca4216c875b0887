#include "iterative/rswoosh.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "matching/signatures.h"
#include "util/union_find.h"

namespace weber::iterative {

SwooshResult RSwoosh(const model::EntityCollection& collection,
                     const matching::ThresholdMatcher& matcher,
                     bool use_signatures) {
  SwooshResult result;

  // Work items reference their (possibly merged) description plus the
  // source ids it covers; merged descriptions live in a deque so their
  // addresses stay stable for the signature fallback provider.
  struct Item {
    const model::EntityDescription* description = nullptr;
    std::vector<model::EntityId> sources;
    model::EntityId sig = 0;  // Slot in the signature store.
  };
  std::deque<model::EntityDescription> merged_arena;
  std::unordered_map<model::EntityId, const model::EntityDescription*>
      merged_of_sig;

  // Signature engine: originals are interned once; merges derive their
  // slots by sorted union. String fallbacks (e.g. TF-IDF on merged slots)
  // resolve descriptions through the provider below.
  std::optional<matching::SignatureStore> store;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  if (use_signatures && matching::Preparable(matcher.matcher())) {
    store.emplace(matching::SignatureStore::Build(
        collection, matching::OptionsFor(matcher.matcher())));
    store->SetDescriptionProvider(
        [&collection, &merged_of_sig](model::EntityId id,
                                      model::EntityDescription*)
            -> const model::EntityDescription* {
          if (id < collection.size()) return &collection.descriptions()[id];
          auto it = merged_of_sig.find(id);
          return it == merged_of_sig.end() ? nullptr : it->second;
        });
    prepared = matching::Prepare(matcher.matcher(), *store);
  }

  std::deque<Item> input;
  for (model::EntityId id = 0; id < collection.size(); ++id) {
    input.push_back({&collection.descriptions()[id], {id}, id});
  }

  std::vector<Item> resolved;  // I'.
  while (!input.empty()) {
    Item item = std::move(input.front());
    input.pop_front();
    bool merged = false;
    for (size_t i = 0; i < resolved.size(); ++i) {
      ++result.comparisons;
      bool is_match =
          prepared != nullptr
              ? prepared->Matches(item.sig, resolved[i].sig,
                                  matcher.threshold())
              : matcher.Matches(*item.description, *resolved[i].description);
      if (is_match) {
        // Merge and recycle through the input queue: the merged record may
        // now match records that neither part matched alone.
        merged_arena.push_back(*item.description);
        merged_arena.back().MergeFrom(*resolved[i].description);
        item.description = &merged_arena.back();
        item.sources.insert(item.sources.end(),
                            resolved[i].sources.begin(),
                            resolved[i].sources.end());
        if (prepared != nullptr) {
          // Sorted-union signature for the merge — no re-tokenisation —
          // then retire the constituents' slots.
          model::EntityId sig =
              store->AppendMerged(item.sig, resolved[i].sig);
          store->Release(item.sig);
          store->Release(resolved[i].sig);
          merged_of_sig.erase(item.sig);
          merged_of_sig.erase(resolved[i].sig);
          merged_of_sig.emplace(sig, item.description);
          item.sig = sig;
        }
        resolved.erase(resolved.begin() + static_cast<int64_t>(i));
        input.push_back(std::move(item));
        ++result.merges;
        merged = true;
        break;
      }
    }
    if (!merged) {
      resolved.push_back(std::move(item));
    }
  }

  result.resolved.reserve(resolved.size());
  result.clusters.reserve(resolved.size());
  for (Item& item : resolved) {
    std::sort(item.sources.begin(), item.sources.end());
    result.resolved.push_back(*item.description);
    result.clusters.push_back(std::move(item.sources));
  }
  return result;
}

SwooshResult GSwoosh(const model::EntityCollection& collection,
                     const matching::ThresholdMatcher& matcher,
                     const GSwooshOptions& options) {
  SwooshResult result;
  size_t n = collection.size();
  if (n == 0) return result;

  // A G-Swoosh record: a (partial) merge identified by its source set.
  struct Record {
    model::EntityDescription description;
    std::vector<model::EntityId> sources;  // Sorted.
  };
  auto signature_of = [](const std::vector<model::EntityId>& sources) {
    std::string signature;
    for (model::EntityId id : sources) {
      signature += std::to_string(id);
      signature.push_back(',');
    }
    return signature;
  };
  auto is_subset = [](const std::vector<model::EntityId>& small,
                      const std::vector<model::EntityId>& big) {
    return std::includes(big.begin(), big.end(), small.begin(),
                         small.end());
  };
  auto comparable = [&collection](const Record& x, const Record& y) {
    for (model::EntityId a : x.sources) {
      for (model::EntityId b : y.sources) {
        if (collection.Comparable(a, b)) return true;
      }
    }
    return false;
  };

  std::deque<Record> queue;
  std::unordered_set<std::string> seen;
  for (model::EntityId id = 0; id < n; ++id) {
    Record record{collection[id], {id}};
    seen.insert(signature_of(record.sources));
    queue.push_back(std::move(record));
  }
  size_t records_created = n;

  util::UnionFind forest(n);
  std::vector<Record> resolved;  // I': records are never removed.
  while (!queue.empty()) {
    Record record = std::move(queue.front());
    queue.pop_front();
    for (const Record& other : resolved) {
      // Subset merges add no information in either direction.
      if (is_subset(record.sources, other.sources) ||
          is_subset(other.sources, record.sources)) {
        continue;
      }
      if (!comparable(record, other)) continue;
      if (options.max_comparisons != 0 &&
          result.comparisons >= options.max_comparisons) {
        break;
      }
      ++result.comparisons;
      if (!matcher.Matches(record.description, other.description)) continue;
      ++result.merges;
      forest.Union(record.sources.front(), other.sources.front());
      // Materialise the merge unless already explored or over cap.
      std::vector<model::EntityId> merged_sources;
      std::set_union(record.sources.begin(), record.sources.end(),
                     other.sources.begin(), other.sources.end(),
                     std::back_inserter(merged_sources));
      std::string signature = signature_of(merged_sources);
      if (seen.contains(signature)) continue;
      if (options.max_records != 0 &&
          records_created >= options.max_records) {
        continue;
      }
      seen.insert(std::move(signature));
      ++records_created;
      Record merged;
      merged.description = record.description;
      merged.description.MergeFrom(other.description);
      merged.sources = std::move(merged_sources);
      queue.push_back(std::move(merged));
    }
    resolved.push_back(std::move(record));
  }

  // Output: one maximal record per connected group of originals.
  result.clusters = forest.Groups(/*include_singletons=*/true);
  result.resolved.reserve(result.clusters.size());
  for (std::vector<model::EntityId>& cluster : result.clusters) {
    std::sort(cluster.begin(), cluster.end());
    model::EntityDescription merged = collection[cluster.front()];
    for (size_t i = 1; i < cluster.size(); ++i) {
      merged.MergeFrom(collection[cluster[i]]);
    }
    result.resolved.push_back(std::move(merged));
  }
  return result;
}

SwooshResult NaivePairwiseResolve(const model::EntityCollection& collection,
                                  const matching::ThresholdMatcher& matcher,
                                  bool use_signatures) {
  SwooshResult result;
  // Only original pairs are scored, so no fallback provider is needed.
  std::optional<matching::SignatureStore> store;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  if (use_signatures && matching::Preparable(matcher.matcher())) {
    store.emplace(matching::SignatureStore::Build(
        collection, matching::OptionsFor(matcher.matcher())));
    prepared = matching::Prepare(matcher.matcher(), *store);
  }
  util::UnionFind forest(collection.size());
  for (model::EntityId a = 0; a < collection.size(); ++a) {
    for (model::EntityId b = a + 1; b < collection.size(); ++b) {
      if (!collection.Comparable(a, b)) continue;
      ++result.comparisons;
      bool is_match = prepared != nullptr
                          ? prepared->Matches(a, b, matcher.threshold())
                          : matcher.Matches(collection[a], collection[b]);
      if (is_match) {
        if (forest.Union(a, b)) ++result.merges;
      }
    }
  }
  result.clusters = forest.Groups(/*include_singletons=*/true);
  for (const std::vector<model::EntityId>& cluster : result.clusters) {
    model::EntityDescription merged = collection[cluster.front()];
    for (size_t i = 1; i < cluster.size(); ++i) {
      merged.MergeFrom(collection[cluster[i]]);
    }
    result.resolved.push_back(std::move(merged));
  }
  return result;
}

}  // namespace weber::iterative
