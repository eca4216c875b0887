#include "iterative/iterative_blocking.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "matching/signatures.h"
#include "model/ground_truth.h"
#include "util/union_find.h"

namespace weber::iterative {

namespace {

// Builds the final clusters/resolved arrays from a union-find over the
// original ids.
void Finalize(const model::EntityCollection& collection,
              util::UnionFind& forest, IterativeBlockingResult& result) {
  result.clusters = forest.Groups(/*include_singletons=*/true);
  result.resolved.reserve(result.clusters.size());
  for (const std::vector<model::EntityId>& cluster : result.clusters) {
    model::EntityDescription merged = collection[cluster.front()];
    for (size_t i = 1; i < cluster.size(); ++i) {
      merged.MergeFrom(collection[cluster[i]]);
    }
    result.resolved.push_back(std::move(merged));
  }
}

}  // namespace

IterativeBlockingResult IterativeBlocking(
    const blocking::BlockCollection& blocks,
    const matching::ThresholdMatcher& matcher, bool use_signatures) {
  IterativeBlockingResult result;
  const model::EntityCollection* collection = blocks.collection();
  if (collection == nullptr || collection->empty()) return result;
  size_t n = collection->size();

  util::UnionFind forest(n);
  // Current merged description of each root.
  std::unordered_map<uint32_t, model::EntityDescription> merged;
  // Signature slot of each root (original ids until the first merge);
  // merged descriptions for the fallback provider, keyed by slot.
  std::unordered_map<uint32_t, model::EntityId> sig_of;
  std::unordered_map<model::EntityId, const model::EntityDescription*>
      desc_of_sig;
  for (model::EntityId id = 0; id < n; ++id) {
    merged.emplace(id, (*collection)[id]);
    sig_of.emplace(id, id);
  }

  // Signature engine: roots are compared over interned token ids; each
  // merge derives a slot by sorted union instead of re-tokenising.
  std::optional<matching::SignatureStore> store;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  if (use_signatures && matching::Preparable(matcher.matcher())) {
    store.emplace(matching::SignatureStore::Build(
        *collection, matching::OptionsFor(matcher.matcher())));
    store->SetDescriptionProvider(
        [collection, n, &desc_of_sig](model::EntityId id,
                                      model::EntityDescription*)
            -> const model::EntityDescription* {
          if (id < n) return &(*collection)[id];
          auto it = desc_of_sig.find(id);
          return it == desc_of_sig.end() ? nullptr : it->second;
        });
    prepared = matching::Prepare(matcher.matcher(), *store);
  }
  // Version of each root: bumped on merge; lets the comparison cache
  // detect that a previously-failed pair must be retried because one side
  // gained information.
  std::vector<uint32_t> version(n, 0);
  // Blocks containing at least one member of each root's cluster.
  std::unordered_map<uint32_t, std::set<uint32_t>> blocks_of_root;
  for (uint32_t b = 0; b < blocks.NumBlocks(); ++b) {
    for (model::EntityId id : blocks.blocks()[b].entities) {
      blocks_of_root[id].insert(b);
    }
  }
  // Failed comparisons with the versions they were tried at.
  std::unordered_map<model::IdPair, std::pair<uint32_t, uint32_t>,
                     model::IdPairHash>
      failed_at;

  std::deque<uint32_t> queue;
  std::vector<bool> queued(blocks.NumBlocks(), false);
  for (uint32_t b = 0; b < blocks.NumBlocks(); ++b) {
    queue.push_back(b);
    queued[b] = true;
  }

  while (!queue.empty()) {
    uint32_t b = queue.front();
    queue.pop_front();
    queued[b] = false;
    ++result.block_passes;

    // Distinct live roots present in this block, in ascending order for
    // determinism.
    std::set<uint32_t> roots;
    for (model::EntityId id : blocks.blocks()[b].entities) {
      roots.insert(forest.Find(id));
    }
    bool changed = true;
    while (changed && roots.size() > 1) {
      changed = false;
      // Try every pair of live roots once per information state.
      for (auto it_a = roots.begin(); it_a != roots.end() && !changed;
           ++it_a) {
        auto it_b = it_a;
        for (++it_b; it_b != roots.end(); ++it_b) {
          uint32_t root_a = *it_a;
          uint32_t root_b = *it_b;
          if (collection->setting() == model::ErSetting::kCleanClean &&
              !collection->Comparable(root_a, root_b)) {
            // In clean-clean, cluster roots of the same source stay apart
            // unless bridged elsewhere; skip the direct comparison.
            continue;
          }
          model::IdPair pair = model::IdPair::Of(root_a, root_b);
          auto cached = failed_at.find(pair);
          if (cached != failed_at.end() &&
              cached->second ==
                  std::make_pair(version[pair.low], version[pair.high])) {
            continue;  // Already failed at this information state.
          }
          ++result.comparisons;
          bool is_match =
              prepared != nullptr
                  ? prepared->Matches(sig_of.at(root_a), sig_of.at(root_b),
                                      matcher.threshold())
                  : matcher.Matches(merged.at(root_a), merged.at(root_b));
          if (!is_match) {
            failed_at[pair] = {version[pair.low], version[pair.high]};
            continue;
          }
          // Merge root_b into root_a (union chooses the real survivor).
          forest.Union(root_a, root_b);
          ++result.merges;
          uint32_t survivor = forest.Find(root_a);
          uint32_t absorbed = survivor == root_a ? root_b : root_a;
          merged.at(survivor).MergeFrom(merged.at(absorbed));
          merged.erase(absorbed);
          ++version[survivor];
          if (prepared != nullptr) {
            // Survivor-first union mirrors the MergeFrom order above;
            // retire the constituents' slots.
            model::EntityId sig = store->AppendMerged(sig_of.at(survivor),
                                                      sig_of.at(absorbed));
            store->Release(sig_of.at(survivor));
            store->Release(sig_of.at(absorbed));
            desc_of_sig.erase(sig_of.at(survivor));
            desc_of_sig.erase(sig_of.at(absorbed));
            sig_of.erase(absorbed);
            sig_of[survivor] = sig;
            // unordered_map values are node-stable, so the address of the
            // survivor's merged description outlives future rehashes.
            desc_of_sig[sig] = &merged.at(survivor);
          }
          // Merge block sets and re-enqueue all affected blocks: the
          // merged record replaced the originals everywhere.
          std::set<uint32_t>& survivor_blocks = blocks_of_root[survivor];
          std::set<uint32_t>& absorbed_blocks = blocks_of_root[absorbed];
          survivor_blocks.insert(absorbed_blocks.begin(),
                                 absorbed_blocks.end());
          for (uint32_t affected : survivor_blocks) {
            if (!queued[affected]) {
              queue.push_back(affected);
              queued[affected] = true;
            }
          }
          blocks_of_root.erase(absorbed);
          roots.erase(absorbed);
          if (survivor != root_a) {
            roots.erase(root_a);
            roots.insert(survivor);
          }
          changed = true;
          break;
        }
      }
    }
  }

  Finalize(*collection, forest, result);
  return result;
}

IterativeBlockingResult IndependentBlockER(
    const blocking::BlockCollection& blocks,
    const matching::ThresholdMatcher& matcher, bool use_signatures) {
  IterativeBlockingResult result;
  const model::EntityCollection* collection = blocks.collection();
  if (collection == nullptr || collection->empty()) return result;

  // Only original descriptions are compared here, so the store never
  // needs a fallback provider beyond the collection itself.
  std::optional<matching::SignatureStore> store;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  if (use_signatures && matching::Preparable(matcher.matcher())) {
    store.emplace(matching::SignatureStore::Build(
        *collection, matching::OptionsFor(matcher.matcher())));
    prepared = matching::Prepare(matcher.matcher(), *store);
  }

  util::UnionFind forest(collection->size());
  for (const blocking::Block& block : blocks.blocks()) {
    ++result.block_passes;
    for (size_t i = 0; i < block.entities.size(); ++i) {
      for (size_t j = i + 1; j < block.entities.size(); ++j) {
        model::EntityId a = block.entities[i];
        model::EntityId b = block.entities[j];
        if (!collection->Comparable(a, b)) continue;
        ++result.comparisons;  // Redundant cross-block comparisons paid.
        bool is_match =
            prepared != nullptr
                ? prepared->Matches(a, b, matcher.threshold())
                : matcher.Matches((*collection)[a], (*collection)[b]);
        if (is_match) {
          if (forest.Union(a, b)) ++result.merges;
        }
      }
    }
  }
  Finalize(*collection, forest, result);
  return result;
}

}  // namespace weber::iterative
