#ifndef WEBER_STORAGE_ENTITY_CODEC_H_
#define WEBER_STORAGE_ENTITY_CODEC_H_

#include "model/entity.h"
#include "storage/buffer.h"

namespace weber::storage {

/// Deterministic byte encoding of one EntityDescription — the shared
/// record format of WAL ingest payloads and the snapshot's store
/// manifest. Strings are length-prefixed, vectors count-prefixed, and the
/// field order is fixed, so encoding the same description always produces
/// the same bytes (the bit-equality digest depends on it).

inline void EncodeDescription(const model::EntityDescription& description,
                              ByteWriter* out) {
  out->PutString(description.uri());
  out->PutString(description.type());
  out->PutU32(static_cast<uint32_t>(description.pairs().size()));
  for (const model::AttributeValue& pair : description.pairs()) {
    out->PutString(pair.attribute);
    out->PutString(pair.value);
  }
  out->PutU32(static_cast<uint32_t>(description.relations().size()));
  for (const model::Relation& relation : description.relations()) {
    out->PutString(relation.predicate);
    out->PutString(relation.target_uri);
  }
}

inline model::EntityDescription DecodeDescription(ByteReader* in) {
  // Sequenced explicitly: two GetString() calls in one argument list would
  // read uri and type in unspecified order.
  std::string uri = in->GetString();
  std::string type = in->GetString();
  model::EntityDescription description(std::move(uri), std::move(type));
  uint32_t pairs = in->GetU32();
  for (uint32_t i = 0; i < pairs && !in->failed(); ++i) {
    std::string attribute = in->GetString();
    std::string value = in->GetString();
    description.AddPair(std::move(attribute), std::move(value));
  }
  uint32_t relations = in->GetU32();
  for (uint32_t i = 0; i < relations && !in->failed(); ++i) {
    std::string predicate = in->GetString();
    std::string target = in->GetString();
    description.AddRelation(std::move(predicate), std::move(target));
  }
  return description;
}

/// Walks one EncodeDescription record without building it: the structural
/// check of DecodeDescription (every length within range) at no
/// allocation. Sets `in`'s failed flag on the first field that overruns.
inline void SkipDescription(ByteReader* in) {
  auto skip_string = [in] { in->Skip(in->GetU32()); };
  skip_string();  // uri
  skip_string();  // type
  for (int list = 0; list < 2; ++list) {  // pairs, then relations
    uint32_t count = in->GetU32();
    for (uint32_t i = 0; i < count && !in->failed(); ++i) {
      skip_string();
      skip_string();
    }
  }
}

}  // namespace weber::storage

#endif  // WEBER_STORAGE_ENTITY_CODEC_H_
