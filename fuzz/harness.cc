#include "fuzz/harness.h"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serve/protocol.h"
#include "storage/snapshot.h"
#include "storage/status.h"
#include "storage/wal.h"
#include "util/check.h"

namespace weber::fuzz {

namespace {

bool IsWalParseStatus(storage::StorageErrc code) {
  // Parse works on in-memory bytes: kIoError (and friends) would mean a
  // filesystem concern leaked into the byte-level validator.
  return code == storage::StorageErrc::kOk ||
         code == storage::StorageErrc::kBadMagic ||
         code == storage::StorageErrc::kBadVersion ||
         code == storage::StorageErrc::kWalCorrupt;
}

bool IsImageDigestStatus(storage::StorageErrc code) {
  return code == storage::StorageErrc::kOk ||
         code == storage::StorageErrc::kBadMagic ||
         code == storage::StorageErrc::kBadVersion ||
         code == storage::StorageErrc::kCorruptHeader ||
         code == storage::StorageErrc::kCorruptSection;
}

}  // namespace

int WalFrameTestOneInput(const uint8_t* data, size_t size) {
  storage::WriteAheadLog::Contents contents;
  storage::Status status =
      storage::WriteAheadLog::Parse({data, size}, &contents);
  WEBER_CHECK(IsWalParseStatus(status.code()))
      << "WAL Parse returned an out-of-contract status: "
      << status.ToString();
  if (status.ok()) {
    // Accounting invariant: every byte is either part of a good frame
    // (or the header) or torn tail — nothing is silently skipped.
    WEBER_CHECK_EQ(contents.good_size + contents.torn_bytes,
                   static_cast<uint64_t>(size))
        << "WAL Parse lost bytes: good=" << contents.good_size
        << " torn=" << contents.torn_bytes << " size=" << size;
    // Payloads view the image the Contents owns, inside its good frames.
    const uint8_t* begin = contents.bytes.data();
    for (const storage::WriteAheadLog::Record& record : contents.records) {
      WEBER_CHECK(record.payload.empty() ||
                  (record.payload.data() >= begin &&
                   record.payload.data() + record.payload.size() <=
                       begin + contents.good_size))
          << "WAL Parse returned a payload outside its image";
    }
  } else {
    // Fail-closed: a rejected image surrenders no records.
    WEBER_CHECK(contents.records.empty())
        << "WAL Parse returned records alongside " << status.ToString();
  }
  return 0;
}

int SnapshotHeaderTestOneInput(const uint8_t* data, size_t size) {
  uint32_t digest = 0;
  storage::Status status =
      storage::SnapshotCodec::ImageDigest({data, size}, &digest);
  WEBER_CHECK(IsImageDigestStatus(status.code()))
      << "ImageDigest returned an out-of-contract status: "
      << status.ToString();
  return 0;
}

int ServeProtocolTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  // First byte picks the surface so one corpus exercises both decoders;
  // the rest is the frame body.
  const bool as_request = (data[0] & 1) == 0;
  const uint8_t* body = data + 1;
  const size_t body_size = size - 1;
  if (as_request) {
    std::optional<serve::Request> decoded =
        serve::DecodeRequest(body, body_size);
    if (!decoded.has_value()) return 0;
    // Accepted inputs must round-trip: re-encoding reaches a fixed point
    // after one pass, so the codec cannot drift under re-serialization.
    std::vector<uint8_t> encoded = serve::EncodeRequest(*decoded);
    std::optional<serve::Request> again =
        serve::DecodeRequest(encoded.data(), encoded.size());
    WEBER_CHECK(again.has_value())
        << "EncodeRequest produced bytes DecodeRequest rejects";
    WEBER_CHECK(serve::EncodeRequest(*again) == encoded)
        << "request encode/decode is not a fixed point";
  } else {
    std::optional<serve::Response> decoded =
        serve::DecodeResponse(body, body_size);
    if (!decoded.has_value()) return 0;
    std::vector<uint8_t> encoded = serve::EncodeResponse(*decoded);
    std::optional<serve::Response> again =
        serve::DecodeResponse(encoded.data(), encoded.size());
    WEBER_CHECK(again.has_value())
        << "EncodeResponse produced bytes DecodeResponse rejects";
    WEBER_CHECK(serve::EncodeResponse(*again) == encoded)
        << "response encode/decode is not a fixed point";
  }
  return 0;
}

}  // namespace weber::fuzz
