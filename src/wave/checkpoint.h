// Checkpointing: persist a wave index's METADATA so that an index whose
// buckets live on a durable device (storage/file_device.h) can be reopened
// after a restart without rebuilding anything.
//
// A checkpoint records, for every constituent: its name, packed flag,
// time-set, and each bucket's (value, device extent, count, capacity). The
// bucket BYTES are not copied — they are already on the device; loading
// re-reserves their extents with the allocator and re-registers them in
// fresh directories.
//
// Scope: checkpoints capture the queryable wave index, not the maintenance
// scheme's private state (temporary-index ladders, DaysToAdd). After a
// restart the index serves queries immediately; to resume maintenance,
// start a fresh scheme with Start() over retained day batches, or adopt a
// scheme (like WATA*/DEL) whose state is exactly the constituent set.

#ifndef WAVEKIT_WAVE_CHECKPOINT_H_
#define WAVEKIT_WAVE_CHECKPOINT_H_

#include <memory>
#include <string>
#include <vector>

#include "index/constituent_index.h"
#include "util/result.h"
#include "wave/wave_index.h"

namespace wavekit {

/// Current checkpoint format version. Version 2 added a trailing
/// "footer <body-length> <crc32>" line so corrupt or truncated files are
/// rejected outright instead of partially parsed. Version 3 added each
/// bucket's data CRC-32C (BucketInfo::crc) to the bucket line, persisting
/// the integrity map across restarts. Version 4 added the bucket codec id
/// and stored byte length (index/codec.h), persisting compressed-extent
/// geometry. DeserializeCheckpoint accepts version 4 only.
inline constexpr int kCheckpointVersion = 4;

/// \brief Serializes `wave`'s metadata to a string (one checkpoint file's
/// contents). Deterministic for a given wave index.
Result<std::string> SerializeCheckpoint(const WaveIndex& wave);

/// \brief Writes SerializeCheckpoint(wave) to `path` atomically AND durably
/// (temp file + fsync + rename + parent-directory fsync): after a crash the
/// path holds either the previous complete checkpoint or the new one.
Status WriteCheckpoint(const WaveIndex& wave, const std::string& path);

/// \brief Reconstructs a wave index from checkpoint `contents`. The footer
/// (length + CRC32) is validated before anything is parsed, so a truncated
/// or bit-flipped file fails with a clear InvalidArgument and no partial
/// state.
///
/// `device` must hold the bucket bytes the checkpoint refers to (the same
/// device the wave index was built on); `allocator` must be freshly
/// constructed over that device's range — every bucket extent is Reserved
/// with it so subsequent maintenance cannot clobber live data.
Result<WaveIndex> DeserializeCheckpoint(const std::string& contents,
                                        Device* device,
                                        ExtentAllocator* allocator,
                                        ConstituentIndex::Options options);

/// \brief Reads `path` and deserializes it.
Result<WaveIndex> LoadCheckpoint(const std::string& path, Device* device,
                                 ExtentAllocator* allocator,
                                 ConstituentIndex::Options options);

}  // namespace wavekit

#endif  // WAVEKIT_WAVE_CHECKPOINT_H_
