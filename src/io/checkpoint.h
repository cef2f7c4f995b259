// Run checkpoints (docs/RECOVERY.md): full resume-frontier snapshots written
// periodically by fl::Simulation — the one file format an FL run is stopped
// and resumed through. This layer owns only the outer framing — magic,
// format version, opaque payload, CRC-32 footer — plus the atomic write
// (tmp file + rename) and latest-file discovery. The payload is produced
// and consumed by Simulation::snapshot_state/restore_state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fedsu::io {

inline constexpr std::uint32_t kRunCheckpointMagic = 0xFED5'C4EC;
inline constexpr std::uint32_t kRunCheckpointVersion = 1;

// Atomically writes `payload` as `dir/ckpt-<round>.fedsu` (tmp file in the
// same directory, then std::rename, so a crash mid-write never leaves a
// half-visible checkpoint). Creates `dir` if needed. Returns the final
// path. Throws on I/O failure. The header, the payload and the CRC footer
// stream to the file as they are; no frame is assembled in memory.
std::string save_run_checkpoint(const std::string& dir, int round,
                                const std::vector<std::uint8_t>& payload);

// Verifies the outer frame (magic, version, length, CRC-32 footer) and
// returns the payload. Any damage — wrong magic, truncation, a flipped
// bit — throws with a diagnostic naming the failure; no partially-valid
// payload is ever returned. The length field must match the file size
// before anything is allocated; the payload is then read once, into the
// returned vector.
std::vector<std::uint8_t> load_run_checkpoint(const std::string& path);

// Path of the highest-round `ckpt-<round>.fedsu` in `dir`, or "" when the
// directory has none (or does not exist).
std::string find_latest_run_checkpoint(const std::string& dir);

// Retention GC: deletes the oldest-round `ckpt-<round>.fedsu` files in `dir`
// until at most `keep` remain; keep <= 0 keeps everything (the historical
// behaviour). Files that fail to delete are skipped — retention must never
// kill a run, and the next prune retries. Returns the number removed.
std::size_t prune_run_checkpoints(const std::string& dir, int keep);

}  // namespace fedsu::io
