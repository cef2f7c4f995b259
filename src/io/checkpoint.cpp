#include "io/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "compress/wire.h"
#include "io/serialize.h"

namespace fedsu::io {

namespace {

std::string checkpoint_filename(int round) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08d.fedsu", round);
  return name;
}

// Parses the round out of "ckpt-<round>.fedsu"; -1 when `name` is not a
// run-checkpoint filename.
int parse_checkpoint_round(const std::string& name) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".fedsu";
  if (name.size() < std::strlen(kPrefix) + std::strlen(kSuffix) + 1) return -1;
  if (name.rfind(kPrefix, 0) != 0) return -1;
  if (name.substr(name.size() - std::strlen(kSuffix)) != kSuffix) return -1;
  const std::string digits = name.substr(
      std::strlen(kPrefix),
      name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
  if (digits.empty()) return -1;
  int round = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return -1;
    round = round * 10 + (ch - '0');
  }
  return round;
}

}  // namespace

std::string save_run_checkpoint(const std::string& dir, int round,
                                const std::vector<std::uint8_t>& payload) {
  if (round < 0) {
    throw std::invalid_argument("save_run_checkpoint: negative round");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("save_run_checkpoint: cannot create '" + dir +
                             "': " + ec.message());
  }

  BinaryWriter writer;
  writer.write_magic(kRunCheckpointMagic);
  writer.write_u32(kRunCheckpointVersion);
  writer.write_vector(payload);
  // CRC-32 footer over everything above; a flipped bit anywhere in the
  // frame (header, length, or payload) fails verification on load.
  const std::uint32_t crc = compress::wire::crc32(writer.buffer());
  writer.write_u32(crc);

  const fs::path final_path = fs::path(dir) / checkpoint_filename(round);
  const fs::path tmp_path = final_path.string() + ".tmp";
  writer.save_to_file(tmp_path.string());
  // std::rename within one directory is atomic on POSIX: readers see either
  // the old file set or the complete new checkpoint, never a torn write.
  if (std::rename(tmp_path.string().c_str(), final_path.string().c_str()) !=
      0) {
    std::remove(tmp_path.string().c_str());
    throw std::runtime_error("save_run_checkpoint: rename to '" +
                             final_path.string() + "' failed");
  }
  return final_path.string();
}

std::vector<std::uint8_t> load_run_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("run checkpoint '" + path + "': cannot open");
  }
  std::vector<std::uint8_t> frame(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Verify the CRC footer over the raw frame before parsing anything: a
  // damaged file must never yield a partially-valid payload.
  if (frame.size() < 3 * sizeof(std::uint32_t)) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': truncated (shorter than the frame header)");
  }
  const std::size_t body = frame.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, frame.data() + body, sizeof(stored));
  const std::uint32_t actual = compress::wire::crc32({frame.data(), body});
  if (stored != actual) {
    throw std::runtime_error(
        "run checkpoint '" + path +
        "': CRC mismatch (file is corrupt or was truncated mid-write)");
  }
  BinaryReader reader(std::move(frame));
  const std::uint32_t magic = reader.read_u32();
  if (magic != kRunCheckpointMagic) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': wrong magic (not a run checkpoint)");
  }
  const std::uint32_t version = reader.read_u32();
  if (version != kRunCheckpointVersion) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': unsupported format version " +
                             std::to_string(version));
  }
  std::vector<std::uint8_t> payload;
  try {
    payload = reader.read_vector<std::uint8_t>();
  } catch (const std::exception& e) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': " + e.what());
  }
  if (reader.remaining() != sizeof(std::uint32_t)) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': trailing bytes after the payload");
  }
  return payload;
}

std::string find_latest_run_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return "";
  int best_round = -1;
  std::string best_path;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const int round = parse_checkpoint_round(entry.path().filename().string());
    if (round > best_round) {
      best_round = round;
      best_path = entry.path().string();
    }
  }
  return best_path;
}

std::size_t prune_run_checkpoints(const std::string& dir, int keep) {
  if (keep <= 0) return 0;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::vector<std::pair<int, fs::path>> checkpoints;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const int round = parse_checkpoint_round(entry.path().filename().string());
    if (round >= 0) checkpoints.emplace_back(round, entry.path());
  }
  if (checkpoints.size() <= static_cast<std::size_t>(keep)) return 0;
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t removed = 0;
  const std::size_t excess = checkpoints.size() - static_cast<std::size_t>(keep);
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(checkpoints[i].second, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace fedsu::io
