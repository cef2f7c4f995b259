#include "io/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

// magic, version, payload length: the bytes before the payload.
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t) +
                                     sizeof(std::uint64_t);
constexpr std::size_t kFooterBytes = sizeof(std::uint32_t);  // CRC-32

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

  BinaryWriter header;
  header.write_magic(kRunCheckpointMagic);
  header.write_u32(kRunCheckpointVersion);
  header.write_u64(payload.size());
  // CRC-32 footer over everything before it; a flipped bit anywhere in the
  // frame (header, length, or payload) fails verification on load.
  const std::uint32_t crc =
      compress::wire::crc32(payload, compress::wire::crc32(header.buffer()));

  const fs::path final_path = fs::path(dir) / checkpoint_filename(round);
  const std::string tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(header.buffer().data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.close();
    if (!out) {
      std::remove(tmp_path.c_str());
      throw std::runtime_error("save_run_checkpoint: cannot write '" +
                               tmp_path + "'");
    }
  }
  // std::rename within one directory is atomic on POSIX: readers see either
  // the old file set or the complete new checkpoint, never a torn write.
  if (std::rename(tmp_path.c_str(), final_path.string().c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("save_run_checkpoint: rename to '" +
                             final_path.string() + "' failed");
  }
  return final_path.string();
}

std::vector<std::uint8_t> load_run_checkpoint(const std::string& path) {
  auto fail = [&](const std::string& what) {
    return std::runtime_error("run checkpoint '" + path + "': " + what);
  };
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff end = in.tellg();
  if (!in || end < 0) throw fail("cannot open");
  const auto file_bytes = static_cast<std::uint64_t>(end);
  in.seekg(0);
  if (file_bytes < kHeaderBytes + kFooterBytes) {
    throw fail("truncated (shorter than the frame header)");
  }
  std::array<std::uint8_t, kHeaderBytes> header{};
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  BinaryReader fields(header);
  const std::uint32_t magic = fields.read_u32();
  const std::uint32_t version = fields.read_u32();
  // The length field sizes nothing until the file size confirms it.
  const std::uint64_t length = fields.read_u64();
  const std::uint64_t held = file_bytes - kHeaderBytes - kFooterBytes;
  if (length != held) {
    throw fail("the length field says " + std::to_string(length) +
               " payload bytes, the file holds " + std::to_string(held) +
               " (truncated or damaged)");
  }
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(length));
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in) throw fail("read failed");
  // Verify the CRC footer over the whole frame before reading another
  // field: a damaged file must never yield a partially-valid payload.
  if (stored !=
      compress::wire::crc32(payload, compress::wire::crc32(header))) {
    throw fail("CRC mismatch (file is corrupt or was truncated mid-write)");
  }
  if (magic != kRunCheckpointMagic) {
    throw fail("wrong magic (not a run checkpoint)");
  }
  if (version != kRunCheckpointVersion) {
    throw fail("unsupported format version " + std::to_string(version));
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
