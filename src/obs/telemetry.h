// Structured per-round telemetry: one JSON object per FL round, appended as
// JSONL and flushed per line so a killed run keeps its partial telemetry.
//
// Carries the observability fields an analysis pipeline needs without
// re-running: exact bytes on the wire, speculation state, fallback
// synchronizations, and the per-phase wall-time split.
#pragma once

#include <fstream>
#include <functional>
#include <string>
#include <utility>

#include "fl/simulation.h"

namespace fedsu::obs {

class TelemetryWriter {
 public:
  // Opens `path` for truncating write; `protocol` names the scheme under
  // test in every emitted record. Throws std::runtime_error on I/O failure.
  TelemetryWriter(const std::string& path, std::string protocol);

  void append(const fl::RoundRecord& record);

  // Relabels subsequent records; benches that run several schemes through
  // one file switch the label per scheme instead of reopening the file.
  void set_protocol(std::string protocol) { protocol_ = std::move(protocol); }

  // Installable hook for fl::Simulation::set_round_hook.
  std::function<void(const fl::RoundRecord&)> hook();

  int rows_written() const { return rows_; }

  // Serializes one record to its JSONL line (no trailing newline); exposed
  // so tests and the validator share the exact production encoding.
  static std::string to_json_line(const fl::RoundRecord& record,
                                  const std::string& protocol);

 private:
  std::ofstream out_;
  std::string protocol_;
  int rows_ = 0;
};

}  // namespace fedsu::obs
