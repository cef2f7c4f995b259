#include "obs/telemetry.h"

#include <stdexcept>

#include "obs/json.h"

namespace fedsu::obs {

TelemetryWriter::TelemetryWriter(const std::string& path, std::string protocol)
    : out_(path), protocol_(std::move(protocol)) {
  if (!out_) throw std::runtime_error("TelemetryWriter: cannot open " + path);
}

std::string TelemetryWriter::to_json_line(const fl::RoundRecord& record,
                                          const std::string& protocol) {
  std::string line = "{";
  line += "\"round\": " + std::to_string(record.round);
  line += ", \"protocol\": " + json_quote(protocol);
  line += ", \"participants\": " + std::to_string(record.num_participants);
  line += ", \"uploads_lost\": " + std::to_string(record.uploads_lost);
  line += ", \"round_time_s\": " + json_number(record.round_time_s);
  line += ", \"elapsed_time_s\": " + json_number(record.elapsed_time_s);
  line += ", \"train_loss\": " + json_number(record.train_loss);
  line += ", \"test_accuracy\": " +
          (record.test_accuracy
               ? json_number(static_cast<double>(*record.test_accuracy))
               : std::string("null"));
  line += ", \"bytes_up\": " + std::to_string(record.bytes_up);
  line += ", \"bytes_down\": " + std::to_string(record.bytes_down);
  line += ", \"sparsification_ratio\": " +
          json_number(record.sparsification_ratio);
  line += ", \"speculated_fraction\": " +
          json_number(record.speculated_fraction);
  line += ", \"fallback_syncs\": " + std::to_string(record.fallback_syncs);
  line += ", \"promotions\": " + std::to_string(record.promotions);
  line += ", \"wall\": {\"select_s\": " + json_number(record.wall.select_s);
  line += ", \"train_s\": " + json_number(record.wall.train_s);
  line += ", \"sync_s\": " + json_number(record.wall.sync_s);
  line += ", \"timing_s\": " + json_number(record.wall.timing_s);
  line += ", \"eval_s\": " + json_number(record.wall.eval_s);
  line += ", \"total_s\": " + json_number(record.wall.total_s);
  line += "}";
  // Fault tallies ride along only when fault injection was active, so
  // zero-rate runs keep the exact historical line format.
  if (record.faults) {
    const auto& fc = *record.faults;
    line += ", \"faults\": {\"selected\": " + std::to_string(fc.selected);
    line += ", \"crashed\": " + std::to_string(fc.crashed);
    line += ", \"onsets\": " + std::to_string(fc.onsets);
    line += ", \"rejoined\": " + std::to_string(fc.rejoined);
    line += ", \"resyncs\": " + std::to_string(fc.resyncs);
    line += ", \"stragglers\": " + std::to_string(fc.stragglers);
    line += ", \"retries\": " + std::to_string(fc.retries);
    line += ", \"corrupt\": " + std::to_string(fc.corrupt);
    line += ", \"deadline_missed\": " + std::to_string(fc.deadline_missed);
    line += ", \"unused\": " + std::to_string(fc.unused);
    line += std::string(", \"quorum_met\": ") +
            (fc.quorum_met ? "true" : "false");
    line += "}";
  }
  // Buffered-async cycle stats ride along only when the async engine ran
  // the round; synchronous runs (and barrier-degenerate async runs, which
  // ARE the synchronous path) keep the historical line format.
  if (record.async) {
    const auto& as = *record.async;
    line += ", \"async\": {\"buffer_k\": " + std::to_string(as.buffer_k);
    line += ", \"consumed\": " + std::to_string(as.consumed);
    line += ", \"inflight\": " + std::to_string(as.inflight);
    line += ", \"fill_time_s\": " + json_number(as.fill_time_s);
    line += ", \"max_staleness\": " + std::to_string(as.max_staleness);
    line += ", \"mean_staleness\": " + json_number(as.mean_staleness);
    line += ", \"weight_sum\": " + json_number(as.weight_sum);
    line += ", \"staleness_hist\": [";
    for (std::size_t s = 0; s < as.staleness_hist.size(); ++s) {
      if (s > 0) line += ", ";
      line += std::to_string(as.staleness_hist[s]);
    }
    line += "]}";
  }
  // Checkpoint-write outcome rides along only on rounds where the periodic
  // checkpoint cadence fired (docs/RECOVERY.md); checkpoint-off runs keep
  // the historical line format.
  if (record.checkpoint) {
    const auto& cp = *record.checkpoint;
    line += std::string(", \"checkpoint\": {\"ok\": ") +
            (cp.ok ? "true" : "false");
    line += ", \"round\": " + std::to_string(cp.round);
    line += ", \"bytes\": " + std::to_string(cp.bytes);
    line += ", \"path\": " + json_quote(cp.path);
    if (!cp.ok) line += ", \"error\": " + json_quote(cp.error);
    line += "}";
  }
  line += "}";
  return line;
}

void TelemetryWriter::append(const fl::RoundRecord& record) {
  out_ << to_json_line(record, protocol_) << '\n';
  // Flushed per record: a crashed long run keeps every completed round.
  if (!out_.flush()) {
    throw std::runtime_error("TelemetryWriter: write failed");
  }
  ++rows_;
}

std::function<void(const fl::RoundRecord&)> TelemetryWriter::hook() {
  return [this](const fl::RoundRecord& record) { append(record); };
}

}  // namespace fedsu::obs
